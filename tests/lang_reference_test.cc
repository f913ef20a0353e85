// Cross-checks the Figure 1 property tests, which read L's minimal DFA
// directly, against reference constructions over two corpora (every small
// language of the classifier sweep, and 1,000 seeded workload queries) plus
// hand-written regexes, each taken as L and as IF(L):
//   * four-leggedness (Def 5.1) on IF(L) against a reference that pairs up
//     words of bounded length (exact on finite languages, one-sided on
//     infinite ones), and Lemma 5.6 (non-star-free IF(L) ⇒ four-legged),
//     which is why the classifier has no non-star-free rule;
//   * IsLocal against the local overapproximation's equivalence with L
//     (Prp 3.12 / Claim 3.11), and BuildRoEnfa against L itself;
//   * NeutralLetters against two inclusions, Ins_e(L) ⊆ L and Del_e(L) ⊆ L;
//   * HasRepeatedLetterWord against L ∩ Σ*aΣ*aΣ* ≠ ∅;
//   * used_letters() against the alphabet of the trimmed automaton;
//   * FindOneDanglingDecomposition against L \ {xy} built per candidate
//     by language algebra, and its symmetry under mirroring (Def 7.8),
//     which is why no caller searches mirror(L).

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "automata/ops.h"
#include "lang/four_legged.h"
#include "lang/infix_free.h"
#include "lang/language.h"
#include "lang/local.h"
#include "lang/neutral_letter.h"
#include "lang/one_dangling.h"
#include "lang/repeated_letter.h"
#include "lang/ro_enfa.h"
#include "lang/star_free.h"
#include "small_languages.h"
#include "workload/workload.h"

namespace rpqres {
namespace {

constexpr int kReferenceWordLength = 8;

// Reference: is there a witness among the words of L of length <=
// `max_word_length` (all words when L is finite)? nullopt when there are
// too many words to list.
std::optional<bool> ReferenceFourLegged(const Language& lang,
                                        int max_word_length) {
  Result<std::vector<std::string>> listed =
      lang.IsFinite() ? lang.Words() : lang.WordsUpTo(max_word_length);
  if (!listed.ok()) return std::nullopt;
  const std::vector<std::string>& words = *listed;
  for (const std::string& w1 : words) {
    for (size_t i = 1; i + 1 < w1.size(); ++i) {
      for (const std::string& w2 : words) {
        for (size_t j = 1; j + 1 < w2.size(); ++j) {
          if (w2[j] != w1[i]) continue;
          // α = w1[..i), x = w1[i], δ = w2(j..].
          if (!lang.Contains(w1.substr(0, i + 1) + w2.substr(j + 1))) {
            return true;
          }
        }
      }
    }
  }
  return false;
}

// Reference locality test: L is local iff its local overapproximation
// recognizes exactly L (Prp 3.12 / Claim 3.11).
bool ReferenceIsLocal(const Language& lang) {
  Dfa overapprox = LocalOverapproximationDfa(ComputeLocalProfile(lang));
  return AreEquivalent(Minimize(overapprox), lang.min_dfa());
}

// NFA for { αeβ : αβ ∈ L }: two phases of the DFA for L with a bridging
// e-transition (q,0) -e-> (q,1).
Enfa InsertOne(const Dfa& dfa, char e) {
  Enfa out;
  int n = dfa.num_states();
  out.AddStates(2 * n);
  for (int s = 0; s < n; ++s) {
    for (size_t i = 0; i < dfa.alphabet().size(); ++i) {
      int to = dfa.NextByIndex(s, static_cast<int>(i));
      if (to == kNoState) continue;
      out.AddTransition(s, dfa.alphabet()[i], to);          // phase 0
      out.AddTransition(n + s, dfa.alphabet()[i], n + to);  // phase 1
    }
    out.AddTransition(s, e, n + s);  // the inserted occurrence of e
    if (dfa.IsFinal(s)) out.AddFinal(n + s);
  }
  if (n > 0) out.AddInitial(dfa.initial());
  return out;
}

// NFA for { αβ : αeβ ∈ L }: two phases with an ε-jump that simulates
// reading e in the DFA: (q,0) -ε-> (δ(q,e),1).
Enfa DeleteOne(const Dfa& dfa, char e) {
  Enfa out;
  int n = dfa.num_states();
  out.AddStates(2 * n);
  for (int s = 0; s < n; ++s) {
    for (size_t i = 0; i < dfa.alphabet().size(); ++i) {
      int to = dfa.NextByIndex(s, static_cast<int>(i));
      if (to == kNoState) continue;
      out.AddTransition(s, dfa.alphabet()[i], to);
      out.AddTransition(n + s, dfa.alphabet()[i], n + to);
    }
    int via_e = dfa.Next(s, e);
    if (via_e != kNoState) out.AddTransition(s, kEpsilonSymbol, n + via_e);
    if (dfa.IsFinal(s)) out.AddFinal(n + s);
  }
  if (n > 0) out.AddInitial(dfa.initial());
  return out;
}

// Reference neutral letters: the used letters e with Ins_e(L) ⊆ L and
// Del_e(L) ⊆ L.
std::vector<char> ReferenceNeutralLetters(const Language& lang) {
  const Dfa& dfa = lang.min_dfa();
  std::vector<char> out;
  for (char e : lang.used_letters()) {
    if (IsSubsetOf(MinimalDfa(InsertOne(dfa, e)), dfa) &&
        IsSubsetOf(MinimalDfa(DeleteOne(dfa, e)), dfa)) {
      out.push_back(e);
    }
  }
  return out;
}

// Reference repeated-letter test: L ∩ Σ*aΣ*aΣ* ≠ ∅ for some used letter a.
bool ReferenceHasRepeatedLetterWord(const Language& lang) {
  const std::vector<char>& sigma = lang.used_letters();
  Enfa sigma_star = EnfaSigmaStar(sigma);
  for (char a : sigma) {
    Enfa letter = EnfaFromWord(std::string(1, a));
    Enfa pattern = EnfaConcat(
        EnfaConcat(EnfaConcat(EnfaConcat(sigma_star, letter), sigma_star),
                   letter),
        sigma_star);
    if (!DfaIsEmptyLanguage(IntersectDfa(lang.min_dfa(),
                                         MinimalDfa(pattern)))) {
      return true;
    }
  }
  return false;
}

// Reference one-dangling search: per two-letter word xy ∈ L with x ≠ y,
// in (length, lexicographic) order, builds L \ {xy} as the difference
// with the word's automaton and tests freshness on its letters.
std::optional<OneDanglingDecomposition> ReferenceOneDangling(
    const Language& lang) {
  Result<std::vector<std::string>> short_words = lang.WordsUpTo(2);
  if (!short_words.ok()) return std::nullopt;
  for (const std::string& w : *short_words) {
    if (w.size() != 2 || w[0] == w[1]) continue;
    char x = w[0], y = w[1];
    Language base = Language::FromDfa(Minimize(
        DifferenceDfa(lang.min_dfa(), MinimalDfa(EnfaFromWord(w)))));
    base.set_description(lang.description() + " \\ {" + w + "}");
    const std::vector<char>& sigma = base.used_letters();
    bool x_in_base = std::binary_search(sigma.begin(), sigma.end(), x);
    bool y_in_base = std::binary_search(sigma.begin(), sigma.end(), y);
    if (x_in_base && y_in_base) continue;  // neither endpoint is fresh
    if (!IsLocal(base)) continue;
    return OneDanglingDecomposition{x, y, std::move(base), x_in_base,
                                    y_in_base};
  }
  return std::nullopt;
}

struct CrossCheckCounts {
  int languages = 0;
  int four_legged = 0;
  int reference_found = 0;
  int non_star_free = 0;
  // Tallied over L and IF(L), so twice per corpus language.
  int property_languages = 0;
  int local = 0;
  int with_neutral_letter = 0;
  int repeated_letter = 0;
  int one_dangling = 0;
};

// Checks the minimal-DFA property tests on `lang` against their references
// and tallies into `counts`.
void CrossCheckProperties(const Language& lang, const std::string& name,
                          CrossCheckCounts* counts) {
  ++counts->property_languages;
  EXPECT_EQ(lang.used_letters(),
            EnfaTrim(DfaToEnfa(lang.min_dfa())).Alphabet())
      << name;

  bool local = IsLocal(lang);
  EXPECT_EQ(local, ReferenceIsLocal(lang)) << name;
  Result<Enfa> ro = BuildRoEnfa(lang);
  if (local) {
    ++counts->local;
    ASSERT_TRUE(ro.ok()) << name << ": " << ro.status();
    EXPECT_TRUE(IsRoEnfa(*ro)) << name;
    EXPECT_TRUE(AreEquivalent(MinimalDfa(*ro), lang.min_dfa()))
        << name << ": the RO-εNFA does not recognize L";
  } else {
    EXPECT_EQ(ro.status().code(), StatusCode::kFailedPrecondition) << name;
  }

  std::vector<char> neutral = NeutralLetters(lang);
  EXPECT_EQ(neutral, ReferenceNeutralLetters(lang)) << name;
  if (!neutral.empty()) ++counts->with_neutral_letter;

  bool repeated = HasRepeatedLetterWord(lang);
  EXPECT_EQ(repeated, ReferenceHasRepeatedLetterWord(lang)) << name;
  if (repeated) ++counts->repeated_letter;

  std::optional<OneDanglingDecomposition> one_dangling =
      FindOneDanglingDecomposition(lang);
  std::optional<OneDanglingDecomposition> reference =
      ReferenceOneDangling(lang);
  ASSERT_EQ(one_dangling.has_value(), reference.has_value()) << name;
  EXPECT_EQ(FindOneDanglingDecomposition(lang.Mirror()).has_value(),
            one_dangling.has_value())
      << name << ": one-danglingness is not symmetric under mirroring";
  if (one_dangling) {
    ++counts->one_dangling;
    EXPECT_EQ(one_dangling->x, reference->x) << name;
    EXPECT_EQ(one_dangling->y, reference->y) << name;
    EXPECT_EQ(one_dangling->x_in_base, reference->x_in_base) << name;
    EXPECT_EQ(one_dangling->y_in_base, reference->y_in_base) << name;
    EXPECT_EQ(one_dangling->base.description(),
              reference->base.description())
        << name;
    EXPECT_TRUE(one_dangling->base.EquivalentTo(reference->base)) << name;
  }
}

// Tallies of the property checks, for the test report.
void RecordPropertyCounts(const CrossCheckCounts& counts) {
  ::testing::Test::RecordProperty("local", counts.local);
  ::testing::Test::RecordProperty("with_neutral_letter",
                                  counts.with_neutral_letter);
  ::testing::Test::RecordProperty("repeated_letter", counts.repeated_letter);
  ::testing::Test::RecordProperty("one_dangling", counts.one_dangling);
}

// Checks `lang` and `ifl` = IF(lang) and tallies into `counts`.
void CrossCheck(const Language& lang, const Language& ifl,
                const std::string& name, CrossCheckCounts* counts) {
  CrossCheckProperties(lang, name, counts);
  CrossCheckProperties(ifl, "IF(" + name + ")", counts);
  ++counts->languages;
  std::optional<FourLeggedWitness> witness = *FindFourLeggedWitness(ifl);
  if (witness) {
    ++counts->four_legged;
    EXPECT_FALSE(witness->alpha.empty() || witness->beta.empty() ||
                 witness->gamma.empty() || witness->delta.empty())
        << name;
    EXPECT_TRUE(ifl.Contains(witness->FirstWord())) << name;
    EXPECT_TRUE(ifl.Contains(witness->SecondWord())) << name;
    EXPECT_FALSE(ifl.Contains(witness->CrossWord())) << name;
    EXPECT_TRUE(witness->stable) << name;
    EXPECT_FALSE(SomeInfixInLanguage(ifl, witness->CrossWord())) << name;
  }

  std::optional<bool> reference =
      ReferenceFourLegged(ifl, kReferenceWordLength);
  if (reference.value_or(false)) {
    ++counts->reference_found;
    EXPECT_TRUE(witness.has_value())
        << name << ": the reference finds a witness, the exact test none";
  }
  if (ifl.IsFinite() && reference.has_value()) {
    // Listing every word of a finite language is exact too.
    EXPECT_EQ(witness.has_value(), *reference) << name;
  }

  Result<bool> star_free = IsStarFree(ifl);
  if (star_free.ok() && !*star_free) {
    ++counts->non_star_free;
    EXPECT_TRUE(witness.has_value())
        << name << ": non-star-free but not four-legged (Lem 5.6)";
  }
}

TEST(ReferenceTest, SmallLanguageCorpus) {
  CrossCheckCounts counts;
  ForEachSmallLanguage([&](const std::vector<std::string>& words) {
    Language lang = Language::FromWords(words);
    CrossCheck(lang, InfixFreeSublanguage(lang), lang.description(),
               &counts);
  });
  EXPECT_EQ(counts.languages, 780);
  EXPECT_EQ(counts.property_languages, 2 * 780);
  EXPECT_GT(counts.four_legged, 0);
  EXPECT_EQ(counts.four_legged, counts.reference_found);
  // Finite non-empty languages have no neutral letter.
  EXPECT_EQ(counts.with_neutral_letter, 0);
  EXPECT_GT(counts.local, 0);
  EXPECT_LT(counts.local, counts.property_languages);
  EXPECT_GT(counts.repeated_letter, 0);
  EXPECT_GT(counts.one_dangling, 0);
  RecordProperty("four_legged", counts.four_legged);
  RecordPropertyCounts(counts);
}

TEST(ReferenceTest, WorkloadQueryCorpus) {
  constexpr uint64_t kFirstSeed = 20250622;
  constexpr int kSeeds = 1000;
  workload::WorkloadOptions options;
  CrossCheckCounts counts;
  int generation_failures = 0;
  for (uint64_t seed = kFirstSeed; seed < kFirstSeed + kSeeds; ++seed) {
    Result<workload::WorkloadInstance> instance =
        workload::MakeWorkloadInstance(seed, options);
    if (!instance.ok()) {
      ++generation_failures;
      continue;
    }
    Language lang = Language::MustFromRegexString(instance->query.regex);
    CrossCheck(lang, InfixFreeSublanguage(lang),
               "seed " + std::to_string(seed) + " " + instance->query.regex,
               &counts);
  }
  EXPECT_EQ(generation_failures, 0);
  EXPECT_EQ(counts.languages, kSeeds);
  EXPECT_GT(counts.four_legged, 0);
  EXPECT_GT(counts.non_star_free, 0);
  EXPECT_GT(counts.local, 0);
  EXPECT_LT(counts.local, counts.property_languages);
  EXPECT_GT(counts.repeated_letter, 0);
  EXPECT_GT(counts.one_dangling, 0);
  RecordProperty("four_legged", counts.four_legged);
  RecordProperty("reference_found", counts.reference_found);
  RecordProperty("non_star_free", counts.non_star_free);
  RecordPropertyCounts(counts);
}

TEST(ReferenceTest, HandWrittenCorpus) {
  // The Figure 1 rows, plus languages with neutral letters (Section 5.2),
  // which neither generated corpus is sure to contain, and one-dangling
  // edge cases: each orientation of the fresh letter and its mirror, a
  // second x before the dangling word (xy|axy), a prefix of it in L
  // (xy|x), and a dangling word with x = y (abc|bb).
  const std::vector<std::string> regexes = {
      "abc|abd", "ab|ad|cd", "ax*b", "ab|bc", "axb|byc", "abc|be",
      "abcd|ce", "abcd|be", "ax*b|xd", "axb|cxd", "ax*b|cxd", "b(aa)*d",
      "aa", "aaaa", "abca|cab", "ab|bc|ca", "abcd|be|ef", "abcd|bef",
      "abc|bcd", "abc|bef", "ab*c|ba", "ab*d|ac*d|bc",
      "e*", "e*ae*", "e*ae*be*", "e*ae*be*|e*ce*", "e*be*ce*|e*de*fe*",
      "e*ae", "(a|c)e*(a|d)", "(a|b)*", "(ab)*", "a*b*", "x(ab)*y",
      "(a|b)*a(a|b)", "abc|ea", "ax*b|ea", "cba|eb", "bx*a|ae", "xy|axy",
      "xy|x", "abc|bb"};
  CrossCheckCounts counts;
  for (const std::string& regex : regexes) {
    Language lang = Language::MustFromRegexString(regex);
    CrossCheck(lang, InfixFreeSublanguage(lang), regex, &counts);
  }
  EXPECT_GT(counts.with_neutral_letter, 0);
  EXPECT_GT(counts.local, 0);
  EXPECT_GT(counts.repeated_letter, 0);
  EXPECT_GT(counts.one_dangling, 0);
  RecordPropertyCounts(counts);
}

}  // namespace
}  // namespace rpqres
