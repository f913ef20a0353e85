// Cross-checks the exact four-legged test (Def 5.1 decided on the minimal
// DFA) against a reference that pairs up words of bounded length (exact on
// finite languages, one-sided on infinite ones) over two corpora: every
// small language of the classifier sweep, and 1,000 seeded workload
// queries. Also checks Lemma 5.6 (non-star-free IF(L) ⇒ four-legged) on
// the same corpora, which is why the classifier has no non-star-free rule.

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "lang/four_legged.h"
#include "lang/infix_free.h"
#include "lang/language.h"
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

struct CrossCheckCounts {
  int languages = 0;
  int four_legged = 0;
  int reference_found = 0;
  int non_star_free = 0;
};

// Checks `ifl` (an infix-free language) and tallies into `counts`.
void CrossCheck(const Language& ifl, const std::string& name,
                CrossCheckCounts* counts) {
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

TEST(FourLeggedReferenceTest, SmallLanguageCorpus) {
  CrossCheckCounts counts;
  ForEachSmallLanguage([&](const std::vector<std::string>& words) {
    Language lang = Language::FromWords(words);
    CrossCheck(InfixFreeSublanguage(lang), lang.description(), &counts);
  });
  EXPECT_EQ(counts.languages, 780);
  EXPECT_GT(counts.four_legged, 0);
  EXPECT_EQ(counts.four_legged, counts.reference_found);
  RecordProperty("four_legged", counts.four_legged);
}

TEST(FourLeggedReferenceTest, WorkloadQueryCorpus) {
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
    CrossCheck(InfixFreeSublanguage(lang),
               "seed " + std::to_string(seed) + " " + instance->query.regex,
               &counts);
  }
  EXPECT_EQ(generation_failures, 0);
  EXPECT_EQ(counts.languages, kSeeds);
  EXPECT_GT(counts.four_legged, 0);
  EXPECT_GT(counts.non_star_free, 0);
  RecordProperty("four_legged", counts.four_legged);
  RecordProperty("reference_found", counts.reference_found);
  RecordProperty("non_star_free", counts.non_star_free);
}

}  // namespace
}  // namespace rpqres
