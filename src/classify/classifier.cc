#include "classify/classifier.h"

#include <algorithm>
#include <map>

#include "gadgets/chain_cycle.h"
#include "lang/four_legged.h"
#include "lang/infix_free.h"
#include "lang/neutral_letter.h"
#include "lang/repeated_letter.h"
#include "util/strings.h"

namespace rpqres {

const char* ComplexityClassName(ComplexityClass c) {
  switch (c) {
    case ComplexityClass::kPtime:
      return "PTIME";
    case ComplexityClass::kNpHard:
      return "NP-hard";
    case ComplexityClass::kUnclassified:
      return "UNCLASSIFIED";
    case ComplexityClass::kTrivial:
      return "trivial";
  }
  return "?";
}

namespace {

// The finite languages proven NP-hard by dedicated gadgets (Prp 7.4,
// Prp 7.11), to be matched up to letter renaming.
const std::vector<std::vector<std::string>>& KnownHardWordSets() {
  static const std::vector<std::vector<std::string>> kSets = {
      {"ab", "bc", "ca"},        // Prp 7.4
      {"abcd", "be", "ef"},      // Prp 7.11
      {"abcd", "bef"},           // Prp 7.11
  };
  return kSets;
}

// Does some letter bijection map `words` onto `pattern` (as word sets)?
bool MatchesUpToRenaming(std::vector<std::string> words,
                         std::vector<std::string> pattern) {
  if (words.size() != pattern.size()) return false;
  std::sort(words.begin(), words.end());
  std::sort(pattern.begin(), pattern.end());
  // Backtracking over letter bindings. Small languages only.
  std::map<char, char> binding;  // word letter -> pattern letter
  std::map<char, char> reverse;

  // Words must be matched as a set: try permutations of same-length words.
  std::sort(words.begin(), words.end(),
            [](const auto& a, const auto& b) { return a.size() < b.size(); });
  std::sort(pattern.begin(), pattern.end(),
            [](const auto& a, const auto& b) { return a.size() < b.size(); });

  std::vector<int> perm(pattern.size());
  for (size_t i = 0; i < perm.size(); ++i) perm[i] = static_cast<int>(i);
  // Only permute within same-length groups.
  do {
    bool length_ok = true;
    for (size_t i = 0; i < words.size(); ++i) {
      if (words[i].size() != pattern[perm[i]].size()) {
        length_ok = false;
        break;
      }
    }
    if (!length_ok) continue;
    binding.clear();
    reverse.clear();
    bool ok = true;
    for (size_t i = 0; i < words.size() && ok; ++i) {
      const std::string& w = words[i];
      const std::string& p = pattern[perm[i]];
      for (size_t j = 0; j < w.size(); ++j) {
        auto it = binding.find(w[j]);
        if (it != binding.end()) {
          if (it->second != p[j]) {
            ok = false;
            break;
          }
        } else {
          auto rit = reverse.find(p[j]);
          if (rit != reverse.end()) {
            ok = false;
            break;
          }
          binding[w[j]] = p[j];
          reverse[p[j]] = w[j];
        }
      }
    }
    if (ok) return true;
  } while (std::next_permutation(perm.begin(), perm.end()));
  return false;
}

}  // namespace

Result<Classification> ClassifyResilience(const Language& lang) {
  Language ifl = InfixFreeSublanguage(lang);
  return ClassifyResilienceWithIF(lang, ifl, FindTractableForm(ifl));
}

Result<Classification> ClassifyResilienceWithIF(const Language& lang,
                                                const Language& ifl,
                                                const TractableForm& form) {
  Classification out;
  out.finite = ifl.IsFinite();
  // The words of a finite IF(L), listed once for every rule that reads them.
  std::vector<std::string> words;
  if (out.finite) {
    RPQRES_ASSIGN_OR_RETURN(words, ifl.Words());
    std::vector<std::string> shown;
    for (const std::string& w : words) shown.push_back(DisplayWord(w));
    out.if_language = shown.empty() ? "∅" : Join(shown, "|");
  } else {
    out.if_language = "IF(" + lang.description() + ") [infinite]";
  }

  // Trivial cases.
  if (ifl.ContainsEpsilon()) {
    out.complexity = ComplexityClass::kTrivial;
    out.rule = "ε ∈ L";
    out.detail = "Q_L holds on every database; resilience is +∞";
    return out;
  }
  if (ifl.IsEmpty()) {
    out.complexity = ComplexityClass::kTrivial;
    out.rule = "L = ∅";
    out.detail = "Q_L never holds; resilience is 0";
    return out;
  }

  // --- PTIME side -----------------------------------------------------------
  switch (form.kind) {
    case TractableKind::kLocal:
      out.complexity = ComplexityClass::kPtime;
      out.rule = "local language (Thm 3.13)";
      out.detail = "RO-εNFA product with D, then MinCut";
      return out;
    case TractableKind::kBipartiteChain:
      out.complexity = ComplexityClass::kPtime;
      out.rule = "bipartite chain language (Prp 7.6)";
      out.detail = "per-fact flow network with forward/reversed word wiring";
      return out;
    case TractableKind::kOneDangling: {
      const OneDanglingDecomposition& decomposition = *form.one_dangling;
      out.complexity = ComplexityClass::kPtime;
      out.rule = "one-dangling language (Prp 7.9)";
      out.detail = "L = " + decomposition.base.description() + " ∪ {" +
                   std::string(1, decomposition.x) +
                   std::string(1, decomposition.y) + "}";
      return out;
    }
    case TractableKind::kNone:
      break;
  }

  // --- NP-hard side ---------------------------------------------------------
  if (std::optional<RepeatedLetterWord> word = FindMaximalGapWord(words)) {
    out.complexity = ComplexityClass::kNpHard;
    out.rule = "finite with repeated-letter word (Thm 6.1)";
    out.detail = "maximal-gap word " + word->word;
    return out;
  }
  RPQRES_ASSIGN_OR_RETURN(std::optional<FourLeggedWitness> witness,
                          FindFourLeggedWitness(ifl));
  if (witness) {
    out.complexity = ComplexityClass::kNpHard;
    out.rule = "four-legged language (Thm 5.3)";
    out.detail = std::string(1, witness->body) + "-body, " +
                 witness->FirstWord() + " ∈ L, " + witness->SecondWord() +
                 " ∈ L, " + witness->CrossWord() + " ∉ L";
    return out;
  }
  if (!out.finite) {
    // A non-star-free IF(L) is four-legged (Lem 5.6), so it never gets here.
    // Neutral-letter dichotomy (Prp 5.7): the neutral letter is a property
    // of L itself (IF(L) typically loses it); IF(L) is not local here, so
    // a neutral letter implies hardness even without four legs (Lem 5.8:
    // (a|c)e*(a|d) holds aa instead).
    std::vector<char> neutral = NeutralLetters(lang);
    if (!neutral.empty()) {
      out.complexity = ComplexityClass::kNpHard;
      out.rule = "neutral letter + non-local (Prp 5.7)";
      out.detail = std::string("neutral letter '") + neutral.front() + "'";
      return out;
    }
  }
  if (out.finite) {
    for (const std::vector<std::string>& pattern : KnownHardWordSets()) {
      if (MatchesUpToRenaming(words, pattern)) {
        out.complexity = ComplexityClass::kNpHard;
        out.rule = pattern.size() == 3 && pattern[0] == "ab"
                       ? "non-bipartite chain ab|bc|ca (Prp 7.4)"
                       : "explicit gadget (Prp 7.11)";
        out.detail = "matches " + Join(pattern, "|") + " up to renaming";
        return out;
      }
    }
    // Non-bipartite chain languages beyond ab|bc|ca: the paper conjectures
    // hardness; a mechanically *verified* gadget is a proof via Prp 4.11,
    // so the NP-hard region extends wherever the Fig 13 generalization
    // verifies (gadgets/chain_cycle.h).
    Result<PreGadget> chain_gadget = BuildNonBipartiteChainGadget(ifl);
    if (chain_gadget.ok()) {
      out.complexity = ComplexityClass::kNpHard;
      out.rule = "non-bipartite chain, verified gadget (Prp 4.11)";
      out.detail = "odd-cycle gadget " + chain_gadget->name +
                   " verified; extends the paper's Prp 7.4 conjecture";
      return out;
    }
  }

  out.complexity = ComplexityClass::kUnclassified;
  out.rule = "no paper result applies";
  out.detail =
      "not local/BCL/one-dangling; no repeated letter, not four-legged, "
      "star-free, no neutral letter";
  return out;
}

std::string ClassificationReport(const Language& lang,
                                 const Classification& classification) {
  std::string out = lang.description() + ": ";
  out += ComplexityClassName(classification.complexity);
  out += " — " + classification.rule;
  if (!classification.detail.empty()) {
    out += " (" + classification.detail + ")";
  }
  return out;
}

}  // namespace rpqres
