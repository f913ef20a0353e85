// Exhaustive robustness sweep: classify *every* language with at most two
// words of length <= 3 over {a, b, c} (780 languages) and check that the
// verdicts are internally consistent:
//   * classification never errors;
//   * PTIME verdicts are backed by an applicable flow solver whose answer
//     matches brute force on a random instance;
//   * NP-hard verdicts on finite languages come with a paper-sanctioned
//     reason (repeated letter, four-legged, or a known gadget language);
//   * UNCLASSIFIED verdicts are genuinely outside every implemented class.

#include <gtest/gtest.h>

#include "classify/classifier.h"
#include "graphdb/generators.h"
#include "lang/chain.h"
#include "lang/four_legged.h"
#include "lang/infix_free.h"
#include "lang/language.h"
#include "lang/local.h"
#include "lang/one_dangling.h"
#include "lang/repeated_letter.h"
#include "resilience/exact.h"
#include "resilience/resilience.h"
#include "small_languages.h"
#include "util/rng.h"
#include "util/strings.h"

namespace rpqres {
namespace {

TEST(ClassifierSweepTest, AllSmallLanguagesConsistent) {
  Rng rng(20260610);
  int counts[3] = {0, 0, 0};  // PTIME, NP-hard, unclassified
  int solver_checks = 0;

  auto handle = [&](const std::vector<std::string>& language_words) {
    Language lang = Language::FromWords(language_words);
    Result<Classification> c = ClassifyResilience(lang);
    ASSERT_TRUE(c.ok()) << lang.description() << ": " << c.status();
    Language ifl = InfixFreeSublanguage(lang);

    switch (c->complexity) {
      case ComplexityClass::kTrivial:
        ADD_FAILURE() << lang.description()
                      << ": non-empty ε-free languages are never trivial";
        break;
      case ComplexityClass::kPtime: {
        ++counts[0];
        bool backed = IsLocal(ifl) || IsBipartiteChainLanguage(ifl) ||
                      FindOneDanglingDecomposition(ifl).has_value();
        EXPECT_TRUE(backed) << lang.description() << " via " << c->rule;
        // Spot-check the routed solver against brute force (sampled to
        // keep the sweep fast).
        if (rng.NextChance(1, 8)) {
          GraphDb db = RandomGraphDb(&rng, 4, 8, {'a', 'b', 'c'});
          ResilienceOptions no_exponential;
          no_exponential.allow_exponential = false;
          Result<ResilienceResult> flow = ComputeResilience(
              lang, db, Semantics::kSet, no_exponential);
          Result<ResilienceResult> brute =
              SolveBruteForceResilience(lang, db, Semantics::kSet);
          ASSERT_TRUE(flow.ok()) << lang.description() << ": "
                                 << flow.status();
          ASSERT_TRUE(brute.ok());
          EXPECT_EQ(flow->value, brute->value)
              << lang.description() << "\n"
              << db.ToString();
          ++solver_checks;
        }
        break;
      }
      case ComplexityClass::kNpHard: {
        ++counts[1];
        // Finite NP-hard verdicts must be justified by Thm 6.1, Thm 5.3,
        // or a known gadget language.
        EXPECT_TRUE(HasRepeatedLetterWord(ifl) ||
                    FindFourLeggedWitness(ifl)->has_value() ||
                    c->rule.find("Prp 7.4") != std::string::npos ||
                    c->rule.find("Prp 7.11") != std::string::npos)
            << lang.description() << " via " << c->rule;
        // And never overlap a tractable class.
        EXPECT_FALSE(IsLocal(ifl)) << lang.description();
        EXPECT_FALSE(IsBipartiteChainLanguage(ifl)) << lang.description();
        EXPECT_FALSE(FindOneDanglingDecomposition(ifl).has_value())
            << lang.description();
        break;
      }
      case ComplexityClass::kUnclassified: {
        ++counts[2];
        EXPECT_FALSE(IsLocal(ifl)) << lang.description();
        EXPECT_FALSE(IsBipartiteChainLanguage(ifl)) << lang.description();
        EXPECT_FALSE(FindOneDanglingDecomposition(ifl).has_value())
            << lang.description();
        EXPECT_FALSE(HasRepeatedLetterWord(ifl)) << lang.description();
        EXPECT_FALSE(FindFourLeggedWitness(ifl)->has_value())
            << lang.description();
        break;
      }
    }
  };

  ForEachSmallLanguage(handle);

  // The sweep covers all three columns of Figure 1 and actually ran the
  // sampled solver checks.
  EXPECT_GT(counts[0], 0);
  EXPECT_GT(counts[1], 0);
  EXPECT_GT(counts[2], 0);
  EXPECT_GT(solver_checks, 10);
  RecordProperty("ptime", counts[0]);
  RecordProperty("nphard", counts[1]);
  RecordProperty("unclassified", counts[2]);
}

}  // namespace
}  // namespace rpqres
