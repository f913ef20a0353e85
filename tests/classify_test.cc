// Tests for the Figure 1 classifier, parameterized over the full example
// set of the paper's figure.

#include <gtest/gtest.h>

#include "classify/classifier.h"
#include "lang/four_legged.h"
#include "lang/language.h"

namespace rpqres {
namespace {

struct Fig1Case {
  const char* regex;
  ComplexityClass expected;
  const char* rule_substring;
};

class Fig1Test : public ::testing::TestWithParam<Fig1Case> {};

TEST_P(Fig1Test, MatchesPaperColumn) {
  const Fig1Case& c = GetParam();
  Language lang = Language::MustFromRegexString(c.regex);
  Result<Classification> classification = ClassifyResilience(lang);
  ASSERT_TRUE(classification.ok()) << classification.status();
  EXPECT_EQ(classification->complexity, c.expected)
      << c.regex << " classified as " << classification->rule;
  EXPECT_NE(classification->rule.find(c.rule_substring), std::string::npos)
      << c.regex << ": " << classification->rule;
}

INSTANTIATE_TEST_SUITE_P(
    Figure1, Fig1Test,
    ::testing::Values(
        // PTIME column.
        Fig1Case{"abc|abd", ComplexityClass::kPtime, "local"},
        Fig1Case{"ab|ad|cd", ComplexityClass::kPtime, "local"},
        Fig1Case{"ax*b", ComplexityClass::kPtime, "local"},
        Fig1Case{"ab|bc", ComplexityClass::kPtime, "bipartite chain"},
        Fig1Case{"axb|byc", ComplexityClass::kPtime, "bipartite chain"},
        Fig1Case{"abc|be", ComplexityClass::kPtime, "one-dangling"},
        Fig1Case{"abcd|ce", ComplexityClass::kPtime, "one-dangling"},
        Fig1Case{"abcd|be", ComplexityClass::kPtime, "one-dangling"},
        Fig1Case{"ax*b|xd", ComplexityClass::kPtime, "one-dangling"},
        // NP-hard column.
        Fig1Case{"axb|cxd", ComplexityClass::kNpHard, "four-legged"},
        Fig1Case{"ax*b|cxd", ComplexityClass::kNpHard, "four-legged"},
        Fig1Case{"b(aa)*d", ComplexityClass::kNpHard, "four-legged"},
        Fig1Case{"aa", ComplexityClass::kNpHard, "repeated-letter"},
        Fig1Case{"aaaa", ComplexityClass::kNpHard, "repeated-letter"},
        Fig1Case{"abca|cab", ComplexityClass::kNpHard, "repeated-letter"},
        Fig1Case{"ab|bc|ca", ComplexityClass::kNpHard, "Prp 7.4"},
        Fig1Case{"abcd|be|ef", ComplexityClass::kNpHard, "Prp 7.11"},
        Fig1Case{"abcd|bef", ComplexityClass::kNpHard, "Prp 7.11"},
        // Unclassified column.
        Fig1Case{"abc|bcd", ComplexityClass::kUnclassified, "no paper"},
        Fig1Case{"abc|bef", ComplexityClass::kUnclassified, "no paper"},
        Fig1Case{"ab*c|ba", ComplexityClass::kUnclassified, "no paper"},
        Fig1Case{"ab*d|ac*d|bc", ComplexityClass::kUnclassified,
                 "no paper"},
        // Exact four-leggedness: a language whose shortest witness has 15
        // letters, a non-star-free language (four-legged by Lem 5.6), and
        // an infinite language proved not four-legged.
        Fig1Case{"zy*(abcdefgxhijklm|nopqrstxuvw)", ComplexityClass::kNpHard,
                 "four-legged"},
        Fig1Case{"b(aaaaaaaaaaaaa)*d", ComplexityClass::kNpHard,
                 "four-legged"},
        Fig1Case{"f(c|e)*bb", ComplexityClass::kUnclassified, "no paper"}));

TEST(ClassifierTest, TrivialLanguages) {
  Result<Classification> c =
      ClassifyResilience(Language::MustFromRegexString("a*"));
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->complexity, ComplexityClass::kTrivial);
  c = ClassifyResilience(Language::FromWords({}));
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->complexity, ComplexityClass::kTrivial);
}

TEST(ClassifierTest, ClassifiesOnInfixFreeSublanguage) {
  // L = a|aa: IF = a, local → PTIME even though L itself is not local.
  Result<Classification> c =
      ClassifyResilience(Language::MustFromRegexString("a|aa"));
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->complexity, ComplexityClass::kPtime);
  EXPECT_EQ(c->if_language, "a");
}

TEST(ClassifierTest, RenamedHardLanguagesDetected) {
  // xy|yz|zx is ab|bc|ca up to renaming; qrst|rw is abcd|be renamed
  // (one-dangling, PTIME).
  Result<Classification> c =
      ClassifyResilience(Language::MustFromRegexString("xy|yz|zx"));
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->complexity, ComplexityClass::kNpHard);

  c = ClassifyResilience(Language::MustFromRegexString("qrst|rw"));
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->complexity, ComplexityClass::kPtime);
}

TEST(ClassifierTest, NonBipartiteChainBeyondThePaper) {
  // The paper proves only ab|bc|ca hard and conjectures the rest; the
  // classifier certifies further non-bipartite chains via verified
  // gadgets (Prp 4.11).
  for (const char* regex : {"axb|byc|cza", "ab|bc|cd|de|ea"}) {
    Result<Classification> c =
        ClassifyResilience(Language::MustFromRegexString(regex));
    ASSERT_TRUE(c.ok()) << regex;
    EXPECT_EQ(c->complexity, ComplexityClass::kNpHard) << regex;
    EXPECT_NE(c->rule.find("verified gadget"), std::string::npos)
        << regex << ": " << c->rule;
  }
}

TEST(ClassifierTest, NeutralLetterDichotomy) {
  // Prp 5.7's hard side: L2 = e*(a|c)e*(a|d)e* has neutral e and
  // non-local IF containing aa — classified NP-hard. (The repeated-letter
  // rule does not fire because IF is infinite, so the classifier must use
  // four-legged/neutral-letter reasoning.)
  Result<Classification> c = ClassifyResilience(
      Language::MustFromRegexString("e*(a|c)e*(a|d)e*"));
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->complexity, ComplexityClass::kNpHard) << c->rule;
}

TEST(ClassifierTest, FourLeggedTestFailsCleanlyAboveItsStateCap) {
  // c(a|b)*a(a|b)^k c is infix-free, and its minimal DFA remembers the last
  // k+1 letters: 2^(k+1)+3 states. Just under the cap it is four-legged;
  // just over it, classification fails with OutOfRange instead of growing
  // the pair search quadratically.
  auto language = [](int k) {
    std::string regex = "c(a|b)*a";
    for (int i = 0; i < k; ++i) regex += "(a|b)";
    return Language::MustFromRegexString(regex + "c");
  };
  int k = 1;
  while (language(k + 1).min_dfa().num_states() <= kMaxFourLeggedStates) ++k;

  Result<Classification> below = ClassifyResilience(language(k));
  ASSERT_TRUE(below.ok()) << below.status();
  EXPECT_EQ(below->complexity, ComplexityClass::kNpHard);
  EXPECT_NE(below->rule.find("four-legged"), std::string::npos) << below->rule;

  Result<Classification> above = ClassifyResilience(language(k + 1));
  ASSERT_FALSE(above.ok());
  EXPECT_EQ(above.status().code(), StatusCode::kOutOfRange) << above.status();
}

TEST(ClassifierTest, ReportRendering) {
  Language lang = Language::MustFromRegexString("ax*b");
  Result<Classification> c = ClassifyResilience(lang);
  ASSERT_TRUE(c.ok());
  std::string report = ClassificationReport(lang, *c);
  EXPECT_NE(report.find("ax*b"), std::string::npos);
  EXPECT_NE(report.find("PTIME"), std::string::npos);
}

TEST(ClassifierTest, ComplexityClassNames) {
  EXPECT_STREQ(ComplexityClassName(ComplexityClass::kPtime), "PTIME");
  EXPECT_STREQ(ComplexityClassName(ComplexityClass::kNpHard), "NP-hard");
  EXPECT_STREQ(ComplexityClassName(ComplexityClass::kUnclassified),
               "UNCLASSIFIED");
  EXPECT_STREQ(ComplexityClassName(ComplexityClass::kTrivial), "trivial");
}

}  // namespace
}  // namespace rpqres
