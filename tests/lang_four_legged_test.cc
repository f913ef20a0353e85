// Tests for four-legged languages (Section 5.1): witness search, the
// stable-legs upgrade of Lemma 5.5, and the paper's Example 5.2.

#include <gtest/gtest.h>

#include "lang/four_legged.h"
#include "lang/infix_free.h"
#include "lang/language.h"

namespace rpqres {
namespace {

void ExpectValidWitness(const Language& lang,
                        const FourLeggedWitness& w) {
  EXPECT_NE(w.body, '\0');
  EXPECT_FALSE(w.alpha.empty());
  EXPECT_FALSE(w.beta.empty());
  EXPECT_FALSE(w.gamma.empty());
  EXPECT_FALSE(w.delta.empty());
  EXPECT_TRUE(lang.Contains(w.FirstWord()));
  EXPECT_TRUE(lang.Contains(w.SecondWord()));
  EXPECT_FALSE(lang.Contains(w.CrossWord()));
}

TEST(FourLeggedTest, Example52Positive) {
  // Example 5.2: axb|cxd and axb|cxd|cxb are four-legged, and so is
  // axb|axd|cxd, where a and c swap roles.
  for (const char* regex : {"axb|cxd", "axb|cxd|cxb", "axb|axd|cxd"}) {
    Language lang = Language::MustFromRegexString(regex);
    std::optional<FourLeggedWitness> w = *FindFourLeggedWitness(lang);
    ASSERT_TRUE(w.has_value()) << regex;
    ExpectValidWitness(lang, *w);
  }
}

TEST(FourLeggedTest, Example52Negative) {
  // Example 5.2: aa and ab|bc are non-local but NOT four-legged.
  for (const char* regex : {"aa", "ab|bc"}) {
    EXPECT_FALSE(
        FindFourLeggedWitness(Language::MustFromRegexString(regex))
            ->has_value())
        << regex;
  }
}

TEST(FourLeggedTest, LocalLanguagesNeverFourLegged) {
  for (const char* regex : {"ax*b", "ab|ad|cd", "abc|abd"}) {
    EXPECT_FALSE(
        FindFourLeggedWitness(Language::MustFromRegexString(regex))
            ->has_value())
        << regex;
  }
}

TEST(FourLeggedTest, InfiniteFourLegged) {
  // ax*b|cxd: witness a·x·b / c·x·d with cross a·x·d ∉ L.
  Language lang = Language::MustFromRegexString("ax*b|cxd");
  std::optional<FourLeggedWitness> w = *FindFourLeggedWitness(lang);
  ASSERT_TRUE(w.has_value());
  ExpectValidWitness(lang, *w);
}

TEST(FourLeggedTest, PreferredWitnessIsStable) {
  // The exact test always returns a stable witness (Lemma 5.5).
  Language lang = Language::MustFromRegexString("axb|cxd");
  std::optional<FourLeggedWitness> w = *FindFourLeggedWitness(lang);
  ASSERT_TRUE(w.has_value());
  EXPECT_TRUE(w->stable);
  EXPECT_FALSE(SomeInfixInLanguage(lang, w->CrossWord()));
}

TEST(FourLeggedTest, MakeStableLegsOnAlreadyStable) {
  Language lang = Language::MustFromRegexString("axb|cxd");
  std::optional<FourLeggedWitness> w = *FindFourLeggedWitness(lang);
  ASSERT_TRUE(w && w->stable);
  FourLeggedWitness stable = MakeStableLegs(lang, *w);
  EXPECT_TRUE(stable.stable);
  ExpectValidWitness(lang, stable);
}

TEST(FourLeggedTest, MakeStableLegsUpgradesUnstable) {
  // L = abxcd|efxgh|fxc: legs ab/cd/ef/gh with body x are four-legged but
  // unstable (fxc ∈ L is an infix of the cross word abxgh? no — build a
  // genuinely unstable witness instead: cross ef·x·cd has infix fxc ∈ L).
  Language lang = Language::MustFromRegexString("abxcd|efxgh|fxc");
  ASSERT_TRUE(lang.Contains("abxcd"));
  ASSERT_TRUE(lang.Contains("efxgh"));
  FourLeggedWitness unstable;
  unstable.body = 'x';
  unstable.alpha = "ef";
  unstable.beta = "gh";
  unstable.gamma = "ab";
  unstable.delta = "cd";
  // Cross = efxcd ∉ L, but its strict infix fxc ∈ L, so it is not stable.
  ASSERT_FALSE(lang.Contains(unstable.CrossWord()));
  ASSERT_TRUE(SomeInfixInLanguage(lang, unstable.CrossWord()));
  FourLeggedWitness stable = MakeStableLegs(lang, unstable);
  EXPECT_TRUE(stable.stable);
  ExpectValidWitness(lang, stable);
  EXPECT_FALSE(SomeInfixInLanguage(lang, stable.CrossWord()));
}

TEST(FourLeggedTest, SomeInfixInLanguage) {
  Language lang = Language::MustFromRegexString("ab|cd");
  EXPECT_TRUE(SomeInfixInLanguage(lang, "xxabyy"));
  EXPECT_TRUE(SomeInfixInLanguage(lang, "cd"));
  EXPECT_FALSE(SomeInfixInLanguage(lang, "ba"));
  EXPECT_FALSE(SomeInfixInLanguage(lang, ""));
}

class FourLeggedConsistencyTest
    : public ::testing::TestWithParam<const char*> {};

TEST_P(FourLeggedConsistencyTest, WitnessIsValidWhenFound) {
  Language lang = Language::MustFromRegexString(GetParam());
  std::optional<FourLeggedWitness> w = *FindFourLeggedWitness(lang);
  if (w) {
    ExpectValidWitness(lang, *w);
    FourLeggedWitness stable = MakeStableLegs(lang, *w);
    EXPECT_TRUE(stable.stable);
    ExpectValidWitness(lang, stable);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, FourLeggedConsistencyTest,
                         ::testing::Values("axb|cxd", "axb|cxd|cxb",
                                           "ax*b|cxd", "b(aa)*d",
                                           "abxcd|efxgh", "be*c|de*f",
                                           "axxb|cxxd", "abc|bcd",
                                           "abcd|be|ef"));

}  // namespace
}  // namespace rpqres
