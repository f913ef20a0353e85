// Tests for star-freeness via syntactic-monoid aperiodicity (Section 5.2):
// classic positive/negative examples, the monoid size accessor, and the
// Lem 5.6 connection (non-star-free infix-free languages are four-legged).

#include <gtest/gtest.h>

#include "lang/four_legged.h"
#include "lang/infix_free.h"
#include "lang/language.h"
#include "lang/star_free.h"

namespace rpqres {
namespace {

TEST(StarFreeTest, PositiveExamples) {
  // Star-free despite the * operator: these are aperiodic.
  for (const char* regex :
       {"ax*b", "a", "ab|cd", "a(b|c)*d", "x*", "a*b*", "ab|ad|cd",
        "ax*b|cxd"}) {
    Result<bool> star_free =
        IsStarFree(Language::MustFromRegexString(regex));
    ASSERT_TRUE(star_free.ok()) << regex;
    EXPECT_TRUE(*star_free) << regex;
  }
}

TEST(StarFreeTest, NegativeExamples) {
  // Letter-counting languages are the canonical non-aperiodic ones.
  for (const char* regex :
       {"(aa)*", "b(aa)*d", "(aaa)*", "c(aa)*d", "(a(bb)*a)*"}) {
    Result<bool> star_free =
        IsStarFree(Language::MustFromRegexString(regex));
    ASSERT_TRUE(star_free.ok()) << regex;
    EXPECT_FALSE(*star_free) << regex;
  }
  // (ab)* on the other hand IS star-free (no aa/bb infix, a-start,
  // b-end): the aperiodicity test must accept it.
  EXPECT_TRUE(*IsStarFree(Language::MustFromRegexString("(ab)*")));
  EXPECT_TRUE(*IsStarFree(Language::MustFromRegexString("a(ba)*b")));
}

TEST(StarFreeTest, FiniteLanguagesAlwaysStarFree) {
  for (const char* regex : {"aa", "abcd|be|ef", "abca|cab", "ab|bc|ca"}) {
    EXPECT_TRUE(*IsStarFree(Language::MustFromRegexString(regex)))
        << regex;
  }
}

TEST(StarFreeTest, MonoidSize) {
  // The monoid of a finite language's minimal DFA is small and computable.
  Result<size_t> size =
      TransitionMonoidSize(Language::MustFromRegexString("ab"));
  ASSERT_TRUE(size.ok());
  EXPECT_GE(*size, 2u);
  // Cap errors are reported, not fatal.
  Result<size_t> capped =
      TransitionMonoidSize(Language::MustFromRegexString("(ab|ba)*"), 2);
  EXPECT_FALSE(capped.ok());
  EXPECT_EQ(capped.status().code(), StatusCode::kOutOfRange);
}

TEST(StarFreeTest, Lemma56NonStarFreeImpliesFourLegged) {
  // Lem 5.6: infix-free + non-star-free ⇒ four-legged, so the exact test
  // finds a witness for the classic examples.
  for (const char* regex : {"b(aa)*d", "b(aaa)*d", "c(aa)*d"}) {
    Language lang = Language::MustFromRegexString(regex);
    Language ifl = InfixFreeSublanguage(lang);
    ASSERT_FALSE(*IsStarFree(ifl)) << regex;
    std::optional<FourLeggedWitness> witness = *FindFourLeggedWitness(ifl);
    ASSERT_TRUE(witness.has_value()) << regex;
    EXPECT_TRUE(ifl.Contains(witness->FirstWord()));
    EXPECT_TRUE(ifl.Contains(witness->SecondWord()));
    EXPECT_FALSE(ifl.Contains(witness->CrossWord()));
  }
}

}  // namespace
}  // namespace rpqres
