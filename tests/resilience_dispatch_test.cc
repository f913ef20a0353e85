// Tests for the ComputeResilience dispatcher: kAuto routing to the right
// algorithm, the decision variant, the Prp 6.3 mirror identity, and
// structural properties (monotonicity, multiplicity scaling).

#include <gtest/gtest.h>

#include "graphdb/generators.h"
#include "graphdb/graph_db.h"
#include "lang/language.h"
#include "mirror_db.h"
#include "resilience/resilience.h"
#include "util/rng.h"

namespace rpqres {
namespace {

TEST(DispatchTest, RoutesToExpectedAlgorithm) {
  Rng rng(1);
  GraphDb db =
      RandomGraphDb(&rng, 6, 12, {'a', 'b', 'c', 'd', 'e', 'x'}, 2);
  struct Case {
    const char* regex;
    const char* algorithm_substring;
  };
  for (const Case& c : {Case{"ax*b", "local flow"},
                        Case{"a|aa", "local flow"},
                        Case{"ab|bc", "bipartite chain flow"},
                        Case{"abc|be", "one-dangling flow"},
                        Case{"aa", "exact"},
                        Case{"abc|bcd", "exact"}}) {
    Result<ResilienceResult> r = ComputeResilience(
        Language::MustFromRegexString(c.regex), db, Semantics::kSet);
    ASSERT_TRUE(r.ok()) << c.regex << ": " << r.status();
    EXPECT_NE(r->algorithm.find(c.algorithm_substring), std::string::npos)
        << c.regex << " used " << r->algorithm;
  }
}

TEST(DispatchTest, TrivialLanguages) {
  GraphDb db = PathDb("ab");
  Result<ResilienceResult> r = ComputeResilience(
      Language::MustFromRegexString("a*"), db, Semantics::kSet);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->infinite);
  r = ComputeResilience(Language::FromWords({}), db, Semantics::kSet);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->infinite);
  EXPECT_EQ(r->value, 0);
}

TEST(DispatchTest, ExponentialFallbackCanBeDisabled) {
  GraphDb db = PathDb("aa");
  ResilienceOptions options;
  options.allow_exponential = false;
  Result<ResilienceResult> r = ComputeResilience(
      Language::MustFromRegexString("aa"), db, Semantics::kSet, options);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnimplemented);
}

TEST(DispatchTest, DecisionVariant) {
  GraphDb db = PathDb("aaa");  // RES(aa) = 1
  Language aa = Language::MustFromRegexString("aa");
  EXPECT_TRUE(*ResilienceAtMost(aa, db, Semantics::kSet, 1));
  EXPECT_FALSE(*ResilienceAtMost(aa, db, Semantics::kSet, 0));
  // Infinite resilience is never <= k.
  Language star = Language::MustFromRegexString("a*");
  EXPECT_FALSE(*ResilienceAtMost(star, db, Semantics::kSet, 1000000));
}

TEST(DispatchTest, VerifyCatchesBadResults) {
  GraphDb db = PathDb("ab");
  Language lang = Language::MustFromRegexString("ab");
  ResilienceResult bogus;
  bogus.value = 0;
  bogus.algorithm = "bogus";
  // Query still holds with an empty contingency set.
  EXPECT_FALSE(
      VerifyResilienceResult(lang, db, Semantics::kSet, bogus).ok());
  bogus.value = 5;
  bogus.contingency = {0};
  // Cost mismatch.
  EXPECT_FALSE(
      VerifyResilienceResult(lang, db, Semantics::kSet, bogus).ok());
  bogus.contingency = {0, 0};
  // Duplicate ids.
  EXPECT_FALSE(
      VerifyResilienceResult(lang, db, Semantics::kSet, bogus).ok());
}

// Prp 6.3: RES(L, D) = RES(L^R, D^R), for all solver routes.
class MirrorIdentityTest
    : public ::testing::TestWithParam<std::tuple<const char*, int>> {};

TEST_P(MirrorIdentityTest, MirrorPreservesResilience) {
  const auto& [regex, seed] = GetParam();
  Language lang = Language::MustFromRegexString(regex);
  Rng rng(seed * 101);
  GraphDb db = RandomGraphDb(&rng, 5, 11,
                             lang.used_letters().empty()
                                 ? std::vector<char>{'a'}
                                 : lang.used_letters(),
                             3);
  for (Semantics semantics : {Semantics::kSet, Semantics::kBag}) {
    Result<ResilienceResult> direct =
        ComputeResilience(lang, db, semantics);
    Result<ResilienceResult> mirrored =
        ComputeResilience(lang.Mirror(), MirrorOf(db), semantics);
    ASSERT_TRUE(direct.ok()) << direct.status();
    ASSERT_TRUE(mirrored.ok()) << mirrored.status();
    EXPECT_EQ(direct->infinite, mirrored->infinite);
    if (!direct->infinite) {
      EXPECT_EQ(direct->value, mirrored->value) << regex << " " << seed;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MirrorIdentityTest,
    ::testing::Combine(::testing::Values("ax*b", "ab|bc", "abc|be", "aa",
                                         "axb|cxd"),
                       ::testing::Range(1, 6)));

// Structural properties of resilience.
TEST(ResiliencePropertyTest, AddingFactsNeverDecreasesResilience) {
  Language lang = Language::MustFromRegexString("ax*b");
  Rng rng(9);
  GraphDb db = RandomGraphDb(&rng, 5, 8, {'a', 'x', 'b'});
  Capacity previous = 0;
  for (int round = 0; round < 5; ++round) {
    Result<ResilienceResult> r =
        ComputeResilience(lang, db, Semantics::kSet);
    ASSERT_TRUE(r.ok());
    EXPECT_GE(r->value, previous);
    previous = r->value;
    // Add one more fact (monotone growth of D).
    NodeId u = static_cast<NodeId>(rng.NextBelow(db.num_nodes()));
    NodeId v = static_cast<NodeId>(rng.NextBelow(db.num_nodes()));
    char labels[] = {'a', 'x', 'b'};
    db.AddFact(u, labels[rng.NextBelow(3)], v);
  }
}

TEST(ResiliencePropertyTest, ScalingMultiplicitiesScalesBagValue) {
  Language lang = Language::MustFromRegexString("ax*b");
  Rng rng(10);
  GraphDb db = RandomGraphDb(&rng, 5, 10, {'a', 'x', 'b'}, 4);
  GraphDb scaled;
  for (NodeId v = 0; v < db.num_nodes(); ++v) scaled.AddNode();
  for (FactId f = 0; f < db.num_facts(); ++f) {
    scaled.AddFact(db.fact(f).source, db.fact(f).label, db.fact(f).target,
                   db.multiplicity(f) * 7);
  }
  Result<ResilienceResult> base = ComputeResilience(lang, db, Semantics::kBag);
  Result<ResilienceResult> big =
      ComputeResilience(lang, scaled, Semantics::kBag);
  ASSERT_TRUE(base.ok() && big.ok());
  EXPECT_EQ(big->value, 7 * base->value);
}

TEST(ResiliencePropertyTest, RemovingWitnessGivesZeroResilience) {
  Language lang = Language::MustFromRegexString("ab|bc");
  Rng rng(11);
  GraphDb db = RandomGraphDb(&rng, 6, 12, {'a', 'b', 'c'});
  Result<ResilienceResult> r = ComputeResilience(lang, db, Semantics::kSet);
  ASSERT_TRUE(r.ok());
  GraphDb after = db.RemoveFacts(r->contingency);
  Result<ResilienceResult> again =
      ComputeResilience(lang, after, Semantics::kSet);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->value, 0);
}

}  // namespace
}  // namespace rpqres
