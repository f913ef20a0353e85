// Tests for Proposition 7.6's BCL resilience solver: hand-checked
// instances, forward/reversed word wiring, single-letter preprocessing,
// and randomized cross-checks against brute force.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "graphdb/generators.h"
#include "graphdb/graph_db.h"
#include "graphdb/label_index.h"
#include "lang/language.h"
#include "resilience/bcl_resilience.h"
#include "resilience/exact.h"
#include "resilience/resilience.h"
#include "util/rng.h"

namespace rpqres {
namespace {

ResilienceResult MustSolve(const char* regex, const GraphDb& db,
                           Semantics semantics) {
  Result<ResilienceResult> r = SolveBclResilience(
      Language::MustFromRegexString(regex), db, semantics);
  EXPECT_TRUE(r.ok()) << r.status();
  return *r;
}

TEST(BclResilienceTest, SingleMatchPerWord) {
  // ab|bc on a path a b c: the b-fact hits both matches.
  GraphDb db = PathDb("abc");
  ResilienceResult r = MustSolve("ab|bc", db, Semantics::kSet);
  EXPECT_EQ(r.value, 1);
  ASSERT_EQ(r.contingency.size(), 1u);
  EXPECT_EQ(db.fact(r.contingency[0]).label, 'b');
}

TEST(BclResilienceTest, DisjointMatches) {
  GraphDb db;
  // Two separate ab paths and one bc path.
  for (int i = 0; i < 2; ++i) {
    NodeId u = db.AddNode(), v = db.AddNode(), w = db.AddNode();
    db.AddFact(u, 'a', v);
    db.AddFact(v, 'b', w);
  }
  NodeId u = db.AddNode(), v = db.AddNode(), w = db.AddNode();
  db.AddFact(u, 'b', v);
  db.AddFact(v, 'c', w);
  ResilienceResult r = MustSolve("ab|bc", db, Semantics::kSet);
  EXPECT_EQ(r.value, 3);
}

TEST(BclResilienceTest, ReversedWordWiring) {
  // bc is a *reversed* word under the bipartition of ab|bc; check a pure
  // bc instance still cuts correctly with weights.
  GraphDb db;
  NodeId u = db.AddNode(), v = db.AddNode(), w = db.AddNode();
  db.AddFact(u, 'b', v, 5);
  db.AddFact(v, 'c', w, 2);
  ResilienceResult r = MustSolve("ab|bc", db, Semantics::kBag);
  EXPECT_EQ(r.value, 2);
  EXPECT_EQ(db.fact(r.contingency[0]).label, 'c');
}

TEST(BclResilienceTest, FourWordCycleLanguage) {
  // Example 7.3's BCL with an even endpoint cycle.
  GraphDb db = PathDb("axyb");
  ResilienceResult r =
      MustSolve("axyb|bztc|cd|dea", db, Semantics::kSet);
  EXPECT_EQ(r.value, 1);
}

TEST(BclResilienceTest, SingleLetterWordsForced) {
  // IF(a|ab|bc)… use a chain language with a one-letter word directly:
  // L = a|bc: every a-fact must go; bc matches cut at min side.
  GraphDb db;
  NodeId u = db.AddNode(), v = db.AddNode(), w = db.AddNode();
  db.AddFact(u, 'a', v, 4);
  db.AddFact(v, 'a', u, 2);
  db.AddFact(u, 'b', v, 3);
  db.AddFact(v, 'c', w, 1);
  ResilienceResult r = MustSolve("a|bc", db, Semantics::kBag);
  EXPECT_EQ(r.value, 4 + 2 + 1);
  Status check = VerifyResilienceResult(
      Language::MustFromRegexString("a|bc"), db, Semantics::kBag, r);
  EXPECT_TRUE(check.ok()) << check;
}

TEST(BclResilienceTest, EpsilonIsInfinite) {
  GraphDb db = PathDb("ab");
  ResilienceResult r = MustSolve("(ab|bc)?", db, Semantics::kSet);
  EXPECT_TRUE(r.infinite);
}

TEST(BclResilienceTest, EmptyLanguageIsZero) {
  GraphDb db = PathDb("ab");
  Language empty = Language::FromWords({});
  Result<ResilienceResult> r =
      SolveBclResilience(empty, db, Semantics::kSet);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->value, 0);
}

TEST(BclResilienceTest, RejectsNonChain) {
  GraphDb db = PathDb("aa");
  Result<ResilienceResult> r = SolveBclResilience(
      Language::MustFromRegexString("aa"), db, Semantics::kSet);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
}

TEST(BclResilienceTest, RejectsNonBipartiteChain) {
  GraphDb db = PathDb("abc");
  Result<ResilienceResult> r = SolveBclResilience(
      Language::MustFromRegexString("ab|bc|ca"), db, Semantics::kSet);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("bipartite"), std::string::npos);
}

TEST(BclResilienceTest, InertLabelsIgnored) {
  GraphDb db = PathDb("ab");
  NodeId u = db.AddNode(), v = db.AddNode();
  db.AddFact(u, 'z', v, 100);
  ResilienceResult r = MustSolve("ab|bc", db, Semantics::kBag);
  EXPECT_EQ(r.value, 1);
}

struct BclCase {
  const char* regex;
  std::vector<char> labels;
};

class BclVsBruteForceTest
    : public ::testing::TestWithParam<std::tuple<BclCase, int>> {};

TEST_P(BclVsBruteForceTest, AgreesWithBruteForce) {
  const auto& [c, seed] = GetParam();
  Language lang = Language::MustFromRegexString(c.regex);
  Rng rng(seed * 31);
  GraphDb db = RandomGraphDb(&rng, 5, 11, c.labels, 3);
  for (Semantics semantics : {Semantics::kSet, Semantics::kBag}) {
    Result<ResilienceResult> flow = SolveBclResilience(lang, db, semantics);
    Result<ResilienceResult> brute =
        SolveBruteForceResilience(lang, db, semantics);
    ASSERT_TRUE(flow.ok()) << flow.status();
    ASSERT_TRUE(brute.ok()) << brute.status();
    EXPECT_EQ(flow->value, brute->value)
        << c.regex << " seed " << seed << "\n"
        << db.ToString();
    Status check = VerifyResilienceResult(lang, db, semantics, *flow);
    EXPECT_TRUE(check.ok()) << check;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BclVsBruteForceTest,
    ::testing::Combine(
        ::testing::Values(
            BclCase{"ab|bc", {'a', 'b', 'c'}},
            BclCase{"axb|byc", {'a', 'b', 'c', 'x', 'y'}},
            BclCase{"ab|cd", {'a', 'b', 'c', 'd'}},
            BclCase{"a|bc", {'a', 'b', 'c'}},
            BclCase{"axyb|bztc|cd|dea",
                    {'a', 'b', 'c', 'd', 'e', 'x', 'y', 'z', 't'}}),
        ::testing::Range(1, 9)));

// --- Prepared plan vs forced method vs brute force --------------------------

class BclPlanParityTest : public ::testing::TestWithParam<const char*> {};

// The kAuto plan (with and without a LabelIndex), the forced kBclFlow
// method and brute force agree over many seeds, on databases with
// exogenous facts and letters outside the language; every witness
// verifies.
TEST_P(BclPlanParityTest, PlanForcedAndBruteForceAgree) {
  const char* regex = GetParam();
  Language lang = Language::MustFromRegexString(regex);
  Result<ResiliencePlan> plan = PlanResilience(lang);
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_EQ(plan->method, ResilienceMethod::kBclFlow);
  ASSERT_TRUE(plan->bcl.has_value());
  ResilienceOptions forced;
  forced.method = ResilienceMethod::kBclFlow;
  std::vector<char> labels = lang.used_letters();
  labels.push_back('q');  // outside the language
  for (int seed = 1; seed <= 40; ++seed) {
    Rng rng(seed * 17 + 3);
    GraphDb db = RandomGraphDb(&rng, 5, 9 + seed % 6, labels, 3);
    for (FactId f = 0; f < db.num_facts(); ++f) {
      if (rng.NextChance(1, 6)) db.SetExogenous(f);
    }
    SCOPED_TRACE(std::string(regex) + " seed " + std::to_string(seed) +
                 "\n" + db.ToString());
    LabelIndex index(db);
    for (Semantics semantics : {Semantics::kSet, Semantics::kBag}) {
      Result<ResilienceResult> brute =
          SolveBruteForceResilience(lang, db, semantics);
      ASSERT_TRUE(brute.ok()) << brute.status();
      std::vector<std::pair<std::string, Result<ResilienceResult>>> answers;
      answers.emplace_back("plan",
                           ComputeResilienceWithPlan(*plan, db, semantics));
      answers.emplace_back(
          "plan, indexed",
          ComputeResilienceWithPlan(*plan, db, semantics, {}, &index));
      answers.emplace_back("forced method",
                           ComputeResilience(lang, db, semantics, forced));
      for (const auto& [path, answer] : answers) {
        SCOPED_TRACE(path + (semantics == Semantics::kSet ? " set" : " bag"));
        ASSERT_TRUE(answer.ok()) << answer.status();
        EXPECT_EQ(answer->infinite, brute->infinite);
        if (!brute->infinite) EXPECT_EQ(answer->value, brute->value);
        Status check = VerifyResilienceResult(lang, db, semantics, *answer);
        EXPECT_TRUE(check.ok()) << check;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Languages, BclPlanParityTest,
                         ::testing::Values("ab|bc", "ab|bc|d", "axb|byc",
                                           "axyb|bztc|cd|dea"));

}  // namespace
}  // namespace rpqres
