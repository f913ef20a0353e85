// Tests for Proposition 7.9's one-dangling resilience solver: the
// database/language rewrite, κ accounting, signed multiplicities, mirror
// handling, and randomized cross-checks against brute force.

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "graphdb/generators.h"
#include "graphdb/graph_db.h"
#include "graphdb/label_index.h"
#include "lang/infix_free.h"
#include "lang/language.h"
#include "lang/one_dangling.h"
#include "resilience/exact.h"
#include "resilience/one_dangling_resilience.h"
#include "resilience/resilience.h"
#include "util/rng.h"

namespace rpqres {
namespace {

ResilienceResult MustSolve(const char* regex, const GraphDb& db,
                           Semantics semantics) {
  Result<ResilienceResult> r = SolveOneDanglingResilience(
      Language::MustFromRegexString(regex), db, semantics);
  EXPECT_TRUE(r.ok()) << r.status();
  return *r;
}

TEST(OneDanglingResilienceTest, PureXyPair) {
  // L = xy alone on a single x→y walk: cut one fact.
  GraphDb db = PathDb("xy");
  ResilienceResult r = MustSolve("xy", db, Semantics::kSet);
  EXPECT_EQ(r.value, 1);
}

TEST(OneDanglingResilienceTest, XyChoosesCheaperSide) {
  // Star of x-facts into v (costs 1+1) and one expensive y out (cost 5):
  // cutting the x side wins; and vice versa.
  GraphDb db;
  NodeId a = db.AddNode(), b = db.AddNode(), v = db.AddNode(),
         w = db.AddNode();
  db.AddFact(a, 'x', v, 1);
  db.AddFact(b, 'x', v, 1);
  db.AddFact(v, 'y', w, 5);
  ResilienceResult r = MustSolve("xy", db, Semantics::kBag);
  EXPECT_EQ(r.value, 2);
  EXPECT_EQ(r.contingency.size(), 2u);

  GraphDb db2;
  NodeId a2 = db2.AddNode(), v2 = db2.AddNode(), w2 = db2.AddNode(),
         u2 = db2.AddNode();
  db2.AddFact(a2, 'x', v2, 5);
  db2.AddFact(v2, 'y', w2, 1);
  db2.AddFact(v2, 'y', u2, 1);
  ResilienceResult r2 = MustSolve("xy", db2, Semantics::kBag);
  EXPECT_EQ(r2.value, 2);
}

TEST(OneDanglingResilienceTest, BaseAndDanglingInteract) {
  // abc|be: the b-fact participates in both abc and be matches.
  GraphDb db;
  NodeId n0 = db.AddNode(), n1 = db.AddNode(), n2 = db.AddNode(),
         n3 = db.AddNode(), n4 = db.AddNode();
  db.AddFact(n0, 'a', n1);
  db.AddFact(n1, 'b', n2);
  db.AddFact(n2, 'c', n3);
  db.AddFact(n2, 'e', n4);
  // Cutting the single b-fact falsifies both disjuncts.
  ResilienceResult r = MustSolve("abc|be", db, Semantics::kSet);
  EXPECT_EQ(r.value, 1);
  ASSERT_EQ(r.contingency.size(), 1u);
  EXPECT_EQ(db.fact(r.contingency[0]).label, 'b');
}

TEST(OneDanglingResilienceTest, XInBaseCaseAxStarBXd) {
  // ax*b|xd: x-facts serve both the Kleene part and the dangling xd.
  GraphDb db;
  NodeId s = db.AddNode(), u = db.AddNode(), v = db.AddNode(),
         t = db.AddNode(), d = db.AddNode();
  db.AddFact(s, 'a', u);
  db.AddFact(u, 'x', v);
  db.AddFact(v, 'b', t);
  db.AddFact(v, 'd', d);
  // Cutting the x-fact falsifies axb and xd at once (ab is not a walk:
  // a ends at u, b starts at v).
  ResilienceResult r = MustSolve("ax*b|xd", db, Semantics::kSet);
  EXPECT_EQ(r.value, 1);
  ASSERT_EQ(r.contingency.size(), 1u);
  EXPECT_EQ(db.fact(r.contingency[0]).label, 'x');
}

TEST(OneDanglingResilienceTest, MirrorOnlyDecomposition) {
  // abc|ea: only x = e is fresh (y = a is in the base), so the solver must
  // go through the mirror reduction of Prp 6.3.
  GraphDb db;
  NodeId n0 = db.AddNode(), n1 = db.AddNode(), n2 = db.AddNode(),
         n3 = db.AddNode(), n4 = db.AddNode();
  db.AddFact(n0, 'a', n1);
  db.AddFact(n1, 'b', n2);
  db.AddFact(n2, 'c', n3);
  db.AddFact(n4, 'e', n0);  // e into the a-source: walk e a exists
  ResilienceResult r = MustSolve("abc|ea", db, Semantics::kSet);
  EXPECT_EQ(r.value, 1);
  ASSERT_EQ(r.contingency.size(), 1u);
  EXPECT_EQ(db.fact(r.contingency[0]).label, 'a');
  Status check = VerifyResilienceResult(
      Language::MustFromRegexString("abc|ea"), db, Semantics::kSet, r);
  EXPECT_TRUE(check.ok()) << check;
}

TEST(OneDanglingResilienceTest, RejectsNonOneDangling) {
  GraphDb db = PathDb("aa");
  Result<ResilienceResult> r = SolveOneDanglingResilience(
      Language::MustFromRegexString("aa"), db, Semantics::kSet);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
}

TEST(OneDanglingResilienceTest, XySelfLoopNode) {
  // x and y edges around the same node, including a y back-edge.
  GraphDb db;
  NodeId u = db.AddNode(), v = db.AddNode();
  db.AddFact(u, 'x', v, 2);
  db.AddFact(v, 'y', u, 3);
  ResilienceResult r = MustSolve("xy", db, Semantics::kBag);
  EXPECT_EQ(r.value, 2);
}

struct OneDanglingCase {
  const char* regex;
  std::vector<char> labels;
};

class OneDanglingVsBruteForceTest
    : public ::testing::TestWithParam<std::tuple<OneDanglingCase, int>> {};

TEST_P(OneDanglingVsBruteForceTest, AgreesWithBruteForce) {
  const auto& [c, seed] = GetParam();
  Language lang = Language::MustFromRegexString(c.regex);
  Rng rng(seed * 77 + 5);
  GraphDb db = RandomGraphDb(&rng, 5, 11, c.labels, 3);
  for (Semantics semantics : {Semantics::kSet, Semantics::kBag}) {
    Result<ResilienceResult> flow =
        SolveOneDanglingResilience(lang, db, semantics);
    Result<ResilienceResult> brute =
        SolveBruteForceResilience(lang, db, semantics);
    ASSERT_TRUE(flow.ok()) << flow.status();
    ASSERT_TRUE(brute.ok()) << brute.status();
    EXPECT_EQ(flow->value, brute->value)
        << c.regex << " seed " << seed << " semantics "
        << (semantics == Semantics::kSet ? "set" : "bag") << "\n"
        << db.ToString();
    Status check = VerifyResilienceResult(lang, db, semantics, *flow);
    EXPECT_TRUE(check.ok()) << check;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, OneDanglingVsBruteForceTest,
    ::testing::Combine(
        ::testing::Values(
            OneDanglingCase{"xy", {'x', 'y', 'z'}},
            OneDanglingCase{"abc|be", {'a', 'b', 'c', 'e'}},
            OneDanglingCase{"abcd|be", {'a', 'b', 'c', 'd', 'e'}},
            OneDanglingCase{"ax*b|xd", {'a', 'x', 'b', 'd'}},
            OneDanglingCase{"abc|ea", {'a', 'b', 'c', 'e'}},
            OneDanglingCase{"abcd|ce", {'a', 'b', 'c', 'd', 'e'}},
            OneDanglingCase{"ab|bc", {'a', 'b', 'c'}}),
        ::testing::Range(1, 11)));

// --- Prepared plan vs forced method vs brute force --------------------------

// Solves `db` every way the library offers and checks each answer against
// brute force, verifying every witness.
void ExpectAllPathsAgree(const Language& lang, const OneDanglingPlan& plan,
                         const GraphDb& db, const std::string& context) {
  SCOPED_TRACE(context + "\n" + db.ToString());
  Result<ResiliencePlan> auto_plan = PlanResilience(lang);
  ASSERT_TRUE(auto_plan.ok()) << auto_plan.status();
  ASSERT_EQ(auto_plan->method, ResilienceMethod::kOneDanglingFlow);
  LabelIndex index(db);
  ResilienceOptions forced;
  forced.method = ResilienceMethod::kOneDanglingFlow;
  for (Semantics semantics : {Semantics::kSet, Semantics::kBag}) {
    Result<ResilienceResult> brute =
        SolveBruteForceResilience(lang, db, semantics);
    ASSERT_TRUE(brute.ok()) << brute.status();
    std::vector<std::pair<std::string, Result<ResilienceResult>>> answers;
    answers.emplace_back(
        "oriented plan",
        SolveOneDanglingResilienceWithPlan(plan, db, semantics, index));
    answers.emplace_back("auto plan",
                         ComputeResilienceWithPlan(*auto_plan, db, semantics));
    answers.emplace_back(
        "auto plan, indexed",
        ComputeResilienceWithPlan(*auto_plan, db, semantics, {}, &index));
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

struct OrientationCase {
  const char* regex;
  bool mirrored_db;  // the orientation the plan must choose
};

class OneDanglingPlanParityTest
    : public ::testing::TestWithParam<OrientationCase> {};

// Both orientations of Prp 7.9 + Prp 6.3, each on a language and its
// mirror: abc|be and bx*a|ae have y fresh and are read as stored; ax*b|ea
// and cba|eb have only x = e fresh, so their databases are read mirrored.
// Mirror languages use the same letters, so they see the same databases.
// Databases mix in exogenous base facts, facts labelled with the plan's
// fresh letter z, a letter outside the language, and versioned overlays
// with tombstones.
TEST_P(OneDanglingPlanParityTest, PlanForcedAndBruteForceAgree) {
  const OrientationCase& c = GetParam();
  Language lang = Language::MustFromRegexString(c.regex);
  Language ifl = InfixFreeSublanguage(lang);
  std::optional<OneDanglingDecomposition> decomposition =
      FindOneDanglingDecomposition(ifl);
  ASSERT_TRUE(decomposition.has_value());
  Result<OneDanglingPlan> plan = PrepareOneDanglingPlan(*decomposition);
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(plan->mirror_db, c.mirrored_db);

  std::vector<char> labels = lang.used_letters();
  labels.push_back(plan->z);
  labels.push_back('q');  // outside the language
  for (int seed = 1; seed <= 40; ++seed) {
    Rng rng(seed * 131 + 7);
    GraphDb db = RandomGraphDb(&rng, 5, 9 + seed % 6, labels, 3);
    // Exogenous facts away from x and y (the rewrite's arithmetic needs
    // those endogenous).
    for (FactId f = 0; f < db.num_facts(); ++f) {
      char label = db.fact(f).label;
      if (label != plan->x && label != plan->y && rng.NextChance(1, 5)) {
        db.SetExogenous(f);
      }
    }
    ExpectAllPathsAgree(lang, *plan, db,
                        std::string(c.regex) + " seed " + std::to_string(seed));
    if (seed % 4 != 0) continue;
    // A versioned overlay: one fact tombstoned, one appended.
    auto base = std::make_shared<const GraphDb>(db);
    GraphDb overlay = GraphDb::MakeOverlay(base);
    const Fact gone = db.fact(static_cast<FactId>(rng.NextBelow(db.num_facts())));
    ASSERT_TRUE(overlay.RemoveFact(gone.source, gone.label, gone.target).ok());
    overlay.AddFact(static_cast<NodeId>(rng.NextBelow(db.num_nodes())),
                    labels[rng.NextBelow(labels.size())],
                    static_cast<NodeId>(rng.NextBelow(db.num_nodes())), 2);
    ExpectAllPathsAgree(lang, *plan, overlay,
                        std::string(c.regex) + " overlay seed " +
                            std::to_string(seed));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Orientations, OneDanglingPlanParityTest,
    ::testing::Values(OrientationCase{"abc|be", false},
                      OrientationCase{"ax*b|ea", true},
                      OrientationCase{"bx*a|ae", false},
                      OrientationCase{"cba|eb", true}));

}  // namespace
}  // namespace rpqres
