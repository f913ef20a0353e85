// Exact-solver parity: on the NP-hard side the plan path (prepared
// ExactPlan, caller scratch), the one-shot SolveExactResilience (IF(L)
// derived per call, thread scratch), all-subsets brute force and the
// hypergraph hitting set must agree on every instance — flat databases,
// exogenous facts, and overlays with tombstones, under set and bag
// semantics. Plan and one-shot run the same search, so they must also
// agree on search_nodes and the contingency set. Also pins the search's
// bounds (node budget, cancellation, scratch reuse after an aborted
// search) and the capacity bound on bag multiplicities.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "engine/db_registry.h"
#include "flow/solver_scratch.h"
#include "graphdb/generators.h"
#include "graphdb/graph_db.h"
#include "graphdb/serialization.h"
#include "lang/language.h"
#include "resilience/exact.h"
#include "resilience/resilience.h"
#include "util/cancel.h"
#include "util/rng.h"

namespace rpqres {
namespace {

constexpr int kSeeds = 100;

// One instance per seed, cycling through three shapes: a flat database,
// a flat database with exogenous facts, and an overlay that adds facts
// (one exogenous) and tombstones base facts. At most 12 facts, so
// brute force stays cheap.
GraphDb ParityInstance(int seed, const std::vector<char>& labels) {
  Rng rng(seed * 7919 + 17);
  GraphDb base = RandomGraphDb(&rng, 4, 9, labels, 3);
  switch (seed % 3) {
    case 0:
      return base;
    case 1:
      for (FactId f = 0; f < base.num_facts(); ++f) {
        if (rng.NextBelow(3) == 0) base.SetExogenous(f);
      }
      return base;
    default: {
      GraphDb overlay =
          GraphDb::MakeOverlay(std::make_shared<const GraphDb>(base));
      for (int i = 0; i < 3; ++i) {
        FactId id = overlay.AddFact(
            static_cast<NodeId>(rng.NextBelow(overlay.num_nodes())),
            labels[rng.NextBelow(labels.size())],
            static_cast<NodeId>(rng.NextBelow(overlay.num_nodes())),
            rng.NextInRange(1, 3));
        if (i == 0 && id >= overlay.base_fact_watermark()) {
          overlay.SetExogenous(id);
        }
      }
      for (FactId f = 0; f < base.num_facts() && f < 4; f += 2) {
        const Fact& fact = base.fact(f);
        if (overlay.IsLive(f)) {
          EXPECT_TRUE(
              overlay.RemoveFact(fact.source, fact.label, fact.target).ok());
        }
      }
      return overlay;
    }
  }
}

class ExactParityTest : public ::testing::TestWithParam<const char*> {};

TEST_P(ExactParityTest, PlanOneShotBruteForceAndHittingSetAgree) {
  const char* regex = GetParam();
  Language lang = Language::MustFromRegexString(regex);
  Result<ResiliencePlan> plan = PlanResilience(lang);
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_EQ(plan->method, ResilienceMethod::kExact) << regex;
  ASSERT_TRUE(plan->exact.has_value());
  // One scratch across every instance: stale state from a larger or
  // differently shaped search must never leak into the next one.
  SolverScratch scratch;
  int nontrivial = 0;
  for (int seed = 0; seed < kSeeds; ++seed) {
    GraphDb db = ParityInstance(seed, lang.used_letters());
    for (Semantics semantics : {Semantics::kSet, Semantics::kBag}) {
      SCOPED_TRACE(std::string(regex) + " seed " + std::to_string(seed) +
                   (semantics == Semantics::kSet ? " set" : " bag") + "\n" +
                   db.ToString());
      Result<ResilienceResult> planned = ComputeResilienceWithPlan(
          *plan, db, semantics, {}, nullptr, &scratch);
      Result<ResilienceResult> one_shot =
          SolveExactResilience(lang, db, semantics);
      Result<ResilienceResult> brute =
          SolveBruteForceResilience(lang, db, semantics);
      Result<ResilienceResult> hitting =
          SolveHittingSetResilience(lang, db, semantics);
      ASSERT_TRUE(planned.ok()) << planned.status();
      ASSERT_TRUE(one_shot.ok()) << one_shot.status();
      ASSERT_TRUE(brute.ok()) << brute.status();
      ASSERT_TRUE(hitting.ok()) << hitting.status();

      for (const ResilienceResult* r :
           {&*planned, &*one_shot, &*brute, &*hitting}) {
        EXPECT_EQ(r->infinite, brute->infinite) << r->algorithm;
        if (!r->infinite) EXPECT_EQ(r->value, brute->value) << r->algorithm;
        Status check = VerifyResilienceResult(lang, db, semantics, *r);
        EXPECT_TRUE(check.ok()) << r->algorithm << ": " << check;
      }
      // The same search, prepared once or per call.
      EXPECT_EQ(planned->search_nodes, one_shot->search_nodes);
      EXPECT_EQ(planned->contingency, one_shot->contingency);
      if (!brute->infinite && brute->value > 0) ++nontrivial;
    }
  }
  // The sweep must exercise real searches, not only trivial answers.
  EXPECT_GT(nontrivial, kSeeds / 2) << nontrivial;
}

INSTANTIATE_TEST_SUITE_P(HardLanguages, ExactParityTest,
                         ::testing::Values("ab|bc|ca", "aa", "axb|cxd",
                                           "abc|bcd"));

GraphDb ACycle(int n) {
  GraphDb db;
  for (int i = 0; i < n; ++i) db.AddNode();
  for (int i = 0; i < n; ++i) db.AddFact(i, 'a', (i + 1) % n);
  return db;
}

ResiliencePlan ExactPlanFor(const char* regex) {
  Result<ResiliencePlan> plan =
      PlanResilience(Language::MustFromRegexString(regex));
  EXPECT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(plan->method, ResilienceMethod::kExact);
  return *std::move(plan);
}

// An exhausted node budget or a cancelled search returns its status, and
// the scratch it leaves behind still solves the next instance correctly.
TEST(ExactSearchBoundsTest, BudgetAndCancelStopThePlanSearch) {
  ResiliencePlan plan = ExactPlanFor("aa");
  GraphDb cycle = ACycle(41);
  SolverScratch scratch;

  ExactOptions budget;
  budget.max_search_nodes = 100;
  Result<ResilienceResult> exhausted = ComputeResilienceWithPlan(
      plan, cycle, Semantics::kSet, budget, nullptr, &scratch);
  EXPECT_EQ(exhausted.status().code(), StatusCode::kOutOfRange);

  // Cancellation is polled every 256 nodes, so a token cancelled before
  // the solve stops it at the first poll, mid-search.
  CancelToken token;
  token.RequestCancel();
  ExactOptions cancelled;
  cancelled.cancel = &token;
  Result<ResilienceResult> stopped = ComputeResilienceWithPlan(
      plan, cycle, Semantics::kSet, cancelled, nullptr, &scratch);
  EXPECT_EQ(stopped.status().code(), StatusCode::kCancelled);

  GraphDb small = ACycle(7);
  Result<ResilienceResult> after = ComputeResilienceWithPlan(
      plan, small, Semantics::kSet, {}, nullptr, &scratch);
  ASSERT_TRUE(after.ok()) << after.status();
  Result<ResilienceResult> brute = SolveBruteForceResilience(
      Language::MustFromRegexString("aa"), small, Semantics::kSet);
  ASSERT_TRUE(brute.ok());
  EXPECT_EQ(after->value, brute->value);
  EXPECT_EQ(after->value, 4);  // every second fact of an odd 7-cycle
}

// Three facts of multiplicity 2^62 sum past kMaxTotalMultiplicity. Bag
// solves must refuse with OutOfRange instead of overflowing a cost sum
// (the exact solver used to report -2^62; the local flow aborted).
constexpr const char* kOverflowDb =
    "u a v 4611686018427387904\n"
    "v b w 4611686018427387904\n"
    "w c u 4611686018427387904\n";

TEST(CapacityBoundTest, BagSolvesRefuseOverflowingMultiplicities) {
  Result<GraphDb> db = ParseGraphDb(kOverflowDb);
  ASSERT_TRUE(db.ok()) << db.status();
  EXPECT_EQ(db->CheckTotalMultiplicity().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(db->TotalCost(Semantics::kBag), kInfiniteCapacity);
  // Set values: the three ab|bc|ca matches pairwise share a fact, so two
  // deletions are needed; `a` has one fact.
  const std::pair<const char*, Capacity> kCases[] = {{"ab|bc|ca", 2},
                                                     {"a", 1}};
  for (const auto& [regex, set_value] : kCases) {
    SCOPED_TRACE(regex);
    Language lang = Language::MustFromRegexString(regex);
    Result<ResilienceResult> bag =
        ComputeResilience(lang, *db, Semantics::kBag);
    EXPECT_EQ(bag.status().code(), StatusCode::kOutOfRange) << bag.status();
    // Set semantics never reads multiplicities.
    Result<ResilienceResult> set =
        ComputeResilience(lang, *db, Semantics::kSet);
    ASSERT_TRUE(set.ok()) << set.status();
    EXPECT_EQ(set->value, set_value);
  }
  ExactPlan plan = PrepareExactPlan(Language::MustFromRegexString("ab|bc|ca"));
  EXPECT_EQ(SolveExactResilienceWithPlan(plan, *db, Semantics::kBag,
                                         LabelIndex(*db))
                .status()
                .code(),
            StatusCode::kOutOfRange);
}

TEST(CapacityBoundTest, RegistryRefusesOverflowingDatabases) {
  DbRegistry registry;
  Result<GraphDb> db = ParseGraphDb(kOverflowDb);
  ASSERT_TRUE(db.ok());
  Result<DbHandle> refused = registry.TryRegister(*db, "overflow");
  EXPECT_EQ(refused.status().code(), StatusCode::kOutOfRange);
  EXPECT_FALSE(registry.Register(*db, "overflow").valid());
  EXPECT_EQ(registry.size(), 0u);

  // Two facts of 2^59 fit; the commit adding one of 2^61 does not, and
  // the lineage stays at version 1.
  GraphDb two;
  NodeId u = two.AddNode("u"), v = two.AddNode("v"), w = two.AddNode("w");
  two.AddFact(u, 'a', v, int64_t{1} << 59);
  two.AddFact(v, 'b', w, int64_t{1} << 59);
  Result<DbHandle> v1 = registry.TryRegister(std::move(two), "fits");
  ASSERT_TRUE(v1.ok()) << v1.status();
  DeltaBatch delta = registry.BeginDelta(*v1);
  ASSERT_TRUE(delta.AddFact(w, 'c', u, int64_t{1} << 61).ok());
  Result<DbHandle> v2 = delta.Commit();
  EXPECT_EQ(v2.status().code(), StatusCode::kOutOfRange);
  Result<DbHandle> latest = registry.Resolve("fits@latest");
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(latest->version(), 1u);
}

}  // namespace
}  // namespace rpqres
