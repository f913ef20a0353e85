// Scratch-reuse tests for the zero-copy flow core: after a warm-up solve,
// repeated solves through a SolverScratch must neither grow any scratch
// buffer nor allocate on the heap inside the flow path. Heap activity is
// counted by overriding global operator new in this binary (kept in its
// own test target so the override affects nothing else); the flow-path
// assertion brackets the solver call, whose only remaining allocations
// are the returned ResilienceResult's own members.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <iostream>
#include <new>

#include "engine/db_registry.h"
#include "engine/engine.h"
#include "engine/request.h"
#include "flow/solver_scratch.h"
#include "graphdb/generators.h"
#include "graphdb/label_index.h"
#include "lang/language.h"
#include "lang/ro_enfa.h"
#include "obs/trace.h"
#include "resilience/local_resilience.h"
#include "resilience/resilience.h"
#include "util/rng.h"

namespace {

std::atomic<long long> g_allocations{0};

}  // namespace

// The full replaceable-allocation set must be overridden together —
// otherwise (e.g.) a nothrow new from the default set paired with our
// sized delete trips ASan's alloc-dealloc-mismatch check.
void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace rpqres {
namespace {

TEST(SolverScratchTest, LocalSolveReusesBuffersAndStopsAllocating) {
  Rng rng(1234);
  GraphDb db = LayeredFlowDb(&rng, 4, 8, 6, 4, 0.4, 50);
  LabelIndex index(db);
  Language lang = Language::MustFromRegexString("ax*b");
  Enfa ro = BuildRoEnfa(lang).ValueOrDie();
  RoProductTables tables = BuildRoProductTables(ro).ValueOrDie();

  SolverScratch scratch;
  ResilienceResult first =
      SolveLocalResilienceWithTables(tables, db, Semantics::kBag, index,
                                     &scratch);
  ASSERT_FALSE(first.infinite);
  const size_t warm_bytes = scratch.total_capacity_bytes();
  ASSERT_GT(warm_bytes, 0u);

  for (int round = 0; round < 20; ++round) {
    long long before = g_allocations.load(std::memory_order_relaxed);
    ResilienceResult again = SolveLocalResilienceWithTables(
        tables, db, Semantics::kBag, index, &scratch);
    long long solver_allocations =
        g_allocations.load(std::memory_order_relaxed) - before;
    EXPECT_EQ(again.value, first.value);
    EXPECT_EQ(again.contingency, first.contingency);
    // Steady state: the scratch never grows...
    EXPECT_EQ(scratch.total_capacity_bytes(), warm_bytes)
        << "round " << round << " grew a scratch buffer";
    // ...and the only heap activity is the returned result itself (its
    // contingency vector and algorithm string — NOT proportional to the
    // database or network size).
    EXPECT_LE(solver_allocations, 4) << "round " << round;
  }
}

// Solves `plan` on `db` through the label index and scratch `rounds`
// times after one warm-up solve; checks every answer and that the scratch
// never grows, and returns the largest heap-allocation count of a round.
long long SteadyPlanSolveAllocations(const ResiliencePlan& plan,
                                     const GraphDb& db, int rounds) {
  LabelIndex index(db);
  SolverScratch scratch;
  Result<ResilienceResult> first = ComputeResilienceWithPlan(
      plan, db, Semantics::kBag, {}, &index, &scratch);
  EXPECT_TRUE(first.ok()) << first.status();
  if (!first.ok()) return -1;
  const size_t warm_bytes = scratch.total_capacity_bytes();
  long long most = 0;
  for (int round = 0; round < rounds; ++round) {
    long long before = g_allocations.load(std::memory_order_relaxed);
    Result<ResilienceResult> again = ComputeResilienceWithPlan(
        plan, db, Semantics::kBag, {}, &index, &scratch);
    most = std::max(most,
                    g_allocations.load(std::memory_order_relaxed) - before);
    EXPECT_TRUE(again.ok()) << again.status();
    if (!again.ok()) return -1;
    EXPECT_EQ(again->value, first->value);
    EXPECT_EQ(again->contingency, first->contingency);
    EXPECT_EQ(scratch.total_capacity_bytes(), warm_bytes)
        << "round " << round << " grew a scratch buffer";
  }
  return most;
}

ResiliencePlan MustPlan(const char* regex, ResilienceMethod expected) {
  Result<ResiliencePlan> plan =
      PlanResilience(Language::MustFromRegexString(regex));
  EXPECT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(plan->method, expected) << regex;
  return *std::move(plan);
}

// The BCL plan carries its words and label tables, so a steady-state
// solve allocates only the returned result: its algorithm string and the
// contingency vector's growth. Measured: 7 allocations (a one-shot
// SolveBclResilience, which derives IF(L) first, makes ~1800).
TEST(SolverScratchTest, BclSolveReusesBuffersAndStopsAllocating) {
  Rng rng(99);
  GraphDb db = WordSoupDb(&rng, {"ab", "bc"}, 16, {'a', 'b', 'c'}, 32, 10);
  ResiliencePlan plan = MustPlan("ab|bc", ResilienceMethod::kBclFlow);
  long long allocations = SteadyPlanSolveAllocations(plan, db, 10);
  std::cout << "BCL plan solve: " << allocations << " allocations\n";
  EXPECT_LE(allocations, 16);
}

// One-dangling: orientation, fresh letter and rewritten-base tables come
// from the plan and the rewrite D' is a view over the database, so the
// solve neither copies the database nor builds automata. Measured: 6
// allocations for each orientation (before the plan carried this data:
// ~4100).
TEST(SolverScratchTest, OneDanglingPlanSolveStopsAllocating) {
  Rng rng(31);
  GraphDb db = DanglingPairsDb(&rng, 30, 60, {'a', 'b', 'c'}, 'b', 'e', 12, 4);
  // abc|be reads the database as stored; in ax*b|ea only x = e is fresh,
  // so the plan reads the database mirrored.
  for (const char* regex : {"abc|be", "ax*b|ea"}) {
    SCOPED_TRACE(regex);
    ResiliencePlan plan = MustPlan(regex, ResilienceMethod::kOneDanglingFlow);
    long long allocations = SteadyPlanSolveAllocations(plan, db, 10);
    std::cout << regex << " plan solve: " << allocations
              << " allocations\n";
    EXPECT_LE(allocations, 16);
  }
}

// The exact plan carries IF(L)'s product tables and every search buffer
// lives in the scratch, so after warm-up a branch & bound solve allocates
// only the returned result (its algorithm string and contingency
// vector), however many search nodes it visits. Measured: 2 allocations
// (before the plan carried the tables: 1885 on this database).
TEST(SolverScratchTest, ExactPlanSolveStopsAllocating) {
  Rng rng(5);
  GraphDb db = RandomGraphDb(&rng, 8, 12, {'a', 'b', 'c'}, 3);
  ResiliencePlan plan = MustPlan("ab|bc|ca", ResilienceMethod::kExact);
  Result<ResilienceResult> solved =
      ComputeResilienceWithPlan(plan, db, Semantics::kBag);
  ASSERT_TRUE(solved.ok()) << solved.status();
  EXPECT_GT(solved->search_nodes, 1u);  // a real search, not a shortcut
  long long allocations = SteadyPlanSolveAllocations(plan, db, 3);
  std::cout << "exact plan solve: " << allocations << " allocations\n";
  EXPECT_GE(allocations, 0);
  EXPECT_LE(allocations, 16);
}

// End-to-end: the engine's per-thread scratch reaches a steady state
// where repeated identical requests stop growing it. Single-threaded so
// every request lands on the same worker scratch.
TEST(SolverScratchTest, EngineThreadScratchReachesSteadyState) {
  Rng rng(7);
  DbRegistry registry;
  DbHandle db = registry.Register(LayeredFlowDb(&rng, 4, 8, 6, 4, 0.4, 50));
  EngineOptions options;
  options.num_threads = 1;
  ResilienceEngine engine(options);
  ResilienceRequest request{
      .regex = "ax*b", .db = db, .semantics = Semantics::kBag};

  ResilienceResponse first = engine.Evaluate(request);
  ASSERT_TRUE(first.status.ok()) << first.status;
  EXPECT_GT(first.result.product_vertices_pruned, 0);
  // Warm up, then bound the per-request allocation count: response
  // strings and result vectors only, never O(network) buffers.
  for (int i = 0; i < 3; ++i) engine.Evaluate(request);
  for (int round = 0; round < 10; ++round) {
    long long before = g_allocations.load(std::memory_order_relaxed);
    ResilienceResponse again = engine.Evaluate(request);
    long long request_allocations =
        g_allocations.load(std::memory_order_relaxed) - before;
    ASSERT_TRUE(again.status.ok());
    EXPECT_EQ(again.result.value, first.result.value);
    EXPECT_LE(request_allocations, 24) << "round " << round;
  }
}

// Observability on the hot path: recording trace spans through the flow
// solver must not add a single heap allocation — the TraceContext is
// fixed-size and span recording is two clock reads plus array stores.
TEST(SolverScratchTest, TracedLocalSolveStaysAllocationFree) {
  Rng rng(1234);
  GraphDb db = LayeredFlowDb(&rng, 4, 8, 6, 4, 0.4, 50);
  LabelIndex index(db);
  Language lang = Language::MustFromRegexString("ax*b");
  Enfa ro = BuildRoEnfa(lang).ValueOrDie();
  RoProductTables tables = BuildRoProductTables(ro).ValueOrDie();

  SolverScratch scratch;
  ResilienceResult first =
      SolveLocalResilienceWithTables(tables, db, Semantics::kBag, index,
                                     &scratch);
  const size_t warm_bytes = scratch.total_capacity_bytes();

  for (int round = 0; round < 10; ++round) {
    obs::TraceContext trace;  // stack-allocated span sink
    scratch.trace = &trace;
    long long before = g_allocations.load(std::memory_order_relaxed);
    ResilienceResult again = SolveLocalResilienceWithTables(
        tables, db, Semantics::kBag, index, &scratch);
    long long solver_allocations =
        g_allocations.load(std::memory_order_relaxed) - before;
    scratch.trace = nullptr;
    EXPECT_EQ(again.value, first.value);
    EXPECT_EQ(scratch.total_capacity_bytes(), warm_bytes)
        << "round " << round << " grew a scratch buffer";
    // Same bound as the untraced solve: spans cost no allocations.
    EXPECT_LE(solver_allocations, 4) << "round " << round;
    // And the spans actually landed: prune, build, Dinic, cut at least.
    EXPECT_GE(trace.size(), 4) << "round " << round;
    EXPECT_EQ(trace.dropped(), 0);
  }
}

// End-to-end with tracing explicitly ON and a caller-attached sink: the
// per-request allocation bound must hold unchanged (metric label lookups
// are allocation-free after warm-up, the span sink is caller stack).
TEST(SolverScratchTest, EngineSteadyStateHoldsWithTracingOn) {
  Rng rng(7);
  DbRegistry registry;
  DbHandle db = registry.Register(LayeredFlowDb(&rng, 4, 8, 6, 4, 0.4, 50));
  EngineOptions options;
  options.num_threads = 1;
  options.enable_tracing = true;
  ResilienceEngine engine(options);
  ResilienceRequest request{
      .regex = "ax*b", .db = db, .semantics = Semantics::kBag};

  ResilienceResponse first = engine.Evaluate(request);
  ASSERT_TRUE(first.status.ok()) << first.status;
  for (int i = 0; i < 3; ++i) engine.Evaluate(request);  // warm-up

  for (int round = 0; round < 10; ++round) {
    obs::TraceContext trace;
    request.options.trace = &trace;
    long long before = g_allocations.load(std::memory_order_relaxed);
    ResilienceResponse again = engine.Evaluate(request);
    long long request_allocations =
        g_allocations.load(std::memory_order_relaxed) - before;
    ASSERT_TRUE(again.status.ok());
    EXPECT_EQ(again.result.value, first.result.value);
    EXPECT_LE(request_allocations, 24) << "round " << round;
    EXPECT_GT(trace.size(), 0) << "round " << round;
  }
}

// A forced-method request reads the registered snapshot's label index
// like the plan path does; it must not build a fresh index per request.
// The database carries 91 inert labels, so a per-request index build
// costs about 780 allocations (measured: 1267 per forced request when
// the index was rebuilt); what the forced path may add over the plan
// path is re-deriving IF(L)'s read-once automaton and tables from the
// query (measured: 480 allocations for ax*b), bounded by the constant.
TEST(SolverScratchTest, ForcedMethodReadsTheSnapshotIndex) {
  Rng rng(7);
  GraphDb graph = LayeredFlowDb(&rng, 4, 8, 6, 4, 0.4, 50);
  for (char label = '!'; label <= '~'; ++label) {
    if (label != 'a' && label != 'x' && label != 'b') {
      graph.AddFact(0, label, 1);
    }
  }
  DbRegistry registry;
  DbHandle db = registry.Register(std::move(graph));
  EngineOptions options;
  options.num_threads = 1;
  ResilienceEngine engine(options);
  ResilienceRequest planned{
      .regex = "ax*b", .db = db, .semantics = Semantics::kBag};
  ResilienceRequest forced = planned;
  forced.options.method = ResilienceMethod::kLocalFlow;

  auto warm_allocations = [&engine](const ResilienceRequest& request) {
    for (int i = 0; i < 3; ++i) engine.Evaluate(request);  // warm-up
    long long fewest = -1;
    for (int round = 0; round < 5; ++round) {
      long long before = g_allocations.load(std::memory_order_relaxed);
      ResilienceResponse response = engine.Evaluate(request);
      long long used = g_allocations.load(std::memory_order_relaxed) - before;
      EXPECT_TRUE(response.status.ok()) << response.status;
      if (fewest < 0 || used < fewest) fewest = used;
    }
    return fewest;
  };
  const long long plan_allocations = warm_allocations(planned);
  const long long forced_allocations = warm_allocations(forced);
  std::cout << "plan request: " << plan_allocations
            << " allocations, forced kLocalFlow: " << forced_allocations
            << "\n";
  EXPECT_EQ(engine.Evaluate(forced).result.value,
            engine.Evaluate(planned).result.value);
  EXPECT_LE(forced_allocations, plan_allocations + 600);
}

}  // namespace
}  // namespace rpqres
