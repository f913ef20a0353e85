// Serve router test: the sharded front end must be answer- and
// stats-transparent. Routing is a pure function of the lineage name
// (determinism pinned against a second registry instance), a 4-shard
// router must answer every workload-seeded request exactly like one
// engine evaluating the same instances (cross-shard SubmitBatch
// parity over 200 seeds), and the merged fleet views must be exact:
// summed shard EngineStats equal the router view, and the merged
// metrics snapshot's shard="all" roll-ups equal the sum of the
// per-shard series, with disjoint statuses summing to instances_run.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "engine/db_registry.h"
#include "engine/engine.h"
#include "engine/request.h"
#include "serve/router.h"
#include "serve/sharded_registry.h"
#include "workload/traffic.h"
#include "workload/workload.h"

namespace rpqres {
namespace {

using serve::Router;
using serve::RouterOptions;
using serve::RouterStats;
using serve::ServeRequest;
using serve::ShardedRegistry;
using workload::MakeWorkloadInstance;
using workload::TrafficOp;
using workload::TrafficTrace;
using workload::WorkloadInstance;

EngineOptions ServeEngineOptions() {
  EngineOptions options;
  options.num_threads = 2;
  return options;
}

TEST(ServeRouterTest, RoutingIsDeterministicAcrossInstances) {
  ShardedRegistry a(4, ServeEngineOptions());
  ShardedRegistry b(4, ServeEngineOptions());

  std::map<int, int> shard_use;
  for (int i = 0; i < 64; ++i) {
    const std::string name = "lineage" + std::to_string(i);
    const int shard = a.ShardForName(name);
    ASSERT_GE(shard, 0);
    ASSERT_LT(shard, 4);
    // Same name, same shard: across instances, across reference forms,
    // and repeatably within one instance.
    EXPECT_EQ(shard, b.ShardForName(name)) << name;
    EXPECT_EQ(shard, a.ShardForName(name)) << name;
    EXPECT_EQ(shard, a.ShardForRef(name + "@latest")) << name;
    EXPECT_EQ(shard, a.ShardForRef(name + "@3")) << name;
    ++shard_use[shard];
  }
  // FNV-1a over 64 names must not collapse onto a shard subset.
  EXPECT_EQ(shard_use.size(), 4u);

  // A registered handle routes where its name routes.
  GraphDb db;
  const NodeId u = db.AddNode();
  const NodeId v = db.AddNode();
  db.AddFact(u, 'a', v);
  DbHandle handle = a.Register(std::move(db), "lineage7");
  ASSERT_TRUE(handle.valid());
  EXPECT_EQ(a.ShardForHandle(handle), a.ShardForName("lineage7"));
  // And Resolve finds it on that shard.
  Result<DbHandle> resolved = a.Resolve("lineage7@latest");
  ASSERT_TRUE(resolved.ok());
  EXPECT_EQ(resolved->id(), handle.id());
}

TEST(ServeRouterTest, CrossShardSubmitBatchMatchesSingleEngine) {
  ShardedRegistry shards(4, ServeEngineOptions());
  Router router(&shards);

  DbRegistry single_registry;
  ResilienceEngine single(ServeEngineOptions());

  // One request per workload seed, registered under the same name in
  // both worlds; the router fans out by name hash, the single engine
  // sees everything.
  std::vector<ServeRequest> routed;
  std::vector<ResilienceRequest> direct;
  for (uint64_t seed = 52000; seed < 52200; ++seed) {
    Result<WorkloadInstance> instance = MakeWorkloadInstance(seed);
    if (!instance.ok()) continue;
    const std::string name = "wl" + std::to_string(seed);
    GraphDb copy = instance->db;
    shards.Register(std::move(instance->db), name);
    single_registry.Register(std::move(copy), name);

    ResilienceRequest request;
    request.regex = instance->query.regex;
    request.db_ref = name + "@latest";
    request.semantics = instance->semantics;

    ResilienceRequest mirror = request;
    mirror.registry = &single_registry;
    direct.push_back(std::move(mirror));
    routed.push_back(
        {"tenant" + std::to_string(seed % 3), std::move(request)});
  }
  ASSERT_GT(routed.size(), 150u);

  std::vector<std::future<ResilienceResponse>> futures =
      router.SubmitBatch(std::move(routed));
  std::vector<ResilienceResponse> expected = single.EvaluateBatch(direct);
  ASSERT_EQ(futures.size(), expected.size());

  for (size_t i = 0; i < futures.size(); ++i) {
    ResilienceResponse got = futures[i].get();
    EXPECT_EQ(got.status, expected[i].status) << i;
    if (!got.status.ok() || !expected[i].status.ok()) continue;
    EXPECT_EQ(got.result.infinite, expected[i].result.infinite) << i;
    EXPECT_EQ(got.result.value, expected[i].result.value) << i;
    EXPECT_EQ(got.result.algorithm, expected[i].result.algorithm) << i;
    EXPECT_EQ(got.stats.complexity, expected[i].stats.complexity) << i;
  }

  // Nothing shed: capacity defaults are far above 200 requests.
  RouterStats stats = router.stats();
  EXPECT_EQ(stats.sheds(), 0);
  EXPECT_EQ(stats.submitted, static_cast<int64_t>(futures.size()));
  EXPECT_EQ(stats.completed, stats.admitted);
}

TEST(ServeRouterTest, MergedStatsAndMetricsAreExactSums) {
  ShardedRegistry shards(4, ServeEngineOptions());
  Router router(&shards);

  TrafficTrace trace(987654321);
  for (int i = 0; i < trace.num_lineages(); ++i) {
    shards.Register(trace.MakeDb(i), trace.lineage_name(i));
  }

  std::vector<std::future<ResilienceResponse>> futures;
  for (const TrafficOp& op : trace.NextOps(400)) {
    if (op.kind == TrafficOp::Kind::kCommit) {
      // Commits apply directly to the home shard's registry.
      DbRegistry& registry =
          shards.registry(shards.ShardForRef(op.db_ref));
      ASSERT_TRUE(TrafficTrace::ApplyCommit(op, &registry).ok());
      continue;
    }
    ResilienceRequest request;
    request.regex = op.regex;
    request.db_ref = op.db_ref;
    request.semantics = op.semantics;
    futures.push_back(router.Submit(
        {"tenant" + std::to_string(op.tenant), std::move(request)}));
  }
  for (auto& future : futures) {
    EXPECT_TRUE(future.get().status.ok());
  }
  router.Drain();

  // (1) Summed shard EngineStats == the router's merged view.
  EngineStats merged = router.engine_stats();
  EngineStats manual;
  for (int i = 0; i < shards.num_shards(); ++i) {
    const EngineStats shard = shards.engine(i).stats();
    manual.instances_run += shard.instances_run;
    manual.submits += shard.submits;
    manual.compilations += shard.compilations;
    manual.errors += shard.errors;
    manual.cache_hits += shard.cache_hits;
    manual.cache_misses += shard.cache_misses;
    for (const auto& [algorithm, count] : shard.instances_by_algorithm) {
      manual.instances_by_algorithm[algorithm] += count;
    }
  }
  EXPECT_EQ(merged.instances_run, manual.instances_run);
  EXPECT_EQ(merged.submits, manual.submits);
  EXPECT_EQ(merged.compilations, manual.compilations);
  EXPECT_EQ(merged.errors, manual.errors);
  EXPECT_EQ(merged.cache_hits, manual.cache_hits);
  EXPECT_EQ(merged.cache_misses, manual.cache_misses);
  EXPECT_EQ(merged.instances_by_algorithm, manual.instances_by_algorithm);
  EXPECT_EQ(merged.instances_run, static_cast<int64_t>(futures.size()));
  // Every shard saw traffic: lineage names spread over 4 shards.
  for (int i = 0; i < shards.num_shards(); ++i) {
    EXPECT_GT(shards.engine(i).stats().instances_run, 0) << "shard " << i;
  }

  // (2) Merged snapshot: per-shard series sum to the shard="all"
  // roll-up for every counter family, and the request counter's
  // disjoint statuses sum to instances_run.
  obs::MetricsSnapshot snapshot = router.TakeMetricsSnapshot();
  bool saw_requests_total = false;
  for (const obs::CounterFamily::Snapshot& family : snapshot.counters) {
    std::map<std::string, int64_t> shard_sum;
    std::map<std::string, int64_t> rollup;
    bool has_shards = false;
    for (const obs::CounterFamily::Sample& sample : family.samples) {
      if (sample.shard.empty()) continue;  // router-level family
      has_shards = true;
      (sample.shard == "all" ? rollup : shard_sum)[sample.label] +=
          sample.value;
    }
    if (!has_shards) continue;
    EXPECT_EQ(shard_sum, rollup) << family.name;
    if (family.name == "rpqres_requests_total") {
      saw_requests_total = true;
      int64_t total = 0;
      for (const auto& [status, count] : rollup) total += count;
      EXPECT_EQ(total, merged.instances_run);
      EXPECT_EQ(rollup["ok"], merged.instances_run - merged.errors);
    }
  }
  EXPECT_TRUE(saw_requests_total);

  // Histogram roll-ups too: per-label total_count sums match.
  for (const obs::HistogramFamily::Snapshot& family : snapshot.histograms) {
    std::map<std::string, uint64_t> shard_sum;
    std::map<std::string, uint64_t> rollup;
    bool has_shards = false;
    for (const obs::HistogramFamily::Series& series : family.series) {
      if (series.shard.empty()) continue;
      has_shards = true;
      (series.shard == "all" ? rollup : shard_sum)[series.label] +=
          series.histogram.total_count;
    }
    if (has_shards) EXPECT_EQ(shard_sum, rollup) << family.name;
  }
}

}  // namespace
}  // namespace rpqres
