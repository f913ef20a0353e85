// The engine observability layer end to end: caller-attached trace
// sinks, the metrics exporter (Prometheus + JSON), disjoint status
// counters, gauges (caches, slow log, DbRegistry), the slow-query log
// (threshold, shed requests, wraparound), ResetStats semantics, and
// EngineStats as a view: every field equals its exported sample, for one
// engine and for a 4-shard Router's shard="all" roll-up.

#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "engine/db_registry.h"
#include "engine/engine.h"
#include "engine/request.h"
#include "obs/trace.h"
#include "serve/router.h"
#include "serve/sharded_registry.h"
#include "util/cancel.h"

namespace rpqres {
namespace {

GraphDb LayerDb() {
  GraphDb db;
  NodeId s = db.AddNode("s");
  NodeId m1 = db.AddNode("m1");
  NodeId m2 = db.AddNode("m2");
  NodeId t = db.AddNode("t");
  db.AddFact(s, 'a', m1);
  db.AddFact(m1, 'x', m2, 2);
  db.AddFact(m2, 'b', t);
  db.AddFact(s, 'a', m2);
  return db;
}

bool HasSpan(const obs::TraceContext& trace, obs::SpanKind kind) {
  for (int i = 0; i < trace.size(); ++i) {
    if (trace.spans()[i].kind == kind) return true;
  }
  return false;
}

TEST(EngineObservabilityTest, CallerTraceSinkReceivesSpanTree) {
  DbRegistry registry;
  ResilienceEngine engine;
  DbHandle db = registry.Register(LayerDb(), "hot");

  obs::TraceContext trace;
  ResilienceRequest request{.regex = "ax*b", .db = db};
  request.options.trace = &trace;
  ResilienceResponse response = engine.Evaluate(request);
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();

  ASSERT_GT(trace.size(), 0);
  EXPECT_EQ(trace.open_depth(), 0);  // everything closed
  const obs::TraceSpan& root = trace.spans()[0];
  EXPECT_EQ(root.kind, obs::SpanKind::kRequest);
  EXPECT_EQ(root.depth, 0);
  ASSERT_GE(root.duration_ns, 0);
  EXPECT_TRUE(HasSpan(trace, obs::SpanKind::kSolve));
  // "ax*b" routes to the local flow solver: the flow phases must appear.
  EXPECT_TRUE(HasSpan(trace, obs::SpanKind::kProductPrune));
  EXPECT_TRUE(HasSpan(trace, obs::SpanKind::kFlowBuild));
  EXPECT_TRUE(HasSpan(trace, obs::SpanKind::kDinic));
  EXPECT_TRUE(HasSpan(trace, obs::SpanKind::kCutExtract));
  // Every span is inside the root's interval.
  for (int i = 0; i < trace.size(); ++i) {
    const obs::TraceSpan& span = trace.spans()[i];
    ASSERT_GE(span.duration_ns, 0) << "span " << i << " left open";
    EXPECT_GE(span.start_ns, root.start_ns);
    EXPECT_LE(span.start_ns + span.duration_ns,
              root.start_ns + root.duration_ns);
  }
}

TEST(EngineObservabilityTest, CallerTraceOverridesDisabledTracing) {
  DbRegistry registry;
  EngineOptions options;
  options.enable_tracing = false;
  ResilienceEngine engine(options);
  DbHandle db = registry.Register(LayerDb());

  obs::TraceContext trace;
  ResilienceRequest request{.regex = "ax*b", .db = db};
  request.options.trace = &trace;
  ASSERT_TRUE(engine.Evaluate(request).status.ok());
  EXPECT_TRUE(HasSpan(trace, obs::SpanKind::kDinic));
}

TEST(EngineObservabilityTest, ExportsDisjointStatusCounters) {
  DbRegistry registry;
  ResilienceEngine engine;
  DbHandle db = registry.Register(LayerDb(), "hot");

  // ok
  ASSERT_TRUE(engine.Evaluate({.regex = "ax*b", .db = db}).status.ok());
  // error (no database)
  EXPECT_EQ(engine.Evaluate({.regex = "ax*b"}).status.code(),
            StatusCode::kInvalidArgument);
  // deadline_exceeded (already expired)
  ResilienceRequest late{.regex = "ax*b", .db = db};
  late.options.deadline =
      std::chrono::steady_clock::now() - std::chrono::milliseconds(1);
  EXPECT_EQ(engine.Evaluate(late).status.code(),
            StatusCode::kDeadlineExceeded);
  // cancelled
  auto token = std::make_shared<CancelToken>();
  token->RequestCancel();
  ResilienceRequest cancelled{.regex = "ax*b", .db = db};
  cancelled.options.cancel = token;
  EXPECT_EQ(engine.Evaluate(cancelled).status.code(), StatusCode::kCancelled);

  // EngineStats keeps the roll-up (errors includes deadline + cancel)...
  EngineStats stats = engine.stats();
  EXPECT_EQ(stats.instances_run, 4);
  EXPECT_EQ(stats.errors, 3);
  EXPECT_EQ(stats.deadline_exceeded, 1);
  EXPECT_EQ(stats.cancelled, 1);

  // ...while the exporter reports the four DISJOINT statuses.
  std::string text = engine.ExportMetrics(MetricsFormat::kPrometheus);
  EXPECT_NE(text.find("rpqres_requests_total{status=\"ok\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("rpqres_requests_total{status=\"error\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("rpqres_requests_total{status=\"deadline_exceeded\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("rpqres_requests_total{status=\"cancelled\"} 1"),
            std::string::npos);
}

TEST(EngineObservabilityTest, ExportCarriesHistogramsCachesAndDbGauges) {
  DbRegistry registry;
  EngineOptions options;
  options.result_cache_capacity = 16;
  ResilienceEngine engine(options);
  DbHandle db = registry.Register(LayerDb(), "hot");
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(engine.Evaluate({.regex = "ax*b", .db = db}).status.ok());
  }

  std::string text = engine.ExportMetrics(MetricsFormat::kPrometheus, &registry);
  // Latency histograms with cumulative buckets.
  EXPECT_NE(text.find("# TYPE rpqres_request_latency_micros histogram"),
            std::string::npos);
  EXPECT_NE(text.find("rpqres_request_latency_micros_count{status=\"ok\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("rpqres_solve_latency_micros_bucket{algorithm="),
            std::string::npos);
  // Per-phase histograms fed from trace spans.
  EXPECT_NE(text.find("rpqres_phase_micros_bucket{phase=\"dinic\""),
            std::string::npos);
  // Cache event counters.
  EXPECT_NE(text.find("rpqres_plan_cache_events_total{event=\"hit\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("rpqres_result_cache_events_total{event=\"hit\"} 2"),
            std::string::npos);
  // Gauges, including the registry's.
  EXPECT_NE(text.find("rpqres_plan_cache_entries 1"), std::string::npos);
  EXPECT_NE(text.find("rpqres_result_cache_entries 1"), std::string::npos);
  EXPECT_NE(text.find("rpqres_result_cache_bytes"), std::string::npos);
  EXPECT_NE(text.find("rpqres_db_lineages 1"), std::string::npos);
  EXPECT_NE(text.find("rpqres_db_live_facts 4"), std::string::npos);

  std::string json = engine.ExportMetrics(MetricsFormat::kJson, &registry);
  EXPECT_NE(json.find("\"rpqres_request_latency_micros\""), std::string::npos);
  EXPECT_NE(json.find("\"p50_micros\""), std::string::npos);
  EXPECT_NE(json.find("\"p99_micros\""), std::string::npos);
  EXPECT_NE(json.find("\"rpqres_db_overlay_facts\""), std::string::npos);
}

TEST(EngineObservabilityTest, SlowQueryLogCapturesThresholdCrossers) {
  DbRegistry registry;
  EngineOptions options;
  options.slow_query_threshold_micros = 0;  // everything is "slow"
  ResilienceEngine engine(options);
  DbHandle db = registry.Register(LayerDb(), "hot");

  ASSERT_TRUE(engine.Evaluate({.regex = "ax*b", .db = db}).status.ok());
  std::vector<obs::SlowQueryRecord> records = engine.slow_queries();
  ASSERT_EQ(records.size(), 1u);
  const obs::SlowQueryRecord& record = records[0];
  EXPECT_EQ(record.regex, "ax*b");
  EXPECT_EQ(record.semantics, "set");
  EXPECT_EQ(record.status, "ok");
  EXPECT_FALSE(record.algorithm.empty());
  EXPECT_EQ(record.lineage, db.lineage());
  EXPECT_EQ(record.version, db.version());
  EXPECT_GE(record.total_micros, record.solve_micros);
  EXPECT_GT(record.network_vertices, 0);
  ASSERT_FALSE(record.spans.empty());
  EXPECT_EQ(record.spans[0].kind, obs::SpanKind::kRequest);
  EXPECT_EQ(record.spans_dropped, 0);
}

TEST(EngineObservabilityTest, ShedRequestsAlwaysLandInSlowLog) {
  DbRegistry registry;
  EngineOptions options;
  options.slow_query_threshold_micros = 60'000'000;  // nothing crosses it
  ResilienceEngine engine(options);
  DbHandle db = registry.Register(LayerDb(), "hot");

  ASSERT_TRUE(engine.Evaluate({.regex = "ax*b", .db = db}).status.ok());
  EXPECT_TRUE(engine.slow_queries().empty());

  ResilienceRequest late{.regex = "ax*b", .db = db};
  late.options.deadline =
      std::chrono::steady_clock::now() - std::chrono::milliseconds(1);
  engine.Evaluate(late);
  std::vector<obs::SlowQueryRecord> records = engine.slow_queries();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].status, "deadline_exceeded");
}

TEST(EngineObservabilityTest, SlowQueryRingWrapsAround) {
  DbRegistry registry;
  EngineOptions options;
  options.slow_query_threshold_micros = 0;
  options.slow_query_log_capacity = 2;
  ResilienceEngine engine(options);
  DbHandle db = registry.Register(LayerDb(), "hot");

  for (const char* regex : {"ax*b", "ab", "a"}) {
    engine.Evaluate({.regex = regex, .db = db});
  }
  std::vector<obs::SlowQueryRecord> records = engine.slow_queries();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].regex, "ab");
  EXPECT_EQ(records[1].regex, "a");
  EXPECT_LT(records[0].sequence, records[1].sequence);

  std::string text = engine.ExportMetrics(MetricsFormat::kPrometheus);
  EXPECT_NE(text.find("rpqres_slow_query_log_entries 2"), std::string::npos);
}

TEST(EngineObservabilityTest, PrecompiledQueriesLogTheirOwnRegex) {
  DbRegistry registry;
  EngineOptions options;
  options.slow_query_threshold_micros = 0;
  ResilienceEngine engine(options);
  DbHandle db = registry.Register(LayerDb(), "hot");

  auto compiled = engine.Compile("ax*b", Semantics::kBag);
  ASSERT_TRUE(compiled.ok());
  ResilienceRequest request{.query = *compiled, .db = db};
  ASSERT_TRUE(engine.Evaluate(request).status.ok());
  std::vector<obs::SlowQueryRecord> records = engine.slow_queries();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].regex, "ax*b");
  EXPECT_EQ(records[0].semantics, "bag");
}

TEST(EngineObservabilityTest, ResetStatsClearsMetricsButKeepsSlowLog) {
  DbRegistry registry;
  EngineOptions options;
  options.slow_query_threshold_micros = 0;
  ResilienceEngine engine(options);
  DbHandle db = registry.Register(LayerDb(), "hot");
  ASSERT_TRUE(engine.Evaluate({.regex = "ax*b", .db = db}).status.ok());

  engine.ResetStats();
  EXPECT_EQ(engine.stats().instances_run, 0);
  std::string text = engine.ExportMetrics(MetricsFormat::kPrometheus);
  EXPECT_NE(text.find("rpqres_requests_total{status=\"ok\"} 0"),
            std::string::npos);
  // The slow-query log is a log, not a counter: it survives the reset.
  EXPECT_EQ(engine.slow_queries().size(), 1u);
}

TEST(EngineObservabilityTest, TracingOffStillFeedsRequestHistograms) {
  DbRegistry registry;
  EngineOptions options;
  options.enable_tracing = false;
  ResilienceEngine engine(options);
  DbHandle db = registry.Register(LayerDb(), "hot");
  ASSERT_TRUE(engine.Evaluate({.regex = "ax*b", .db = db}).status.ok());

  std::string text = engine.ExportMetrics(MetricsFormat::kPrometheus);
  // Request/solve latency come from wall-clock timers, not spans.
  EXPECT_NE(text.find("rpqres_request_latency_micros_count{status=\"ok\"} 1"),
            std::string::npos);
  // Phase histograms need spans, so they stay empty.
  EXPECT_EQ(text.find("rpqres_phase_micros_bucket"), std::string::npos);
}

/// One exported counter sample, or -1 when the snapshot lacks it.
int64_t Exported(const obs::MetricsSnapshot& snapshot, std::string_view family,
                 std::string_view label, std::string_view shard) {
  for (const obs::CounterFamily::Snapshot& f : snapshot.counters) {
    if (f.name != family) continue;
    for (const obs::CounterFamily::Sample& sample : f.samples) {
      if (sample.label == label && sample.shard == shard) return sample.value;
    }
  }
  return -1;
}

/// Field by field, against the samples themselves (not through
/// EngineStatsFromSnapshot, which would compare the view with itself).
void ExpectViewEqualsExport(const EngineStats& stats,
                            const obs::MetricsSnapshot& snapshot,
                            std::string_view shard) {
  auto status = [&](std::string_view label) {
    return Exported(snapshot, "rpqres_requests_total", label, shard);
  };
  EXPECT_EQ(stats.instances_run, status("ok") + status("error") +
                                     status("deadline_exceeded") +
                                     status("cancelled"));
  EXPECT_EQ(stats.errors,
            status("error") + status("deadline_exceeded") + status("cancelled"));
  EXPECT_EQ(stats.deadline_exceeded, status("deadline_exceeded"));
  EXPECT_EQ(stats.cancelled, status("cancelled"));

  auto plan = [&](std::string_view label) {
    return Exported(snapshot, "rpqres_plan_cache_events_total", label, shard);
  };
  EXPECT_EQ(stats.cache_hits, plan("hit"));
  EXPECT_EQ(stats.cache_misses, plan("miss"));
  EXPECT_EQ(stats.cache_evictions, plan("eviction"));

  auto result = [&](std::string_view label) {
    return Exported(snapshot, "rpqres_result_cache_events_total", label, shard);
  };
  EXPECT_EQ(stats.result_cache_hits, result("hit"));
  EXPECT_EQ(stats.result_cache_misses, result("miss"));
  EXPECT_EQ(stats.result_cache_evictions, result("eviction"));
  EXPECT_EQ(stats.result_cache_invalidations, result("invalidation"));

  auto event = [&](std::string_view label) {
    return Exported(snapshot, "rpqres_engine_events_total", label, shard);
  };
  EXPECT_EQ(stats.batches_run, event("batch"));
  EXPECT_EQ(stats.compilations, event("compilation"));
  EXPECT_EQ(stats.differentials_run, event("differential"));
  EXPECT_EQ(stats.differential_mismatches, event("differential_mismatch"));
  EXPECT_EQ(stats.submits, event("submit"));

  std::map<std::string, int64_t> by_algorithm;
  for (const obs::CounterFamily::Snapshot& f : snapshot.counters) {
    if (f.name != "rpqres_requests_by_algorithm_total") continue;
    for (const obs::CounterFamily::Sample& sample : f.samples) {
      if (sample.shard == shard && sample.value > 0) {
        by_algorithm[sample.label] = sample.value;
      }
    }
  }
  EXPECT_EQ(stats.instances_by_algorithm, by_algorithm);
}

/// Two-entry plan and result caches, so three queries evict from both.
EngineOptions TinyCaches() {
  EngineOptions options;
  options.num_threads = 2;
  options.plan_cache_capacity = 2;
  options.result_cache_capacity = 2;
  return options;
}

/// Drives every EngineStats counter except differential_mismatches.
void ExerciseEveryCounter(ResilienceEngine& engine, DbRegistry& registry) {
  DbHandle db = registry.Register(LayerDb(), "hot");
  // Plan and result miss, then plan and result hit.
  ASSERT_TRUE(engine.Evaluate({.regex = "ax*b", .db = db}).status.ok());
  ASSERT_TRUE(engine.Evaluate({.regex = "ax*b", .db = db}).status.ok());
  // Two more queries overflow both two-entry caches.
  ASSERT_TRUE(engine.Evaluate({.regex = "ab", .db = db}).status.ok());
  ASSERT_TRUE(engine.Evaluate({.regex = "a", .db = db}).status.ok());
  EXPECT_GT(engine.InvalidateResults(db.lineage()), 0);
  // An error, a deadline shed and a cancellation.
  EXPECT_FALSE(engine.Evaluate({.regex = "ax*b"}).status.ok());
  ResilienceRequest late{.regex = "ax*b", .db = db};
  late.options.deadline =
      std::chrono::steady_clock::now() - std::chrono::milliseconds(1);
  EXPECT_EQ(engine.Evaluate(late).status.code(), StatusCode::kDeadlineExceeded);
  auto token = std::make_shared<CancelToken>();
  token->RequestCancel();
  ResilienceRequest cancelled{.regex = "ax*b", .db = db};
  cancelled.options.cancel = token;
  EXPECT_EQ(engine.Evaluate(cancelled).status.code(), StatusCode::kCancelled);
  // A batch, a differential batch and an async submit.
  std::vector<ResilienceRequest> batch = {{.regex = "ab", .db = db},
                                          {.regex = "ax*b", .db = db}};
  engine.EvaluateBatch(batch);
  engine.EvaluateDifferential(batch);
  EXPECT_TRUE(engine.Submit({.regex = "ab", .db = db}).get().status.ok());
}

void ExpectEveryCounterExercised(const EngineStats& stats) {
  EXPECT_GT(stats.cache_hits, 0);
  EXPECT_GT(stats.cache_misses, 0);
  EXPECT_GT(stats.cache_evictions, 0);
  EXPECT_GT(stats.result_cache_hits, 0);
  EXPECT_GT(stats.result_cache_misses, 0);
  EXPECT_GT(stats.result_cache_evictions, 0);
  EXPECT_GT(stats.result_cache_invalidations, 0);
  EXPECT_GT(stats.deadline_exceeded, 0);
  EXPECT_GT(stats.cancelled, 0);
  EXPECT_GT(stats.errors, stats.deadline_exceeded + stats.cancelled);
  EXPECT_GT(stats.batches_run, 0);
  EXPECT_GT(stats.compilations, 0);
  EXPECT_GT(stats.differentials_run, 0);
  EXPECT_GT(stats.submits, 0);
  EXPECT_FALSE(stats.instances_by_algorithm.empty());
}

TEST(EngineObservabilityTest, StatsViewEqualsExportedSamples) {
  DbRegistry registry;
  ResilienceEngine engine(TinyCaches());
  ExerciseEveryCounter(engine, registry);

  const EngineStats stats = engine.stats();
  ExpectEveryCounterExercised(stats);
  ExpectViewEqualsExport(stats, engine.TakeMetricsSnapshot(), "");
}

TEST(EngineObservabilityTest, PlanCacheViewEqualsEngineStats) {
  DbRegistry registry;
  ResilienceEngine engine(TinyCaches());
  ExerciseEveryCounter(engine, registry);

  const PlanCacheView::Stats plan = engine.plan_cache_view().stats;
  const EngineStats stats = engine.stats();
  EXPECT_GT(plan.hits, 0);
  EXPECT_GT(plan.misses, 0);
  EXPECT_GT(plan.evictions, 0);
  EXPECT_EQ(plan.hits, stats.cache_hits);
  EXPECT_EQ(plan.misses, stats.cache_misses);
  EXPECT_EQ(plan.evictions, stats.cache_evictions);

  engine.ResetStats();
  const PlanCacheView::Stats reset = engine.plan_cache_view().stats;
  const EngineStats reset_stats = engine.stats();
  EXPECT_EQ(reset.hits, 0);
  EXPECT_EQ(reset.misses, 0);
  EXPECT_EQ(reset.evictions, 0);
  EXPECT_EQ(reset_stats.cache_hits, 0);
  EXPECT_EQ(reset_stats.cache_misses, 0);
  EXPECT_EQ(reset_stats.cache_evictions, 0);
}

TEST(EngineObservabilityTest, RouterStatsViewEqualsAllRollup) {
  serve::ShardedRegistry shards(4, TinyCaches());
  serve::Router router(&shards);
  for (int i = 0; i < shards.num_shards(); ++i) {
    ExerciseEveryCounter(shards.engine(i), shards.registry(i));
  }
  shards.Register(LayerDb(), "routed");
  ASSERT_TRUE(router.Submit({"tenant", {.regex = "ax*b", .db_ref = "routed@latest"}})
                  .get()
                  .status.ok());
  router.Drain();

  const EngineStats stats = router.engine_stats();
  ExpectEveryCounterExercised(stats);
  ExpectViewEqualsExport(stats, router.TakeMetricsSnapshot(), "all");
}

TEST(EngineObservabilityTest, ResetAlgorithmLabelsLeaveTheView) {
  DbRegistry registry;
  ResilienceEngine engine;
  DbHandle db = registry.Register(LayerDb(), "hot");
  ResilienceResponse response = engine.Evaluate({.regex = "ax*b", .db = db});
  ASSERT_TRUE(response.status.ok());
  const std::string algorithm = response.stats.algorithm;

  engine.ResetStats();
  // The label survives the reset at 0 in the export, but not in the view.
  EXPECT_EQ(Exported(engine.TakeMetricsSnapshot(),
                     "rpqres_requests_by_algorithm_total", algorithm, ""),
            0);
  EXPECT_TRUE(engine.stats().instances_by_algorithm.empty());

  ASSERT_TRUE(engine.Evaluate({.regex = "ax*b", .db = db}).status.ok());
  EXPECT_EQ(engine.stats().instances_by_algorithm,
            (std::map<std::string, int64_t>{{algorithm, 1}}));
}

}  // namespace
}  // namespace rpqres
