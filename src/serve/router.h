// rpqres — serve/router: multi-tenant front door over a ShardedRegistry.
//
// The Router is what callers talk to in a sharded deployment:
//
//   serve::ShardedRegistry shards(4);
//   serve::Router router(&shards);
//   auto f = router.Submit({.tenant = "acme", .request = {...}});
//
// Per request it (1) resolves the target lineage to its home shard —
// by db_ref name, or by the pre-resolved handle's name — (2) runs the
// AdmissionController (bounded shard queue, per-tenant cap, deadline
// shedding), and (3) on admit hands the request to that shard's engine,
// releasing the admission slots from the engine worker the instant the
// request completes. A shed request never touches an engine: its future
// resolves immediately with kDeadlineExceeded / kResourceExhausted, the
// shed lands in the router's slow-query log with an admission-only span
// tree, and the decision is counted in router metrics. Commits take the
// same route without admission control: Commit sheds them on an unhealthy
// shard and counts every commit's outcome.
//
// The Router also merges the fleet into one view:
//   * engine_stats()      — EngineStats read from the shard="all" roll-ups
//     of TakeMetricsSnapshot;
//   * TakeMetricsSnapshot — every shard's series tagged shard="i" plus
//     shard="all" roll-ups (obs::MergeShardSnapshots), with the
//     router's own admission/tenant families appended;
//   * slow_queries()      — shard logs plus the router's shed log.
//
// Lifetime: the Router must outlive its in-flight requests (completion
// callbacks run on engine workers); the destructor Drain()s, so normal
// destruction order — router before shards — is safe.

#ifndef RPQRES_SERVE_ROUTER_H_
#define RPQRES_SERVE_ROUTER_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "obs/metrics.h"
#include "obs/slow_query_log.h"
#include "serve/admission.h"
#include "serve/sharded_registry.h"
#include "util/sync.h"
#include "util/thread_annotations.h"

namespace rpqres::serve {

/// One tenant-attributed unit of serving work.
struct ServeRequest {
  std::string tenant;
  ResilienceRequest request;
};

struct RouterOptions {
  AdmissionOptions admission;
  /// Capacity of the router's shed log (every shed is recorded; the ring
  /// keeps the most recent ones).
  size_t shed_log_capacity = 256;
};

/// Router-level counters, a view computed from the router's families
/// (RouterStatsFromSnapshot). Reads and commits are counted apart, and
/// both sides of submitted == admitted + sheds() sum one family read
/// once, so every snapshot balances; completed <= admitted holds too.
struct RouterStats {
  int64_t submitted = 0;  ///< reads: Σ admission decisions
  int64_t admitted = 0;
  int64_t completed = 0;  ///< admitted requests whose engine run finished
  int64_t shed_deadline_expired = 0;
  int64_t shed_deadline_unmeetable = 0;
  int64_t shed_shard_saturated = 0;
  int64_t shed_tenant_cap = 0;
  /// Reads refused because the home shard's storage failed outright
  /// (degraded shards still serve reads; commits_shed counts writes).
  int64_t shed_shard_unavailable = 0;

  int64_t commits_submitted = 0;  ///< Σ commit outcomes
  int64_t commits_applied = 0;
  /// Commits that reached a healthy-looking shard but came back
  /// kUnavailable (storage faulted mid-commit; the registry rolled the
  /// version back and degraded itself).
  int64_t commits_unavailable = 0;
  int64_t commits_shed = 0;  ///< shed on a degraded or failed shard
  /// Any other failure: unresolved reference, failed mutation, conflict.
  int64_t commits_error = 0;

  int64_t sheds() const {
    return shed_deadline_expired + shed_deadline_unmeetable +
           shed_shard_saturated + shed_tenant_cap + shed_shard_unavailable;
  }
};

/// The one derivation of RouterStats, from the router's unsharded samples.
RouterStats RouterStatsFromSnapshot(const obs::MetricsSnapshot& snapshot);

class Router {
 public:
  explicit Router(ShardedRegistry* shards, RouterOptions options = {});
  /// Waits for all admitted requests to complete (Drain).
  ~Router();

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Routes, admits, and (if admitted) submits to the home shard's
  /// engine. The future resolves to the engine's response, or — on a
  /// shed — immediately to a response whose status is the admission
  /// status; a shed response carries no result.
  std::future<ResilienceResponse> Submit(ServeRequest request);

  /// Fans the batch out per shard; futures[i] corresponds to
  /// requests[i]. Requests route independently — one batch may span
  /// every shard.
  std::vector<std::future<ResilienceResponse>> SubmitBatch(
      std::vector<ServeRequest> requests);

  /// Submit + wait, for synchronous callers.
  ResilienceResponse Evaluate(ServeRequest request);

  /// Routes a write to `db_ref`'s home shard and applies `mutate` to a
  /// fresh DeltaBatch on the lineage's latest version, committing the
  /// result. Health-gated: a degraded or failed shard sheds the commit
  /// with kUnavailable before any batch is built (reads keep flowing to
  /// degraded shards via Submit). A commit that faults mid-flight comes
  /// back kUnavailable too — the registry rolled it back and degraded.
  Result<DbHandle> Commit(std::string_view tenant, std::string_view db_ref,
                          const std::function<Status(DeltaBatch*)>& mutate);

  /// Blocks until no admitted request is in flight: until the completions
  /// counted equal the admissions.
  void Drain() RPQRES_EXCLUDES(drain_mu_);

  /// Fleet EngineStats: EngineStatsFromSnapshot(TakeMetricsSnapshot(),
  /// "all"), the shard="all" roll-ups of every shard engine's counters.
  EngineStats engine_stats() const;
  /// RouterStatsFromSnapshot over the router's own families.
  RouterStats stats() const;

  /// Fleet metrics: per-shard engine series tagged shard="i", shard="all"
  /// roll-ups, per-shard registry gauges, and router-level admission and
  /// tenant families.
  obs::MetricsSnapshot TakeMetricsSnapshot() const;
  std::string ExportMetrics(MetricsFormat format) const;

  /// Sheds recorded by the router (admission-only span trees).
  std::vector<obs::SlowQueryRecord> shed_queries() const;
  /// Every retained slow/shed record: each shard's engine log followed
  /// by the router's shed log.
  std::vector<obs::SlowQueryRecord> slow_queries() const;

  AdmissionController& admission() { return admission_; }
  const AdmissionController& admission() const { return admission_; }
  ShardedRegistry& shards() { return *shards_; }
  const RouterOptions& options() const { return options_; }

 private:
  /// Home shard for a request: db_ref name if present, else the
  /// handle's lineage name.
  int RouteShard(const ResilienceRequest& request) const;
  /// Logs a shed: `record` carries what was refused (the request, or a
  /// commit's target), this adds the status and the shed reason.
  void RecordShed(AdmissionDecision decision, const Status& status,
                  obs::SlowQueryRecord record);

  ShardedRegistry* const shards_;
  const RouterOptions options_;
  AdmissionController admission_;

  /// Every router event is counted once, here. The admission family is
  /// created before the completions family, so a snapshot (which reads
  /// newer families first) never shows more completions than admissions.
  obs::MetricsRegistry metrics_;
  obs::CounterFamily* const admission_total_;  // {decision}, reads only
  obs::CounterFamily* const commits_total_;    // {outcome}
  obs::CounterFamily* const completions_;      // {status}
  obs::CounterFamily* const tenant_requests_;
  obs::CounterFamily* const tenant_sheds_;
  obs::HistogramFamily* const tenant_latency_;

  obs::SlowQueryLog shed_log_;

  /// Completion callbacks notify drain_cv_ after counting; drain_mu_ only
  /// pairs that with Drain's re-check, the counters need no lock.
  rpqres::Mutex drain_mu_;
  rpqres::CondVar drain_cv_;
};

}  // namespace rpqres::serve

#endif  // RPQRES_SERVE_ROUTER_H_
