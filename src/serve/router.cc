#include "serve/router.h"

#include <iterator>
#include <utility>

#include "obs/export.h"
#include "obs/trace.h"
#include "util/thread_pool.h"

namespace rpqres::serve {

namespace {

constexpr std::string_view kAdmissionTotal = "rpqres_router_admission_total";
constexpr std::string_view kCommitsTotal = "rpqres_router_commits_total";
constexpr std::string_view kCompletions = "rpqres_router_completions_total";

/// Where each RouterStats counter is read from (AdmissionDecisionName).
constexpr obs::SampleField<RouterStats> kRouterFields[] = {
    {kAdmissionTotal, "", &RouterStats::submitted},
    {kAdmissionTotal, "admitted", &RouterStats::admitted},
    {kAdmissionTotal, "shed_deadline_expired",
     &RouterStats::shed_deadline_expired},
    {kAdmissionTotal, "shed_deadline_unmeetable",
     &RouterStats::shed_deadline_unmeetable},
    {kAdmissionTotal, "shed_shard_saturated",
     &RouterStats::shed_shard_saturated},
    {kAdmissionTotal, "shed_tenant_cap", &RouterStats::shed_tenant_cap},
    {kAdmissionTotal, "shed_shard_unavailable",
     &RouterStats::shed_shard_unavailable},
    {kCompletions, "", &RouterStats::completed},
    {kCommitsTotal, "", &RouterStats::commits_submitted},
    {kCommitsTotal, "applied", &RouterStats::commits_applied},
    {kCommitsTotal, "unavailable", &RouterStats::commits_unavailable},
    {kCommitsTotal, "shed", &RouterStats::commits_shed},
    {kCommitsTotal, "error", &RouterStats::commits_error},
};

std::string_view StatusLabel(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk:
      return "ok";
    case StatusCode::kCancelled:
      return "cancelled";
    case StatusCode::kDeadlineExceeded:
      return "deadline_exceeded";
    case StatusCode::kResourceExhausted:
      return "resource_exhausted";
    case StatusCode::kUnavailable:
      return "unavailable";
    default:
      return "error";
  }
}

int ThreadsPerShard(const ShardedRegistry& shards) {
  const int configured = shards.engine(0).options().num_threads;
  return configured > 0 ? configured : ThreadPool::DefaultNumThreads();
}

}  // namespace

RouterStats RouterStatsFromSnapshot(const obs::MetricsSnapshot& snapshot) {
  return obs::ReadSampleFields<RouterStats>(snapshot, kRouterFields);
}

Router::Router(ShardedRegistry* shards, RouterOptions options)
    : shards_(shards),
      options_(options),
      admission_(shards->num_shards(), ThreadsPerShard(*shards),
                 options.admission),
      admission_total_(metrics_.Counter(
          kAdmissionTotal,
          "Read admission decisions by outcome (admitted / shed_*)",
          "decision")),
      commits_total_(metrics_.Counter(
          kCommitsTotal,
          "Commits by outcome (applied / unavailable / shed / error)",
          "outcome")),
      completions_(metrics_.Counter(
          kCompletions, "Admitted reads whose engine run finished, by status",
          "status")),
      tenant_requests_(metrics_.Counter("rpqres_router_tenant_requests_total",
                                        "Requests submitted per tenant",
                                        "tenant")),
      tenant_sheds_(metrics_.Counter("rpqres_router_tenant_sheds_total",
                                     "Requests shed at admission per tenant",
                                     "tenant")),
      tenant_latency_(metrics_.Histogram(
          "rpqres_router_tenant_latency_micros",
          "End-to-end latency of completed requests per tenant", "tenant")),
      shed_log_(options.shed_log_capacity) {}

Router::~Router() { Drain(); }

int Router::RouteShard(const ResilienceRequest& request) const {
  if (!request.db_ref.empty()) return shards_->ShardForRef(request.db_ref);
  if (request.db.valid()) return shards_->ShardForHandle(request.db);
  // No database at all: let shard 0's engine produce the error.
  return 0;
}

std::future<ResilienceResponse> Router::Submit(ServeRequest serve) {
  ResilienceRequest& request = serve.request;
  const int shard = RouteShard(request);
  if (!request.db_ref.empty()) {
    // Name resolution must happen against the home shard's registry;
    // whatever registry the caller set cannot know the placement.
    request.registry = &shards_->registry(shard);
  }
  tenant_requests_->WithLabel(serve.tenant).Increment();

  obs::TraceContext trace;
  const int span = trace.Begin(obs::SpanKind::kAdmission);
  AdmissionController::Ticket ticket;
  AdmissionDecision decision;
  if (shards_->registry(shard).health() == HealthState::kFailed) {
    // A failed shard cannot answer anything trustworthy; a degraded one
    // still serves reads from memory, so only kFailed sheds here.
    decision = AdmissionDecision::kShedShardUnavailable;
  } else {
    decision = admission_.TryAdmit(shard, serve.tenant,
                                   request.options.deadline, &ticket);
  }
  trace.End(span);
  admission_total_->WithLabel(AdmissionDecisionName(decision)).Increment();

  if (decision != AdmissionDecision::kAdmitted) {
    const Status status = AdmissionStatus(decision, shard);
    tenant_sheds_->WithLabel(serve.tenant).Increment();
    obs::SlowQueryRecord record;
    const bool precompiled = request.query != nullptr;
    record.regex = precompiled ? request.query->regex : request.regex;
    record.semantics =
        (precompiled ? request.query->semantics : request.semantics) ==
                Semantics::kBag
            ? "bag"
            : "set";
    record.total_micros =
        trace.size() > 0 ? trace.spans()[0].duration_ns / 1000 : 0;
    record.spans_dropped = trace.dropped();
    record.spans.assign(trace.spans(), trace.spans() + trace.size());
    RecordShed(decision, status, std::move(record));

    ResilienceResponse response;
    response.status = status;
    std::promise<ResilienceResponse> promise;
    promise.set_value(std::move(response));
    return promise.get_future();
  }

  const auto start = std::chrono::steady_clock::now();
  return shards_->engine(shard).Submit(
      std::move(request),
      [this, ticket, start, tenant = std::move(serve.tenant)](
          const ResilienceResponse& response) {
        const double micros =
            std::chrono::duration<double, std::micro>(
                std::chrono::steady_clock::now() - start)
                .count();
        admission_.Complete(ticket, micros);
        tenant_latency_->WithLabel(tenant).Record(micros);
        completions_->WithLabel(StatusLabel(response.status)).Increment();
        {
          // Empty critical section: pairs the completion count with
          // Drain's locked re-check so the notify can't be missed.
          MutexLock lock(drain_mu_);
        }
        drain_cv_.NotifyAll();
      });
}

std::vector<std::future<ResilienceResponse>> Router::SubmitBatch(
    std::vector<ServeRequest> requests) {
  std::vector<std::future<ResilienceResponse>> futures;
  futures.reserve(requests.size());
  for (ServeRequest& request : requests) {
    futures.push_back(Submit(std::move(request)));
  }
  return futures;
}

ResilienceResponse Router::Evaluate(ServeRequest request) {
  return Submit(std::move(request)).get();
}

Result<DbHandle> Router::Commit(
    std::string_view tenant, std::string_view db_ref,
    const std::function<Status(DeltaBatch*)>& mutate) {
  const int shard = shards_->ShardForRef(db_ref);
  tenant_requests_->WithLabel(tenant).Increment();

  const HealthState health = shards_->registry(shard).health();
  if (health != HealthState::kHealthy) {
    const Status status = Status::Unavailable(
        "Commit shed: shard " + std::to_string(shard) + " storage is " +
        std::string(HealthStateName(health)));
    commits_total_->WithLabel("shed").Increment();
    tenant_sheds_->WithLabel(tenant).Increment();
    // No query ran: surface the write target where the regex would be.
    obs::SlowQueryRecord record;
    record.regex = "commit:" + std::string(db_ref);
    record.semantics = "write";
    RecordShed(AdmissionDecision::kShedShardUnavailable, status,
               std::move(record));
    return status;
  }

  DbRegistry& registry = shards_->registry(shard);
  Result<DbHandle> latest = registry.Resolve(db_ref);
  if (!latest.ok()) {
    commits_total_->WithLabel("error").Increment();
    return latest.status();
  }
  DeltaBatch batch = registry.BeginDelta(*latest);
  const Status mutated = mutate(&batch);
  if (!mutated.ok()) {
    commits_total_->WithLabel("error").Increment();
    return mutated;
  }
  Result<DbHandle> committed = batch.Commit();
  commits_total_
      ->WithLabel(committed.ok() ? "applied"
                  : committed.status().code() == StatusCode::kUnavailable
                      ? "unavailable"
                      : "error")
      .Increment();
  return committed;
}

void Router::Drain() {
  MutexLock lock(drain_mu_);
  for (RouterStats s = stats(); s.completed != s.admitted; s = stats()) {
    drain_cv_.Wait(drain_mu_);
  }
}

void Router::RecordShed(AdmissionDecision decision, const Status& status,
                        obs::SlowQueryRecord record) {
  record.status = std::string(StatusLabel(status));
  // No solver ran; surface the shed reason where the algorithm would be.
  record.algorithm = std::string(AdmissionDecisionName(decision));
  shed_log_.Push(std::move(record));
}

EngineStats Router::engine_stats() const {
  return EngineStatsFromSnapshot(TakeMetricsSnapshot(), "all");
}

RouterStats Router::stats() const {
  return RouterStatsFromSnapshot(metrics_.TakeSnapshot());
}

obs::MetricsSnapshot Router::TakeMetricsSnapshot() const {
  std::vector<obs::MetricsSnapshot> per_shard;
  per_shard.reserve(shards_->num_shards());
  for (int i = 0; i < shards_->num_shards(); ++i) {
    per_shard.push_back(
        shards_->engine(i).TakeMetricsSnapshot(&shards_->registry(i)));
  }
  obs::MetricsSnapshot merged = obs::MergeShardSnapshots(std::move(per_shard));

  obs::MetricsSnapshot own = metrics_.TakeSnapshot();
  for (auto& family : own.counters) {
    merged.counters.push_back(std::move(family));
  }
  for (auto& family : own.histograms) {
    merged.histograms.push_back(std::move(family));
  }
  for (int i = 0; i < shards_->num_shards(); ++i) {
    merged.gauges.push_back(
        {"rpqres_router_shard_inflight",
         "Admitted requests currently in flight on the shard",
         static_cast<double>(admission_.shard_inflight(i)),
         std::to_string(i)});
    merged.gauges.push_back(
        {"rpqres_shard_health",
         "Shard storage health (0 healthy, 1 degraded read-only, 2 failed)",
         static_cast<double>(static_cast<int>(shards_->registry(i).health())),
         std::to_string(i)});
  }
  merged.gauges.push_back({"rpqres_router_shed_log_entries",
                           "Shed records currently retained by the router",
                           static_cast<double>(shed_log_.size())});
  return merged;
}

std::string Router::ExportMetrics(MetricsFormat format) const {
  const obs::MetricsSnapshot snapshot = TakeMetricsSnapshot();
  return format == MetricsFormat::kPrometheus ? obs::ToPrometheusText(snapshot)
                                              : obs::ToJson(snapshot);
}

std::vector<obs::SlowQueryRecord> Router::shed_queries() const {
  return shed_log_.Dump();
}

std::vector<obs::SlowQueryRecord> Router::slow_queries() const {
  std::vector<obs::SlowQueryRecord> all;
  for (int i = 0; i < shards_->num_shards(); ++i) {
    std::vector<obs::SlowQueryRecord> shard = shards_->engine(i).slow_queries();
    all.insert(all.end(), std::make_move_iterator(shard.begin()),
               std::make_move_iterator(shard.end()));
  }
  std::vector<obs::SlowQueryRecord> sheds = shed_log_.Dump();
  all.insert(all.end(), std::make_move_iterator(sheds.begin()),
             std::make_move_iterator(sheds.end()));
  return all;
}

}  // namespace rpqres::serve
