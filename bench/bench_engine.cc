// bench/bench_engine — the unified engine benchmark: replays generated
// workloads for each side of the paper's classification through
// ResilienceEngine and writes BENCH_engine.json (steady-state p50/p95
// latency and throughput per scenario; the harness runs one untimed
// warm-up batch first). Usage: bench_engine [output.json]
//
// Scenarios cover every dispatch path:
//   local_ax_star_b    — Thm 3.13 local flow (layered MinCut networks)
//   bcl_a_or_bc        — Prp 7.6 bipartite chain flow (word soups)
//   one_dangling       — Prp 7.9 one-dangling flow (dangling-pair dbs)
//   exact_ab_bc_ca     — NP-hard side, exact branch & bound (small dbs)
//   mixed_cache_churn  — all four queries interleaved over one batch,
//                        exercising the plan cache under a mixed workload
//   handle_vs_raw_v2_handle — ax*b over noisy databases via registered
//                        DbHandles; the name predates the removal of the
//                        v1 raw-pointer twin scenario and is kept so the
//                        BENCH trajectory stays comparable across PRs
//   flow_core_csr_*    — the zero-copy flow core showcases: a deep
//                        product (CSR + scratch reuse dominate) and a
//                        sparse one (the reach/co-reach sweep prunes
//                        most relevant-labeled facts)
//   delta_commit_small — registry v3 delta commits: per-commit latency of
//                        a 2-op delta across base sizes (stdout shows the
//                        per-size medians — the commit cost tracks the
//                        delta, not the database)
//   delta_commit_vs_rebuild — the same op streams priced the v2 way
//                        (full Register: GraphDb copy + from-scratch
//                        LabelIndex); the per-scenario p50 ratio is the
//                        delta-commit win
//   result_cache_hot   — repeat queries against one registered version
//                        with the version-keyed ResultCache enabled;
//                        compare p50 against handle_vs_raw_v2_handle
//                        (same database family, cache off)
//   obs_off_deep_product / obs_on_deep_product — the observability
//                        overhead pair: identical deep-product workloads
//                        on engines with tracing off vs on; CI's
//                        check_metrics_export.py asserts the obs_on p50
//                        stays within ~5% and the checksums match
//
// Besides BENCH_engine.json the run dumps the engine's Prometheus
// exposition (ExportMetrics) next to it as <output>.prom for the CI
// metrics validator.
//
// Persist mode — `bench_engine --persist [output.json]` — benchmarks the
// storage layer (storage/segment.h + journal.h): mmap-backed
// segment_cold_load vs text_reparse (parse + full Register) at 4k and
// 64k facts with equal resilience checksums, plus
// journal_replay_100_commits (restore = segment map + 100-group journal
// replay). Output: BENCH_persist.json; CI's check_metrics_export.py
// --persist asserts the 64k cold-load speedup floor and checksum
// equality.
//
// Faults mode — `bench_engine --faults [output.json]` — prices the
// failpoint instrumentation (src/fault/failpoints.h) on the persistent
// commit path. Two interleaved commit storms over identical op streams:
// one with the registry fully disabled (the production configuration —
// every storage syscall pays one relaxed atomic load) and one with every
// site armed at probability 0 (the full per-site evaluation runs on
// every syscall, but no fault ever fires). The paired design cancels
// clock drift; the mode self-gates: both storms and both reopened
// directories must agree on the resilience checksum, zero fires may be
// recorded, the disabled fast path's measured cost (ns per check times
// checks per commit) must stay under 1% of the disabled commit p50, and
// the armed-p0 p50 — the chaos-harness configuration, which pays a full
// per-site spec evaluation on every storage syscall — gets a loose
// 1.25x sanity bound against pathological regressions. Output:
// BENCH_faults.json.
//
// Serve mode — `bench_engine --serve [--shards N] [output.json]` —
// benchmarks the sharded front end instead: one seeded TrafficTrace
// replayed through a Router at 1/4/16 shards (or {1, N} with --shards),
// closed-loop mixed read/commit traffic, per-shard p50/p99 from the
// admission controller's observed latency, shed rate, and a
// tight-deadline shed storm. Per-shard engines get a fixed thread count
// and a ResultCache smaller than the trace's read key space, so shard
// counts where the per-shard working set fits the cache sustain a
// multiple of the single-shard read throughput — at equal resilience
// checksums (commits touch only noise labels). Output: BENCH_serve.json
// plus the merged multi-shard Prometheus exposition as <output>.prom.

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench/harness.h"
#include "fault/failpoints.h"
#include "graphdb/generators.h"
#include "graphdb/serialization.h"
#include "serve/router.h"
#include "serve/sharded_registry.h"
#include "util/rng.h"
#include "workload/traffic.h"

using namespace rpqres;
using namespace rpqres::bench;

namespace {

std::vector<GraphDb> LocalDbs() {
  Rng rng(1234);
  std::vector<GraphDb> dbs;
  for (int layers : {2, 4, 8, 16}) {
    dbs.push_back(LayeredFlowDb(&rng, /*sources=*/4, layers, /*width=*/6,
                                /*sinks=*/4, /*density=*/0.4,
                                /*max_multiplicity=*/50));
  }
  return dbs;
}

std::vector<GraphDb> BclDbs() {
  Rng rng(99);
  std::vector<GraphDb> dbs;
  for (int count : {8, 16, 32}) {
    dbs.push_back(WordSoupDb(&rng, {"ab", "bc"}, count,
                             /*extra_labels=*/{'a', 'b', 'c'},
                             /*cross_links=*/2 * count,
                             /*max_multiplicity=*/10));
  }
  return dbs;
}

std::vector<GraphDb> OneDanglingDbs() {
  Rng rng(7);
  std::vector<GraphDb> dbs;
  for (int pairs : {8, 16, 32}) {
    dbs.push_back(DanglingPairsDb(&rng, /*num_nodes=*/30,
                                  /*base_facts=*/60,
                                  /*base_labels=*/{'a', 'b', 'c'},
                                  /*x=*/'b', /*y=*/'e', pairs,
                                  /*max_multiplicity=*/5));
  }
  return dbs;
}

std::vector<GraphDb> ExactDbs() {
  Rng rng(42);
  std::vector<GraphDb> dbs;
  for (int facts : {12, 18, 24}) {
    dbs.push_back(RandomGraphDb(&rng, /*num_nodes=*/8, facts,
                                {'a', 'b', 'c'}, /*max_multiplicity=*/3));
  }
  return dbs;
}

// Layered ax*b flow networks drowned in inert noise facts (labels the
// query never reads). The label index skips the noise without touching
// it; same databases and seed as the PR-3 handle_vs_raw pair, so the
// BENCH trajectory for this scenario stays comparable.
std::vector<GraphDb> NoisyLocalDbs() {
  Rng rng(2718);
  std::vector<GraphDb> dbs;
  for (int layers : {4, 8, 16}) {
    GraphDb db = LayeredFlowDb(&rng, /*sources=*/4, layers, /*width=*/6,
                               /*sinks=*/4, /*density=*/0.4,
                               /*max_multiplicity=*/50);
    int nodes = db.num_nodes();
    int noise_facts = 20 * db.num_facts();  // noise dominates the fact array
    for (int i = 0; i < noise_facts; ++i) {
      char label = static_cast<char>('m' + rng.NextBelow(4));
      db.AddFact(static_cast<NodeId>(rng.NextBelow(nodes)), label,
                 static_cast<NodeId>(rng.NextBelow(nodes)),
                 /*multiplicity=*/1 + rng.NextBelow(5));
    }
    dbs.push_back(std::move(db));
  }
  return dbs;
}

// Deep layered products: the CSR build + scratch reuse dominate (nearly
// every product vertex is live, so this isolates the zero-copy pipeline
// rather than the pruning).
std::vector<GraphDb> DeepProductDbs() {
  Rng rng(31337);
  std::vector<GraphDb> dbs;
  for (int layers : {24, 32}) {
    dbs.push_back(LayeredFlowDb(&rng, /*sources=*/4, layers, /*width=*/8,
                                /*sinks=*/4, /*density=*/0.35,
                                /*max_multiplicity=*/40));
  }
  return dbs;
}

// Sparse products: a small layered ax*b region embedded in a sea of
// *relevant-labeled* x-facts among nodes no a-path ever reaches. Every
// x-fact used to become a network edge; the reach/co-reach sweep now
// skips all of them, so this isolates the product-pruning win.
std::vector<GraphDb> SparseProductDbs() {
  Rng rng(5150);
  std::vector<GraphDb> dbs;
  for (int layers : {4, 8}) {
    GraphDb db = LayeredFlowDb(&rng, /*sources=*/3, layers, /*width=*/5,
                               /*sinks=*/3, /*density=*/0.5,
                               /*max_multiplicity=*/20);
    int base_nodes = db.num_nodes();
    int extra_nodes = 6 * base_nodes;
    for (int i = 0; i < extra_nodes; ++i) db.AddNode();
    int stray_x = 10 * db.num_facts();
    for (int i = 0; i < stray_x; ++i) {
      // x-facts strictly among the extra nodes: relevant label, dead
      // product region.
      NodeId u = base_nodes + static_cast<NodeId>(rng.NextBelow(extra_nodes));
      NodeId v = base_nodes + static_cast<NodeId>(rng.NextBelow(extra_nodes));
      db.AddFact(u, 'x', v, /*multiplicity=*/1 + rng.NextBelow(8));
    }
    dbs.push_back(std::move(db));
  }
  return dbs;
}

double MicrosSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// Registry v3 delta commits vs v2-style full re-registration: identical
// deterministic op streams (add one x-fact, remove one existing fact, per
// commit) over bases of increasing size. The delta side prices
// DeltaBatch + Commit (copy-on-write overlay + incremental LabelIndex);
// the rebuild side prices what v2 forced (full GraphDb copy + full index
// build). Checksums replay ax*b on the final version of every size.
std::pair<ScenarioReport, ScenarioReport> RunDeltaCommitScenarios(
    ResilienceEngine& engine) {
  ScenarioReport delta;
  delta.name = "delta_commit_small";
  delta.description =
      "2-op delta commits across base sizes (overlay + incremental index)";
  delta.regex = "ax*b";
  delta.semantics = "bag";
  ScenarioReport rebuild = delta;
  rebuild.name = "delta_commit_vs_rebuild";
  rebuild.description =
      "same op streams, priced as v2 full re-registration per change";

  std::vector<double> delta_micros, rebuild_micros;
  const int kCommits = 40;
  for (int num_facts : {4000, 16000, 64000}) {
    Rng rng(777 + num_facts);
    GraphDb base = RandomGraphDb(&rng, /*num_nodes=*/num_facts / 10, num_facts,
                                 {'a', 'x', 'b', 'm', 'n', 'o', 'p', 'q'},
                                 /*max_multiplicity=*/4);
    DbRegistry registry;
    GraphDb twin = base;
    DbHandle latest = registry.Register(std::move(base), "delta_bench");

    // Pass 1, the v2 price of each change: evolve the flat twin and
    // re-register it wholesale (copy + full label index), recording the
    // op stream. Pass 2 replays that stream as delta commits back to
    // back, so no twin rebuild (and its heap churn) runs between them.
    struct Change {
      NodeId u, v;
      Fact removed;
    };
    std::vector<Change> changes;
    std::vector<double> size_rebuild_micros;
    for (int commit = 0; commit < kCommits; ++commit) {
      const int nodes = twin.num_nodes();
      NodeId u = static_cast<NodeId>(rng.NextBelow(nodes));
      NodeId v = static_cast<NodeId>(rng.NextBelow(nodes));
      FactId victim =
          static_cast<FactId>(rng.NextBelow(twin.num_facts()));
      changes.push_back({u, v, twin.fact(victim)});
      const Fact& removed = changes.back().removed;
      twin.AddFact(u, 'x', v);
      twin = twin.RemoveFacts({twin.FindFact(removed.source, removed.label,
                                             removed.target)});
      auto start = std::chrono::steady_clock::now();
      DbHandle rebuilt = registry.Register(twin, "rebuild_bench");
      size_rebuild_micros.push_back(MicrosSince(start));
      ++rebuild.instances;
      registry.Unregister(rebuilt.id());
    }
    rebuild_micros.insert(rebuild_micros.end(), size_rebuild_micros.begin(),
                          size_rebuild_micros.end());

    // Pass 2: the same changes as 2-op delta commits.
    std::vector<double> size_micros;
    for (const Change& change : changes) {
      const Fact& removed = change.removed;
      auto start = std::chrono::steady_clock::now();
      DeltaBatch batch = registry.BeginDelta(latest);
      if (!batch.AddFact(change.u, 'x', change.v).ok() ||
          !batch.RemoveFact(removed.source, removed.label, removed.target)
               .ok()) {
        ++delta.errors;
        continue;
      }
      Result<DbHandle> committed = batch.Commit();
      double commit_micros = MicrosSince(start);
      if (!committed.ok()) {
        ++delta.errors;
        continue;
      }
      latest = *std::move(committed);
      ++delta.instances;
      delta_micros.push_back(commit_micros);
      size_micros.push_back(commit_micros);
    }
    std::printf(
        "delta_commit_small: base=%6d facts  commit p50 %8.1fus (vs "
        "rebuild %8.1fus)\n",
        num_facts, Percentile(size_micros, 50),
        Percentile(size_rebuild_micros, 50));

    // Determinism checksum: the query answer on the final version must
    // match the flat twin's — and stay fixed across machines.
    for (ScenarioReport* report : {&delta, &rebuild}) {
      ResilienceRequest request;
      request.regex = "ax*b";
      request.semantics = Semantics::kBag;
      request.db = report == &delta ? latest : registry.Register(twin);
      ResilienceResponse response = engine.Evaluate(request);
      if (response.status.ok() && !response.result.infinite) {
        report->resilience_checksum += response.result.value;
      } else if (!response.status.ok()) {
        ++report->errors;
      }
      if (report->algorithm.empty()) {
        report->algorithm = response.stats.algorithm;
        report->complexity = response.stats.complexity;
        report->rule = response.stats.rule;
      }
    }
  }

  for (auto [report, samples] :
       {std::make_pair(&delta, &delta_micros),
        std::make_pair(&rebuild, &rebuild_micros)}) {
    report->solve_p50_micros = Percentile(*samples, 50);
    report->solve_p95_micros = Percentile(*samples, 95);
    report->solve_p99_micros = Percentile(*samples, 99);
    report->solve_max_micros = Percentile(*samples, 100);
    obs::LatencyHistogram histogram;
    for (double micros : *samples) histogram.Record(micros);
    report->solve_histogram = histogram.TakeSnapshot();
    double sum = 0;
    for (double micros : *samples) {
      sum += micros;
      report->total_wall_micros += micros;
    }
    if (!samples->empty()) {
      report->solve_mean_micros = sum / static_cast<double>(samples->size());
    }
    if (report->total_wall_micros > 0) {
      report->throughput_qps = static_cast<double>(report->instances) /
                               (report->total_wall_micros / 1e6);
    }
  }
  return {std::move(delta), std::move(rebuild)};
}

// Observability overhead pair: identical deep-product workloads on two
// fresh engines, per-request tracing off vs on. The engines alternate
// round by round — a paired design, so clock-speed drift and scheduler
// noise over the run hit both sides equally and the p50 delta isolates
// the tracing cost. CI (scripts/check_metrics_export.py) asserts the
// obs_on p50 stays within the overhead budget and the checksums match.
std::pair<ScenarioReport, ScenarioReport> RunObservabilityPair() {
  ScenarioReport off;
  off.name = "obs_off_deep_product";
  off.description =
      "ax*b over deep products, per-request tracing disabled "
      "(overhead control; interleaved with obs_on)";
  off.regex = "ax*b";
  off.semantics = "bag";
  ScenarioReport on = off;
  on.name = "obs_on_deep_product";
  on.description =
      "same workload with trace spans recorded on every request";

  DbRegistry registry;
  std::vector<DbHandle> handles;
  for (GraphDb& db : DeepProductDbs()) {
    handles.push_back(registry.Register(std::move(db), "obs_pair"));
  }
  std::vector<ResilienceRequest> requests;
  for (const DbHandle& handle : handles) {
    ResilienceRequest request;
    request.regex = "ax*b";
    request.db = handle;
    request.semantics = Semantics::kBag;
    requests.push_back(std::move(request));
  }

  // Single-threaded engines: the pair measures per-request cost, and a
  // pool would add scheduling jitter to exactly the delta under test.
  EngineOptions off_options;
  off_options.num_threads = 1;
  off_options.enable_tracing = false;
  EngineOptions on_options = off_options;
  on_options.enable_tracing = true;
  ResilienceEngine engine_off(off_options);
  ResilienceEngine engine_on(on_options);

  const int kWarmupRounds = 3;
  const int kRounds = 60;
  std::vector<double> off_micros, on_micros;
  for (int round = 0; round < kWarmupRounds + kRounds; ++round) {
    const bool timed = round >= kWarmupRounds;
    for (auto [engine, report, samples] :
         {std::make_tuple(&engine_off, &off, &off_micros),
          std::make_tuple(&engine_on, &on, &on_micros)}) {
      auto start = std::chrono::steady_clock::now();
      std::vector<ResilienceResponse> outcomes =
          engine->EvaluateBatch(requests);
      if (!timed) continue;
      report->total_wall_micros += MicrosSince(start);
      for (const ResilienceResponse& outcome : outcomes) {
        ++report->instances;
        if (!outcome.status.ok()) {
          ++report->errors;
          continue;
        }
        samples->push_back(outcome.stats.solve_micros);
        if (!outcome.result.infinite) {
          report->resilience_checksum += outcome.result.value;
        }
        if (report->algorithm.empty()) {
          report->algorithm = outcome.stats.algorithm;
          report->complexity = outcome.stats.complexity;
          report->rule = outcome.stats.rule;
        }
      }
    }
  }

  for (auto [report, samples] : {std::make_pair(&off, &off_micros),
                                 std::make_pair(&on, &on_micros)}) {
    report->solve_p50_micros = Percentile(*samples, 50);
    report->solve_p95_micros = Percentile(*samples, 95);
    report->solve_p99_micros = Percentile(*samples, 99);
    report->solve_max_micros = Percentile(*samples, 100);
    obs::LatencyHistogram histogram;
    double sum = 0;
    for (double micros : *samples) {
      histogram.Record(micros);
      sum += micros;
    }
    report->solve_histogram = histogram.TakeSnapshot();
    if (!samples->empty()) {
      report->solve_mean_micros = sum / static_cast<double>(samples->size());
    }
    if (report->total_wall_micros > 0) {
      report->throughput_qps = static_cast<double>(report->instances) /
                               (report->total_wall_micros / 1e6);
    }
  }
  return {std::move(off), std::move(on)};
}

// ---------------------------------------------------------------------------
// Persist mode: storage-layer cold loads vs text reparse, journal replay.

struct PersistRun {
  std::string name;
  int num_facts = 0;
  int reps = 0;
  double p50_micros = 0;
  double p95_micros = 0;
  int64_t resilience_checksum = 0;
};

GraphDb PersistBenchDb(int num_facts) {
  Rng rng(4242 + num_facts);
  return RandomGraphDb(&rng, /*num_nodes=*/num_facts / 10, num_facts,
                       {'a', 'x', 'b', 'm', 'n', 'o', 'p', 'q'},
                       /*max_multiplicity=*/4);
}

int64_t PersistChecksum(ResilienceEngine& engine, const DbHandle& handle) {
  ResilienceRequest request;
  request.regex = "ax*b";
  request.semantics = Semantics::kBag;
  request.db = handle;
  ResilienceResponse response = engine.Evaluate(request);
  if (!response.status.ok()) return -1;
  return response.result.infinite ? -2 : response.result.value;
}

int RunPersistBench(const std::string& output) {
  namespace fs = std::filesystem;
  EngineOptions engine_options;
  engine_options.num_threads = 2;
  ResilienceEngine engine(engine_options);
  std::vector<PersistRun> runs;

  for (int num_facts : {4000, 64000}) {
    GraphDb db = PersistBenchDb(num_facts);
    const std::string text = SerializeGraphDb(db);
    const std::string dir =
        (fs::temp_directory_path() /
         ("rpqres_bench_persist_" + std::to_string(num_facts) + "_" +
          std::to_string(::getpid())))
            .string();
    std::error_code ec;
    fs::remove_all(dir, ec);
    {
      DbRegistry::Options options;
      options.storage_dir = dir;
      DbRegistry writer(options);
      writer.Register(std::move(db), "bench");
      Status storage = writer.storage_status();
      if (!storage.ok()) {
        std::fprintf(stderr, "error: segment write failed: %s\n",
                     storage.ToString().c_str());
        return 1;
      }
    }

    // Cold load: mmap the segment and materialize GraphDb + LabelIndex.
    // Each rep opens a fresh registry; the page cache stays warm across
    // reps (that is the deployment story too — the cold part is the
    // parse/index work the mmap path skips, not the disk).
    PersistRun cold;
    cold.name = "segment_cold_load";
    cold.num_facts = num_facts;
    cold.reps = 15;
    std::vector<double> cold_micros;
    for (int rep = 0; rep < cold.reps; ++rep) {
      auto start = std::chrono::steady_clock::now();
      Result<std::unique_ptr<DbRegistry>> opened =
          DbRegistry::OpenStorage(dir);
      double micros = MicrosSince(start);
      if (!opened.ok()) {
        std::fprintf(stderr, "error: OpenStorage failed: %s\n",
                     opened.status().ToString().c_str());
        return 1;
      }
      cold_micros.push_back(micros);
      if (rep == 0) {
        Result<DbHandle> handle = (*opened)->Resolve("bench@latest");
        if (handle.ok()) {
          cold.resilience_checksum = PersistChecksum(engine, *handle);
        }
      }
    }
    cold.p50_micros = Percentile(cold_micros, 50);
    cold.p95_micros = Percentile(cold_micros, 95);

    // The pre-storage restart path: reparse the text dump and Register
    // (full copy + from-scratch LabelIndex build).
    PersistRun reparse;
    reparse.name = "text_reparse";
    reparse.num_facts = num_facts;
    reparse.reps = 7;
    std::vector<double> reparse_micros;
    for (int rep = 0; rep < reparse.reps; ++rep) {
      auto start = std::chrono::steady_clock::now();
      DbRegistry registry;
      Result<GraphDb> parsed = ParseGraphDb(text);
      if (!parsed.ok()) {
        std::fprintf(stderr, "error: ParseGraphDb failed: %s\n",
                     parsed.status().ToString().c_str());
        return 1;
      }
      DbHandle handle = registry.Register(*std::move(parsed), "bench");
      reparse_micros.push_back(MicrosSince(start));
      if (rep == 0) {
        reparse.resilience_checksum = PersistChecksum(engine, handle);
      }
    }
    reparse.p50_micros = Percentile(reparse_micros, 50);
    reparse.p95_micros = Percentile(reparse_micros, 95);

    std::printf(
        "persist %6d facts  cold load p50 %9.1fus  reparse p50 %9.1fus  "
        "(%.1fx)  checksum %lld%s\n",
        num_facts, cold.p50_micros, reparse.p50_micros,
        cold.p50_micros > 0 ? reparse.p50_micros / cold.p50_micros : 0.0,
        static_cast<long long>(cold.resilience_checksum),
        cold.resilience_checksum == reparse.resilience_checksum
            ? ""
            : "  CHECKSUM MISMATCH");
    runs.push_back(std::move(cold));
    runs.push_back(std::move(reparse));
    fs::remove_all(dir, ec);
  }

  // Journal replay: restore = segment mmap + replaying 100 journaled
  // delta groups (compaction disabled so every group survives).
  PersistRun replay;
  replay.name = "journal_replay_100_commits";
  replay.num_facts = 2000;
  replay.reps = 10;
  const int kReplayCommits = 100;
  int64_t replay_records = 0;
  {
    const std::string dir =
        (fs::temp_directory_path() /
         ("rpqres_bench_persist_journal_" + std::to_string(::getpid())))
            .string();
    std::error_code ec;
    fs::remove_all(dir, ec);
    {
      DbRegistry::Options options;
      options.storage_dir = dir;
      options.compaction_min_overlay = 1 << 30;
      DbRegistry registry(options);
      Rng rng(271828);
      DbHandle latest =
          registry.Register(PersistBenchDb(replay.num_facts), "bench");
      for (int commit = 0; commit < kReplayCommits; ++commit) {
        DeltaBatch batch = registry.BeginDelta(latest);
        NodeId u = static_cast<NodeId>(
            rng.NextBelow(latest.db().num_nodes()));
        NodeId v = static_cast<NodeId>(
            rng.NextBelow(latest.db().num_nodes()));
        (void)batch.AddFact(u, 'x', v);
        NodeId n = batch.AddNode();
        (void)batch.AddFact(n, 'a', u);
        Result<DbHandle> committed = batch.Commit();
        if (!committed.ok()) {
          std::fprintf(stderr, "error: bench commit failed: %s\n",
                       committed.status().ToString().c_str());
          return 1;
        }
        latest = *std::move(committed);
      }
      if (!registry.storage_status().ok()) {
        std::fprintf(stderr, "error: journal writes failed\n");
        return 1;
      }
    }
    std::vector<double> replay_micros;
    for (int rep = 0; rep < replay.reps; ++rep) {
      auto start = std::chrono::steady_clock::now();
      Result<std::unique_ptr<DbRegistry>> opened =
          DbRegistry::OpenStorage(dir);
      double micros = MicrosSince(start);
      if (!opened.ok()) {
        std::fprintf(stderr, "error: replay OpenStorage failed: %s\n",
                     opened.status().ToString().c_str());
        return 1;
      }
      replay_micros.push_back(micros);
      if (rep == 0) {
        replay_records = (*opened)->gauges().storage_journal_records;
        Result<DbHandle> handle = (*opened)->Resolve("bench@latest");
        if (handle.ok()) {
          replay.resilience_checksum = PersistChecksum(engine, *handle);
        }
      }
    }
    replay.p50_micros = Percentile(replay_micros, 50);
    replay.p95_micros = Percentile(replay_micros, 95);
    fs::remove_all(dir, ec);
  }
  std::printf("persist journal replay  %d commits (%lld records)  p50 %9.1fus\n",
              kReplayCommits, static_cast<long long>(replay_records),
              replay.p50_micros);
  runs.push_back(replay);

  std::ostringstream out;
  out << "{\n  \"bench\": \"persist\",\n  \"runs\": [\n";
  for (size_t i = 0; i < runs.size(); ++i) {
    const PersistRun& run = runs[i];
    out << "    {\"name\": \"" << run.name
        << "\", \"num_facts\": " << run.num_facts
        << ", \"reps\": " << run.reps
        << ", \"p50_micros\": " << run.p50_micros
        << ", \"p95_micros\": " << run.p95_micros
        << ", \"resilience_checksum\": " << run.resilience_checksum << "}"
        << (i + 1 < runs.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"speedup\": [\n";
  bool first = true;
  for (int num_facts : {4000, 64000}) {
    const PersistRun* cold = nullptr;
    const PersistRun* reparse = nullptr;
    for (const PersistRun& run : runs) {
      if (run.num_facts != num_facts) continue;
      if (run.name == "segment_cold_load") cold = &run;
      if (run.name == "text_reparse") reparse = &run;
    }
    if (cold == nullptr || reparse == nullptr || cold->p50_micros <= 0) {
      continue;
    }
    if (!first) out << ",\n";
    first = false;
    out << "    {\"num_facts\": " << num_facts
        << ", \"cold_load_x_reparse\": "
        << reparse->p50_micros / cold->p50_micros << "}";
  }
  out << "\n  ],\n  \"journal_replay\": {\"commits\": " << kReplayCommits
      << ", \"records\": " << replay_records
      << ", \"p50_micros\": " << replay.p50_micros << "}\n}\n";

  std::ofstream json(output);
  json << out.str();
  if (!json) {
    std::fprintf(stderr, "error: failed writing %s\n", output.c_str());
    return 1;
  }
  std::printf("wrote %s\n", output.c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// Faults mode: the price of compiled-in failpoints on the commit path.

struct FaultsRun {
  std::string name;
  int commits = 0;
  double p50_micros = 0;   ///< per-commit (batch time / batch size)
  double p95_micros = 0;
  int64_t resilience_checksum = 0;  ///< ax*b on the final in-memory version
  int64_t restored_checksum = 0;    ///< same query after OpenStorage
};

// One side of the paired storm: a persistent registry that receives the
// same deterministic op stream as its twin, timed in batches.
struct FaultsSide {
  std::string dir;
  std::unique_ptr<DbRegistry> registry;
  DbHandle latest;
  Rng ops_rng{0};
  std::vector<double> commit_micros;
};

void ArmAllSitesAtZero() {
  for (std::string_view site : fault::KnownSites()) {
    fault::FailpointRegistry::Instance().Arm(
        site, fault::FaultSpec::WithProbability(fault::FaultKind::kEIO,
                                                /*probability=*/0.0,
                                                /*seed=*/1));
  }
}

int RunFaultsBench(const std::string& output) {
  namespace fs = std::filesystem;
  constexpr int kBatch = 16;
  constexpr int kWarmupRounds = 3;
  constexpr int kRounds = 40;
  constexpr int kBaseFacts = 2000;
  constexpr double kDisabledBudget = 0.01;  // fraction of the commit p50
  constexpr double kArmedSanityBudget = 1.25;  // armed p50 vs disabled p50
  constexpr double kArmedSlackMicros = 25.0;

  fault::FailpointRegistry::Instance().ResetAll();
  EngineOptions engine_options;
  engine_options.num_threads = 2;
  ResilienceEngine engine(engine_options);

  FaultsSide sides[2];
  const char* names[2] = {"failpoints_disabled", "failpoints_armed_p0"};
  std::error_code ec;
  for (int s = 0; s < 2; ++s) {
    sides[s].dir = (fs::temp_directory_path() /
                    ("rpqres_bench_faults_" + std::to_string(s) + "_" +
                     std::to_string(::getpid())))
                       .string();
    fs::remove_all(sides[s].dir, ec);
    DbRegistry::Options options;
    options.storage_dir = sides[s].dir;
    sides[s].registry = std::make_unique<DbRegistry>(options);
    sides[s].latest =
        sides[s].registry->Register(PersistBenchDb(kBaseFacts), "bench");
    sides[s].ops_rng = Rng(987654321);  // identical streams on both sides
  }

  // Alternate sides round by round (paired design: drift hits both).
  // Arming happens OUTSIDE the timed region; the armed side evaluates
  // every site's spec on every storage syscall yet never fires.
  for (int round = 0; round < kWarmupRounds + kRounds; ++round) {
    const bool timed = round >= kWarmupRounds;
    for (int s = 0; s < 2; ++s) {
      FaultsSide& side = sides[s];
      if (s == 1) {
        ArmAllSitesAtZero();
      } else {
        fault::FailpointRegistry::Instance().ResetAll();
      }
      auto start = std::chrono::steady_clock::now();
      for (int commit = 0; commit < kBatch; ++commit) {
        const int nodes = side.latest.db().num_nodes();
        NodeId u = static_cast<NodeId>(side.ops_rng.NextBelow(nodes));
        NodeId v = static_cast<NodeId>(side.ops_rng.NextBelow(nodes));
        DeltaBatch batch = side.registry->BeginDelta(side.latest);
        (void)batch.AddFact(u, 'x', v);
        Result<DbHandle> committed = batch.Commit();
        if (!committed.ok()) {
          std::fprintf(stderr, "error: faults bench commit failed: %s\n",
                       committed.status().ToString().c_str());
          return 1;
        }
        side.latest = *std::move(committed);
      }
      double batch_micros = MicrosSince(start);
      if (timed) {
        side.commit_micros.push_back(batch_micros / kBatch);
      }
    }
  }
  // The loop above ends on an armed batch whose per-site counters are
  // still live: they price how many failpoint evaluations one commit
  // performs on this configuration's storage path.
  const int64_t armed_fires = fault::FailpointRegistry::Instance().TotalFires();
  int64_t evals_last_batch = 0;
  for (const fault::SiteStats& site :
       fault::FailpointRegistry::Instance().Stats()) {
    evals_last_batch += site.evaluations;
  }
  const double evals_per_commit =
      static_cast<double>(evals_last_batch) / kBatch;
  fault::FailpointRegistry::Instance().ResetAll();

  // The disabled fast path, priced alone: one evaluation per storage
  // syscall reduces to this relaxed load + branch.
  double check_nanos = 0;
  {
    constexpr int kChecks = 1 << 20;
    auto start = std::chrono::steady_clock::now();
    int fired = 0;
    for (int i = 0; i < kChecks; ++i) {
      fired += fault::Check(fault::sites::kJournalWrite).fired() ? 1 : 0;
    }
    check_nanos = MicrosSince(start) * 1e3 / kChecks;
    if (fired != 0) {
      std::fprintf(stderr, "error: disabled failpoint fired\n");
      return 1;
    }
  }

  FaultsRun runs[2];
  for (int s = 0; s < 2; ++s) {
    runs[s].name = names[s];
    runs[s].commits = static_cast<int>(sides[s].commit_micros.size()) * kBatch;
    runs[s].p50_micros = Percentile(sides[s].commit_micros, 50);
    runs[s].p95_micros = Percentile(sides[s].commit_micros, 95);
    runs[s].resilience_checksum = PersistChecksum(engine, sides[s].latest);
    if (!sides[s].registry->storage_status().ok()) {
      std::fprintf(stderr, "error: %s storm degraded storage: %s\n",
                   names[s],
                   sides[s].registry->storage_status().ToString().c_str());
      return 1;
    }
    sides[s].registry.reset();
    Result<std::unique_ptr<DbRegistry>> reopened =
        DbRegistry::OpenStorage(sides[s].dir);
    if (!reopened.ok()) {
      std::fprintf(stderr, "error: %s reopen failed: %s\n", names[s],
                   reopened.status().ToString().c_str());
      return 1;
    }
    Result<DbHandle> restored = (*reopened)->Resolve("bench@latest");
    runs[s].restored_checksum =
        restored.ok() ? PersistChecksum(engine, *restored) : -1;
    fs::remove_all(sides[s].dir, ec);
  }

  const double ratio = runs[0].p50_micros > 0
                           ? runs[1].p50_micros / runs[0].p50_micros
                           : 0.0;
  // The ISSUE gate: failpoints compiled in but DISABLED cost under 1% of
  // a commit. Priced directly — measured ns per disabled check times the
  // checks one commit actually performs, against the disabled p50.
  const double disabled_overhead_fraction =
      runs[0].p50_micros > 0
          ? (check_nanos * evals_per_commit) / (runs[0].p50_micros * 1e3)
          : 1.0;
  const bool disabled_ok = disabled_overhead_fraction <= kDisabledBudget;
  const bool armed_ok =
      runs[1].p50_micros <=
      runs[0].p50_micros * kArmedSanityBudget + kArmedSlackMicros;
  const bool checksums_ok =
      runs[0].resilience_checksum == runs[1].resilience_checksum &&
      runs[0].resilience_checksum == runs[0].restored_checksum &&
      runs[1].resilience_checksum == runs[1].restored_checksum;

  for (const FaultsRun& run : runs) {
    std::printf("faults %-22s %4d commits  p50 %8.2fus  p95 %8.2fus  "
                "checksum %lld (restored %lld)\n",
                run.name.c_str(), run.commits, run.p50_micros, run.p95_micros,
                static_cast<long long>(run.resilience_checksum),
                static_cast<long long>(run.restored_checksum));
  }
  std::printf(
      "faults disabled check: %.2fns/op x %.1f/commit = %.4f%% of p50 "
      "(budget %.0f%%)%s\n",
      check_nanos, evals_per_commit, disabled_overhead_fraction * 100,
      kDisabledBudget * 100, disabled_ok ? "" : "  DISABLED GATE FAILED");
  std::printf("faults armed-p0 fires: %lld  p50 ratio: %.4fx "
              "(sanity %.2fx + %.0fus)%s%s\n",
              static_cast<long long>(armed_fires), ratio, kArmedSanityBudget,
              kArmedSlackMicros, armed_ok ? "" : "  ARMED SANITY FAILED",
              checksums_ok ? "" : "  CHECKSUM MISMATCH");

  std::ostringstream out;
  out << "{\n  \"bench\": \"faults\",\n  \"sites\": "
      << fault::KnownSites().size()
      << ",\n  \"disabled_check_ns\": " << check_nanos
      << ",\n  \"armed_p0_fires\": " << armed_fires << ",\n  \"runs\": [\n";
  for (int s = 0; s < 2; ++s) {
    out << "    {\"name\": \"" << runs[s].name
        << "\", \"commits\": " << runs[s].commits
        << ", \"p50_micros\": " << runs[s].p50_micros
        << ", \"p95_micros\": " << runs[s].p95_micros
        << ", \"resilience_checksum\": " << runs[s].resilience_checksum
        << ", \"restored_checksum\": " << runs[s].restored_checksum << "}"
        << (s == 0 ? "," : "") << "\n";
  }
  out << "  ],\n  \"overhead\": {\"disabled_check_ns\": " << check_nanos
      << ", \"checks_per_commit\": " << evals_per_commit
      << ", \"disabled_fraction_of_p50\": " << disabled_overhead_fraction
      << ", \"disabled_budget\": " << kDisabledBudget
      << ", \"disabled_pass\": " << (disabled_ok ? "true" : "false")
      << ", \"armed_p0_p50_x_disabled\": " << ratio
      << ", \"armed_sanity_budget\": " << kArmedSanityBudget
      << ", \"armed_pass\": " << (armed_ok ? "true" : "false")
      << "},\n  \"checksums_equal\": " << (checksums_ok ? "true" : "false")
      << "\n}\n";
  std::ofstream json(output);
  json << out.str();
  if (!json) {
    std::fprintf(stderr, "error: failed writing %s\n", output.c_str());
    return 1;
  }
  std::printf("wrote %s\n", output.c_str());
  return (disabled_ok && armed_ok && checksums_ok && armed_fires == 0) ? 0
                                                                       : 1;
}

// ---------------------------------------------------------------------------
// Serve mode: sharded front-end throughput under seeded mixed traffic.

// Per-shard engine configuration is FIXED across shard counts — the
// bench measures scale-out, so more shards mean more total threads and
// more total ResultCache, never bigger per-shard resources.
constexpr int kServeThreadsPerShard = 2;
constexpr int kServeResultCacheCapacity = 96;
constexpr uint64_t kServeTrafficSeed = 31415926;
constexpr int kServeTimedOps = 5000;
constexpr int kServeWave = 250;  // in-flight bound: below every admission cap
constexpr int kServeStormRequests = 600;

EngineOptions ServeEngineOptions() {
  EngineOptions options;
  options.num_threads = kServeThreadsPerShard;
  options.result_cache_capacity = kServeResultCacheCapacity;
  return options;
}

// 32 lineages x 4 queries x {set,bag} = 256 distinct read keys: far past
// one shard's 96-entry cache (a single shard thrashes), comfortably
// inside it once hashed over 4+ shards (each shard's slice stays
// resident).
workload::TrafficOptions ServeTrafficOptions() {
  workload::TrafficOptions options;
  options.num_lineages = 32;
  // Larger lineage databases than the test-suite default: a cache miss
  // prices a real solve, so the resident-vs-thrashing contrast between
  // shard counts dwarfs router/runner overhead and run-to-run noise.
  options.db_num_nodes = 80;
  options.db_num_facts = 320;
  return options;
}

struct ServeShardRun {
  int shards = 0;
  int64_t reads = 0;
  int64_t commits = 0;
  int64_t errors = 0;
  int64_t submitted = 0;  ///< timed-phase router submissions
  int64_t sheds = 0;
  double wall_micros = 0;
  double read_qps = 0;
  double shed_rate = 0;
  int64_t resilience_checksum = 0;
  int64_t result_cache_hits = 0;
  int64_t result_cache_misses = 0;
  struct PerShard {
    int64_t instances = 0;  ///< engine instances this shard ran
    uint64_t latency_count = 0;
    double p50_micros = 0;
    double p99_micros = 0;
  };
  std::vector<PerShard> per_shard;
};

struct ServeStorm {
  int shards = 0;
  int64_t submitted = 0;
  int64_t shed_deadline = 0;
  int64_t shed_exhausted = 0;
  double shed_rate = 0;
};

// One closed-loop traffic run at `num_shards`. When `storm` is non-null
// this is the reporting configuration: after the timed phase it also
// runs the tight-deadline shed storm and dumps the router's merged
// multi-shard Prometheus exposition into `*prom`.
ServeShardRun RunServeTraffic(int num_shards, ServeStorm* storm,
                              std::string* prom) {
  using workload::TrafficOp;

  serve::ShardedRegistry shards(num_shards, ServeEngineOptions());
  serve::Router router(&shards);
  workload::TrafficTrace trace(kServeTrafficSeed, ServeTrafficOptions());
  for (int i = 0; i < trace.num_lineages(); ++i) {
    shards.Register(trace.MakeDb(i), trace.lineage_name(i));
  }

  // Warm-up (untimed): enumerate the full read key space once, so shard
  // counts whose per-shard slice fits the ResultCache enter the timed
  // phase resident, and every plan is compiled everywhere.
  const std::vector<std::string>& pool = workload::TrafficReadPool();
  const int queries_per_lineage = trace.options().queries_per_lineage;
  std::vector<std::future<ResilienceResponse>> warm;
  for (int lineage = 0; lineage < trace.num_lineages(); ++lineage) {
    for (int j = 0; j < queries_per_lineage; ++j) {
      for (Semantics semantics : {Semantics::kBag, Semantics::kSet}) {
        ResilienceRequest request;
        request.regex =
            pool[(lineage * queries_per_lineage + j) % pool.size()];
        request.db_ref = trace.lineage_name(lineage) + "@latest";
        request.semantics = semantics;
        warm.push_back(router.Submit({"warmup", std::move(request)}));
      }
    }
  }
  for (auto& future : warm) future.get();
  router.Drain();

  const serve::RouterStats router_before = router.stats();
  const EngineStats engines_before = router.engine_stats();

  ServeShardRun run;
  run.shards = num_shards;

  std::vector<TrafficOp> ops = trace.NextOps(kServeTimedOps);
  std::vector<std::future<ResilienceResponse>> inflight;
  inflight.reserve(kServeWave);
  auto drain_wave = [&] {
    for (auto& future : inflight) {
      ResilienceResponse response = future.get();
      if (!response.status.ok()) {
        ++run.errors;
      } else if (!response.result.infinite) {
        run.resilience_checksum += response.result.value;
      }
    }
    inflight.clear();
  };

  const auto start = std::chrono::steady_clock::now();
  for (TrafficOp& op : ops) {
    if (op.kind == TrafficOp::Kind::kCommit) {
      DbRegistry& registry = shards.registry(shards.ShardForRef(op.db_ref));
      if (!workload::TrafficTrace::ApplyCommit(op, &registry).ok()) {
        ++run.errors;
      }
      ++run.commits;
      continue;
    }
    ResilienceRequest request;
    request.regex = op.regex;
    request.db_ref = op.db_ref;
    request.semantics = op.semantics;
    inflight.push_back(router.Submit(
        {"tenant" + std::to_string(op.tenant), std::move(request)}));
    ++run.reads;
    if (inflight.size() >= kServeWave) drain_wave();
  }
  drain_wave();
  router.Drain();
  run.wall_micros = MicrosSince(start);

  const serve::RouterStats router_after = router.stats();
  const EngineStats engines_after = router.engine_stats();
  run.submitted = router_after.submitted - router_before.submitted;
  run.sheds = router_after.sheds() - router_before.sheds();
  run.shed_rate = run.submitted > 0
                      ? static_cast<double>(run.sheds) /
                            static_cast<double>(run.submitted)
                      : 0.0;
  run.result_cache_hits =
      engines_after.result_cache_hits - engines_before.result_cache_hits;
  run.result_cache_misses =
      engines_after.result_cache_misses - engines_before.result_cache_misses;
  if (run.wall_micros > 0) {
    run.read_qps =
        static_cast<double>(run.reads) / (run.wall_micros / 1e6);
  }
  for (int i = 0; i < num_shards; ++i) {
    obs::LatencyHistogram::Snapshot latency =
        router.admission().ShardLatency(i);
    ServeShardRun::PerShard per_shard;
    per_shard.instances = shards.engine(i).stats().instances_run;
    per_shard.latency_count = latency.total_count;
    per_shard.p50_micros = latency.Quantile(0.5);
    per_shard.p99_micros = latency.Quantile(0.99);
    run.per_shard.push_back(per_shard);
  }

  if (storm != nullptr) {
    // Shed storm: a single tenant bursts against the hot lineage with
    // every other request already past its deadline — admission must
    // refuse those before any solver, and the per-tenant cap prices the
    // rest of the burst.
    storm->shards = num_shards;
    std::vector<std::future<ResilienceResponse>> futures;
    futures.reserve(kServeStormRequests);
    for (int i = 0; i < kServeStormRequests; ++i) {
      ResilienceRequest request;
      request.regex = pool[0];
      request.db_ref = trace.lineage_name(0) + "@latest";
      request.semantics = Semantics::kBag;
      if (i % 2 == 0) {
        request.options.deadline = std::chrono::steady_clock::now() -
                                   std::chrono::milliseconds(1);
      }
      futures.push_back(router.Submit({"storm", std::move(request)}));
    }
    for (auto& future : futures) {
      ++storm->submitted;
      const StatusCode code = future.get().status.code();
      if (code == StatusCode::kDeadlineExceeded) ++storm->shed_deadline;
      if (code == StatusCode::kResourceExhausted) ++storm->shed_exhausted;
    }
    router.Drain();
    storm->shed_rate =
        static_cast<double>(storm->shed_deadline + storm->shed_exhausted) /
        static_cast<double>(storm->submitted);
  }
  if (prom != nullptr) {
    *prom = router.ExportMetrics(MetricsFormat::kPrometheus);
  }
  return run;
}

std::string ServeJson(const std::vector<ServeShardRun>& runs,
                      const ServeStorm& storm) {
  const workload::TrafficTrace trace(kServeTrafficSeed,
                                     ServeTrafficOptions());
  std::ostringstream out;
  out << "{\n";
  out << "  \"bench\": \"serve\",\n";
  out << "  \"traffic_seed\": " << kServeTrafficSeed << ",\n";
  out << "  \"engine\": {\"num_threads_per_shard\": " << kServeThreadsPerShard
      << ", \"result_cache_capacity\": " << kServeResultCacheCapacity
      << "},\n";
  out << "  \"traffic\": {\"num_lineages\": " << trace.num_lineages()
      << ", \"distinct_read_keys\": " << 2 * trace.distinct_read_keys()
      << ", \"timed_ops\": " << kServeTimedOps << "},\n";
  out << "  \"runs\": [\n";
  for (size_t r = 0; r < runs.size(); ++r) {
    const ServeShardRun& run = runs[r];
    out << "    {\"shards\": " << run.shards << ", \"reads\": " << run.reads
        << ", \"commits\": " << run.commits
        << ", \"errors\": " << run.errors
        << ", \"submitted\": " << run.submitted
        << ", \"sheds\": " << run.sheds
        << ", \"shed_rate\": " << run.shed_rate
        << ", \"wall_micros\": " << run.wall_micros
        << ", \"read_throughput_qps\": " << run.read_qps
        << ", \"resilience_checksum\": " << run.resilience_checksum
        << ", \"result_cache_hits\": " << run.result_cache_hits
        << ", \"result_cache_misses\": " << run.result_cache_misses
        << ",\n     \"per_shard\": [";
    for (size_t i = 0; i < run.per_shard.size(); ++i) {
      const ServeShardRun::PerShard& shard = run.per_shard[i];
      if (i > 0) out << ", ";
      out << "{\"shard\": " << i << ", \"instances\": " << shard.instances
          << ", \"latency_count\": " << shard.latency_count
          << ", \"p50_micros\": " << shard.p50_micros
          << ", \"p99_micros\": " << shard.p99_micros << "}";
    }
    out << "]}" << (r + 1 < runs.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"speedup\": [\n";
  const ServeShardRun* single = nullptr;
  for (const ServeShardRun& run : runs) {
    if (run.shards == 1) single = &run;
  }
  bool first = true;
  for (const ServeShardRun& run : runs) {
    if (run.shards == 1 || single == nullptr || single->read_qps <= 0) {
      continue;
    }
    if (!first) out << ",\n";
    first = false;
    out << "    {\"shards\": " << run.shards
        << ", \"read_throughput_x_single\": "
        << run.read_qps / single->read_qps << "}";
  }
  out << "\n  ],\n";
  out << "  \"shed_storm\": {\"shards\": " << storm.shards
      << ", \"submitted\": " << storm.submitted
      << ", \"shed_deadline_exceeded\": " << storm.shed_deadline
      << ", \"shed_resource_exhausted\": " << storm.shed_exhausted
      << ", \"shed_rate\": " << storm.shed_rate << "}\n";
  out << "}\n";
  return out.str();
}

int RunServeBench(int requested_shards, const std::string& output) {
  std::vector<int> shard_counts;
  if (requested_shards > 0) {
    if (requested_shards != 1) shard_counts.push_back(1);
    shard_counts.push_back(requested_shards);
  } else {
    shard_counts = {1, 4, 16};
  }

  std::vector<ServeShardRun> runs;
  ServeStorm storm;
  std::string prom;
  for (size_t i = 0; i < shard_counts.size(); ++i) {
    const bool reporting = i + 1 == shard_counts.size();
    runs.push_back(RunServeTraffic(shard_counts[i],
                                   reporting ? &storm : nullptr,
                                   reporting ? &prom : nullptr));
    const ServeShardRun& run = runs.back();
    std::printf(
        "serve %2d shard%s  %5lld reads  %8.0f qps  shed %.3f  "
        "cache hit %lld/%lld  err %lld\n",
        run.shards, run.shards == 1 ? " " : "s",
        static_cast<long long>(run.reads), run.read_qps, run.shed_rate,
        static_cast<long long>(run.result_cache_hits),
        static_cast<long long>(run.result_cache_hits +
                               run.result_cache_misses),
        static_cast<long long>(run.errors));
    for (size_t s = 0; s < run.per_shard.size(); ++s) {
      std::printf("    shard %2zu  %5lld inst  p50 %9.1fus  p99 %9.1fus\n",
                  s, static_cast<long long>(run.per_shard[s].instances),
                  run.per_shard[s].p50_micros, run.per_shard[s].p99_micros);
    }
  }
  for (const ServeShardRun& run : runs) {
    if (run.shards != 1 && runs.front().shards == 1 &&
        runs.front().read_qps > 0) {
      std::printf("serve speedup %d shards vs 1: %.2fx\n", run.shards,
                  run.read_qps / runs.front().read_qps);
    }
  }
  std::printf("shed storm: %lld/%lld shed (rate %.3f)\n",
              static_cast<long long>(storm.shed_deadline +
                                     storm.shed_exhausted),
              static_cast<long long>(storm.submitted), storm.shed_rate);

  std::ofstream json(output);
  json << ServeJson(runs, storm);
  if (!json) {
    std::fprintf(stderr, "error: failed writing %s\n", output.c_str());
    return 1;
  }
  std::printf("wrote %s\n", output.c_str());

  std::string prom_path = output;
  const std::string json_suffix = ".json";
  if (prom_path.size() > json_suffix.size() &&
      prom_path.compare(prom_path.size() - json_suffix.size(),
                        json_suffix.size(), json_suffix) == 0) {
    prom_path.resize(prom_path.size() - json_suffix.size());
  }
  prom_path += ".prom";
  std::ofstream prom_file(prom_path);
  prom_file << prom;
  if (!prom_file) {
    std::fprintf(stderr, "error: failed writing %s\n", prom_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", prom_path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool serve_mode = false;
  bool persist_mode = false;
  bool faults_mode = false;
  int serve_shards = 0;
  std::string output;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--serve") {
      serve_mode = true;
    } else if (arg == "--persist") {
      persist_mode = true;
    } else if (arg == "--faults") {
      faults_mode = true;
    } else if (arg == "--shards" && i + 1 < argc) {
      serve_shards = std::atoi(argv[++i]);
    } else {
      output = arg;
    }
  }
  if (faults_mode) {
    return RunFaultsBench(output.empty() ? "BENCH_faults.json" : output);
  }
  if (persist_mode) {
    return RunPersistBench(output.empty() ? "BENCH_persist.json" : output);
  }
  if (serve_mode) {
    return RunServeBench(serve_shards,
                         output.empty() ? "BENCH_serve.json" : output);
  }
  if (output.empty()) output = "BENCH_engine.json";

  Harness harness;

  harness.AddScenario({.name = "local_ax_star_b",
                       .description = "local-tractable ax*b over layered "
                                      "flow networks (Thm 3.13)",
                       .regex = "ax*b",
                       .semantics = Semantics::kBag,
                       .databases = LocalDbs(),
                       .repetitions = 5});
  harness.AddScenario({.name = "bcl_ab_or_bc",
                       .description = "bipartite chain ab|bc over word "
                                      "soups (Prp 7.6)",
                       .regex = "ab|bc",
                       .semantics = Semantics::kBag,
                       .databases = BclDbs(),
                       .repetitions = 5});
  harness.AddScenario({.name = "one_dangling_abc_be",
                       .description = "one-dangling abc|be over "
                                      "dangling-pair instances (Prp 7.9)",
                       .regex = "abc|be",
                       .semantics = Semantics::kBag,
                       .databases = OneDanglingDbs(),
                       .repetitions = 5});
  harness.AddScenario({.name = "exact_ab_bc_ca",
                       .description = "NP-hard ab|bc|ca, exact branch & "
                                      "bound fallback on small dbs",
                       .regex = "ab|bc|ca",
                       .semantics = Semantics::kSet,
                       .databases = ExactDbs(),
                       .repetitions = 3});

  // Mixed workload: every query above against the small exact dbs plus
  // the BCL soups — all plans already cached from the scenarios above,
  // so this measures steady-state dispatch.
  {
    Scenario mixed;
    mixed.name = "mixed_cache_churn";
    mixed.description =
        "all four queries interleaved (plan cache steady state)";
    mixed.regex = "ax*b";  // representative; per-instance regexes vary
    mixed.semantics = Semantics::kBag;
    mixed.databases = BclDbs();
    mixed.repetitions = 2;
    harness.AddScenario(mixed);
  }

  harness.AddScenario({.name = "handle_vs_raw_v2_handle",
                       .description = "ax*b over noisy flow dbs via "
                                      "registered DbHandle + label index",
                       .regex = "ax*b",
                       .semantics = Semantics::kBag,
                       .databases = NoisyLocalDbs(),
                       .repetitions = 20});
  harness.AddScenario({.name = "flow_core_csr_deep_product",
                       .description = "ax*b over deep layered products "
                                      "(zero-copy CSR + scratch reuse)",
                       .regex = "ax*b",
                       .semantics = Semantics::kBag,
                       .databases = DeepProductDbs(),
                       .repetitions = 10});
  harness.AddScenario({.name = "flow_core_csr_sparse_product",
                       .description = "ax*b with stray x-facts in dead "
                                      "product regions (pruning win)",
                       .regex = "ax*b",
                       .semantics = Semantics::kBag,
                       .databases = SparseProductDbs(),
                       .repetitions = 15});

  std::vector<ScenarioReport> reports = harness.RunAll();

  // Registry v3 scenarios. The hot result cache runs on its own engine:
  // enabling it on the shared harness engine would collapse every other
  // scenario into cache hits and break the BENCH trajectory.
  {
    EngineOptions cached_options;
    cached_options.result_cache_capacity = 4096;
    Harness cached_harness(cached_options);
    cached_harness.AddScenario(
        {.name = "result_cache_hot",
         .description = "ax*b repeats over one registered version, "
                        "version-keyed ResultCache on (hits after warm-up)",
         .regex = "ax*b",
         .semantics = Semantics::kBag,
         .databases = NoisyLocalDbs(),
         .repetitions = 20});
    for (ScenarioReport& report : cached_harness.RunAll()) {
      reports.push_back(std::move(report));
    }
  }
  {
    auto [delta, rebuild] = RunDeltaCommitScenarios(harness.engine());
    reports.push_back(std::move(delta));
    reports.push_back(std::move(rebuild));
  }

  {
    auto [obs_off, obs_on] = RunObservabilityPair();
    reports.push_back(std::move(obs_off));
    reports.push_back(std::move(obs_on));
  }

  Status write_status = harness.WriteJson(output, reports);
  if (!write_status.ok()) {
    std::fprintf(stderr, "error: %s\n", write_status.ToString().c_str());
    return 1;
  }

  // Prometheus exposition from the main harness engine, for the CI
  // metrics validator (BENCH_engine.json -> BENCH_engine.prom).
  std::string prom_path = output;
  const std::string json_suffix = ".json";
  if (prom_path.size() > json_suffix.size() &&
      prom_path.compare(prom_path.size() - json_suffix.size(),
                        json_suffix.size(), json_suffix) == 0) {
    prom_path.resize(prom_path.size() - json_suffix.size());
  }
  prom_path += ".prom";
  {
    std::ofstream prom(prom_path);
    prom << harness.engine().ExportMetrics(MetricsFormat::kPrometheus,
                                           &harness.registry());
    if (!prom) {
      std::fprintf(stderr, "error: failed writing %s\n", prom_path.c_str());
      return 1;
    }
  }
  std::printf("wrote %s\n", prom_path.c_str());

  for (const ScenarioReport& r : reports) {
    std::printf(
        "%-28s %-10s %4d inst  p50 %9.1fus  p95 %9.1fus  %8.0f qps  "
        "pruned %lld/%lld  via %s\n",
        r.name.c_str(), r.complexity.c_str(), r.instances,
        r.solve_p50_micros, r.solve_p95_micros, r.throughput_qps,
        static_cast<long long>(r.pruned_vertices_max),
        static_cast<long long>(r.pruned_edges_max), r.algorithm.c_str());
  }
  std::printf("wrote %s\n", output.c_str());
  return 0;
}
