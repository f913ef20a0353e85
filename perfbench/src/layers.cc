#include "layers.h"

#include <algorithm>
#include <future>
#include <map>
#include <set>

#include "automata/ops.h"
#include "automata/thompson.h"
#include "classify/classifier.h"
#include "engine/compiled_query.h"
#include "flow/solver_scratch.h"
#include "graphdb/generators.h"
#include "graphdb/label_index.h"
#include "lang/language.h"
#include "regex/parser.h"
#include "resilience/resilience.h"
#include "serve/router.h"
#include "serve/sharded_registry.h"
#include "util/rng.h"

namespace perfbench {

using rpqres::DbHandle;
using rpqres::ResilienceRequest;
using rpqres::ResilienceResponse;
using rpqres::Result;

namespace {

template <typename Fn>
double TimeMicros(Fn&& fn) {
  const int64_t start = NowNs();
  fn();
  return MicrosBetween(start, NowNs());
}

/// Repetitions so a sweep over `n` inputs makes at least `calls` calls.
int RepsFor(size_t n, int calls) {
  return std::max(1, calls / static_cast<int>(std::max<size_t>(1, n)));
}

/// Node budget of the exact search on a workload that never reads an
/// NP-hard query: the canonical hard query on its smallest databases.
constexpr uint64_t kFallbackExactNodes = 2'000;

DbHandle ResolveRead(const LayerInputs& in, const ResilienceRequest& read) {
  Result<DbHandle> handle = in.registry->Resolve(read.db_ref);
  return handle.ok() ? *handle : DbHandle();
}

}  // namespace

void MeasureCompileLayers(const LayerInputs& in, Report* report) {
  std::vector<std::pair<std::string, rpqres::Semantics>> queries;
  std::set<std::pair<std::string, rpqres::Semantics>> seen;
  for (const ResilienceRequest& read : in.reads) {
    if (queries.size() < 64 && seen.insert({read.regex, read.semantics}).second) {
      queries.push_back({read.regex, read.semantics});
    }
  }
  std::vector<double> parse, min_dfa, states, classify, compile;
  const int reps = RepsFor(queries.size(), 64);
  for (int rep = 0; rep < reps; ++rep) {
    for (const auto& [regex, semantics] : queries) {
      Result<rpqres::Regex> parsed(rpqres::Status::Internal("unparsed"));
      parse.push_back(TimeMicros([&] { parsed = rpqres::ParseRegex(regex); }));
      if (!parsed.ok()) {
        report->Fail("parse " + regex + ": " + parsed.status().ToString());
        continue;
      }
      rpqres::Dfa dfa;
      min_dfa.push_back(TimeMicros(
          [&] { dfa = rpqres::MinimalDfa(rpqres::ThompsonEnfa(*parsed)); }));
      states.push_back(dfa.num_states());
      const rpqres::Language lang = rpqres::Language::FromRegex(*parsed);
      classify.push_back(TimeMicros([&] {
        Result<rpqres::Classification> c =
            rpqres::ClassifyResilience(lang, in.engine_options.max_word_length);
        (void)c;
      }));
      rpqres::CompileOptions options;
      options.allow_exponential = in.engine_options.allow_exponential;
      options.max_word_length = in.engine_options.max_word_length;
      compile.push_back(TimeMicros([&] {
        Result<std::shared_ptr<const rpqres::CompiledQuery>> compiled =
            rpqres::CompileQuery(regex, semantics, options);
        (void)compiled;
      }));
    }
  }
  report->Metric("regex.parse_us", Mean(parse), "us");
  report->Metric("automata.min_dfa_us", Mean(min_dfa), "us");
  report->Metric("automata.dfa_states", Mean(states), "count");
  report->Metric("classify.us", Mean(classify), "us");
  report->Metric("engine.compile_us", Mean(compile), "us");
  report->Metric("engine.compile_rest_us",
                 Mean(compile) - Mean(parse) - Mean(min_dfa) - Mean(classify), "us");
}

void MeasureSolveLayers(const LayerInputs& in, Report* report) {
  struct Instance {
    std::shared_ptr<const rpqres::CompiledQuery> query;
    DbHandle db;
    uint64_t node_budget = 0;
  };
  const char* const kFamilies[4] = {"local", "bcl", "one_dangling", "exact"};
  auto family_of = [](rpqres::ResilienceMethod method) {
    switch (method) {
      case rpqres::ResilienceMethod::kLocalFlow: return 0;
      case rpqres::ResilienceMethod::kBclFlow: return 1;
      case rpqres::ResilienceMethod::kOneDanglingFlow: return 2;
      case rpqres::ResilienceMethod::kExact: return 3;
      default: return -1;
    }
  };
  std::vector<Instance> by_family[4];
  std::vector<DbHandle> dbs;
  std::set<uint64_t> db_ids;
  for (const ResilienceRequest& read : in.reads) {
    DbHandle db = ResolveRead(in, read);
    auto compiled = in.engine->Compile(read.regex, read.semantics);
    if (!db.valid() || !compiled.ok()) continue;
    if (db_ids.insert(db.id()).second && dbs.size() < 16) dbs.push_back(db);
    const int family = (*compiled)->plan.trivial_empty || (*compiled)->plan.trivial_infinite
                           ? -1
                           : family_of((*compiled)->plan.method);
    if (family >= 0 && by_family[family].size() < 64) {
      by_family[family].push_back({*compiled, db, in.engine_options.max_exact_search_nodes});
    }
  }
  // Families the workload never reads: the family's canonical query on
  // the workload's own databases, the exact search under a fixed budget.
  std::vector<DbHandle> smallest = dbs;
  std::sort(smallest.begin(), smallest.end(), [](const DbHandle& a, const DbHandle& b) {
    return a.db().num_live_facts() < b.db().num_live_facts();
  });
  for (int family = 0; family < 4; ++family) {
    if (!by_family[family].empty()) continue;
    auto compiled = in.engine->Compile(kFamilyRegex[family], rpqres::Semantics::kBag);
    if (!compiled.ok()) continue;
    for (size_t i = 0; i < smallest.size() && i < 2; ++i) {
      by_family[family].push_back({*compiled, smallest[i], kFallbackExactNodes});
    }
  }

  rpqres::SolverScratch& scratch = rpqres::SolverScratch::ThreadLocal();
  double pruned = 0, edges = 0, edge_samples = 0, flow_edges = 0;
  std::vector<double> search_nodes;
  for (int family = 0; family < 4; ++family) {
    std::vector<double> micros, allocs;
    const int reps = RepsFor(by_family[family].size(), family == 3 ? 8 : 32);
    for (const Instance& instance : by_family[family]) {
      rpqres::ExactOptions exact;
      exact.max_search_nodes = instance.node_budget;
      auto solve = [&] {
        return rpqres::ComputeResilienceWithPlan(
            instance.query->plan, instance.db.db(), instance.query->semantics, exact,
            instance.db.label_index(), &scratch);
      };
      Result<rpqres::ResilienceResult> warm = solve();  // size the scratch
      for (int rep = 0; rep < reps; ++rep) {
        const int64_t allocs_before = AllocsThisThread();
        Result<rpqres::ResilienceResult> result(rpqres::Status::Internal("unsolved"));
        micros.push_back(TimeMicros([&] { result = solve(); }));
        allocs.push_back(static_cast<double>(AllocsThisThread() - allocs_before));
        if (rep > 0) continue;
        if (family == 3) {
          // An exhausted budget searched exactly the budget's nodes.
          search_nodes.push_back(result.ok() ? static_cast<double>(result->search_nodes)
                                             : static_cast<double>(instance.node_budget));
        } else if (result.ok()) {
          pruned += static_cast<double>(result->product_edges_pruned);
          edges += static_cast<double>(result->network_edges + result->product_edges_pruned);
          flow_edges += static_cast<double>(result->network_edges);
          ++edge_samples;
        }
      }
    }
    report->Metric(std::string("solve.") + kFamilies[family] + "_us", Mean(micros), "us");
    report->Metric(std::string("solve.") + kFamilies[family] + "_allocs", Mean(allocs),
                   "count");
  }
  report->Metric("flow.network_edges", edge_samples > 0 ? flow_edges / edge_samples : 0,
                 "count");
  report->Metric("flow.pruned_edge_ratio", edges > 0 ? pruned / edges : 0, "ratio");
  report->Metric("exact.search_nodes", Mean(search_nodes), "count");

  // Allocations of a full Evaluate beyond those of the solve it wraps, on
  // an engine with the workload's options but no result cache, so every
  // Evaluate solves.
  rpqres::EngineOptions uncached = in.engine_options;
  uncached.num_threads = 1;
  uncached.result_cache_capacity = 0;
  rpqres::ResilienceEngine engine(uncached);
  std::vector<double> overhead;
  for (size_t i = 0; i < in.reads.size() && i < 64; ++i) {
    const ResilienceRequest& read = in.reads[i];
    DbHandle db = ResolveRead(in, read);
    auto compiled = engine.Compile(read.regex, read.semantics);
    if (!db.valid() || !compiled.ok()) continue;
    ResilienceResponse warm = engine.Evaluate(read);
    int64_t before = AllocsThisThread();
    ResilienceResponse response = engine.Evaluate(read);
    const double evaluate = static_cast<double>(AllocsThisThread() - before);
    rpqres::ExactOptions exact;
    exact.max_search_nodes = in.engine_options.max_exact_search_nodes;
    before = AllocsThisThread();
    Result<rpqres::ResilienceResult> direct = rpqres::ComputeResilienceWithPlan(
        (*compiled)->plan, db.db(), read.semantics, exact, db.label_index(), &scratch);
    overhead.push_back(evaluate - static_cast<double>(AllocsThisThread() - before));
  }
  report->Metric("engine.allocs_overhead", Mean(overhead), "count");

  std::vector<double> index_us;
  const int reps = RepsFor(dbs.size(), 16);
  for (int rep = 0; rep < reps; ++rep) {
    for (const DbHandle& db : dbs) {
      index_us.push_back(TimeMicros([&] { rpqres::LabelIndex index(db.db()); }));
    }
  }
  report->Metric("graphdb.label_index_build_us", Mean(index_us), "us");
}

void MeasureRequestLayers(const LayerInputs& in, Report* report) {
  // Name resolution, as the engine does for every db_ref read.
  std::vector<double> resolve;
  const int resolve_reps = RepsFor(in.lineages.size(), 512);
  for (int rep = 0; rep < resolve_reps; ++rep) {
    for (const std::string& name : in.lineages) {
      const std::string ref = name + "@latest";
      resolve.push_back(TimeMicros([&] {
        Result<DbHandle> handle = in.registry->Resolve(ref);
        (void)handle;
      }));
    }
  }
  report->Metric("registry.resolve_us", Mean(resolve), "us");

  // Pool queue wait: async completion time minus the engine's own time
  // on the same request, one request in flight as the workloads keep.
  constexpr int kAsync = 1024;
  struct Pending {
    int64_t submit_ns = 0;
    int64_t done_ns = 0;
    rpqres::obs::TraceContext trace;
  };
  std::vector<Pending> pending(kAsync);
  std::vector<std::future<ResilienceResponse>> futures;
  std::vector<double> waits;
  for (int i = 0; i < kAsync && !in.reads.empty(); ++i) {
    Pending& p = pending[i];
    ResilienceRequest request = in.reads[i % in.reads.size()];
    p.trace = rpqres::obs::TraceContext();
    request.options.trace = &p.trace;
    p.submit_ns = NowNs();
    futures.push_back(in.engine->Submit(
        std::move(request), [&p](const ResilienceResponse&) { p.done_ns = NowNs(); }));
    futures.back().get();
  }
  for (int i = 0; i < kAsync && !in.reads.empty(); ++i) {
    const Pending& p = pending[i];
    waits.push_back(std::max(0.0, MicrosBetween(p.submit_ns, p.done_ns) - EngineMicros(p.trace)));
  }
  report->Metric("pool.queue_wait_p50_us", Percentile(waits, 50), "us");
  report->Metric("pool.queue_wait_p99_us", Percentile(waits, 99), "us");

  // Router overhead: Router::Evaluate vs Engine::Evaluate, same request,
  // on a one-shard router holding copies of the sampled databases. The
  // shard caches no results, so both paths solve every request.
  std::vector<ResilienceRequest> sample(in.reads.begin(),
                                        in.reads.begin() + std::min<size_t>(in.reads.size(), 64));
  rpqres::EngineOptions shard_options = in.engine_options;
  shard_options.num_threads = 1;
  shard_options.result_cache_capacity = 0;
  rpqres::serve::ShardedRegistry shards(1, shard_options);
  std::set<std::string> registered;
  for (ResilienceRequest& read : sample) {
    const std::string name = read.db_ref.substr(0, read.db_ref.find('@'));
    if (registered.insert(name).second) {
      DbHandle db = ResolveRead(in, read);
      if (db.valid()) shards.Register(db.db().Compact(), name);
    }
    read.registry = &shards.registry(0);
  }
  rpqres::serve::Router router(&shards);
  rpqres::ResilienceEngine& shard_engine = shards.engine(0);
  std::vector<double> via_router, via_engine;
  for (int rep = 0; rep < RepsFor(sample.size(), 256) + 1; ++rep) {
    for (const ResilienceRequest& read : sample) {
      double r = TimeMicros([&] { router.Evaluate({"layers", read}); });
      double e = TimeMicros([&] { shard_engine.Evaluate(read); });
      if (rep == 0) continue;  // warm-up: plans compiled on both paths
      via_router.push_back(r);
      via_engine.push_back(e);
    }
  }
  report->Metric("router.overhead_us", Median(via_router) - Median(via_engine), "us");
  const rpqres::serve::RouterStats router_stats = router.stats();
  report->Metric("admission.shed_ratio",
                 router_stats.submitted > 0
                     ? static_cast<double>(router_stats.sheds()) /
                           static_cast<double>(router_stats.submitted)
                     : 0,
                 "ratio");

  // Tracing on vs off, interleaved, on the workload's reads.
  rpqres::EngineOptions on_options = in.engine_options;
  on_options.num_threads = 1;
  on_options.enable_tracing = true;
  rpqres::EngineOptions off_options = on_options;
  off_options.enable_tracing = false;
  rpqres::ResilienceEngine on(on_options), off(off_options);
  std::vector<double> on_us, off_us;
  for (int rep = 0; rep < RepsFor(sample.size(), 256) + 1; ++rep) {
    for (size_t i = 0; i < sample.size(); ++i) {
      const ResilienceRequest& read = sample[i];
      double a = 0, b = 0;
      if ((i + rep) % 2 == 0) {
        a = TimeMicros([&] { on.Evaluate(read); });
        b = TimeMicros([&] { off.Evaluate(read); });
      } else {
        b = TimeMicros([&] { off.Evaluate(read); });
        a = TimeMicros([&] { on.Evaluate(read); });
      }
      if (rep == 0) continue;
      on_us.push_back(a);
      off_us.push_back(b);
    }
  }
  const double off_p50 = Median(off_us);
  report->Metric("obs.tracing_overhead_pct",
                 off_p50 > 0 ? 100.0 * (Median(on_us) - off_p50) / off_p50 : 0, "%");
  std::vector<double> export_us;
  for (int rep = 0; rep < 20; ++rep) {
    export_us.push_back(TimeMicros([&] {
      std::string text =
          in.engine->ExportMetrics(rpqres::MetricsFormat::kPrometheus, in.registry);
      (void)text;
    }));
  }
  report->Metric("obs.export_us", Median(export_us), "us");
}

void MeasureCommitScaling(uint64_t seed, Report* report) {
  constexpr int kCommits = 40;
  for (int num_facts : {4000, 16000, 64000}) {
    const std::string tag = std::to_string(num_facts / 1000) + "k";
    rpqres::Rng rng(MixSeed(seed, static_cast<uint64_t>(num_facts)));
    rpqres::GraphDb base = rpqres::RandomGraphDb(
        &rng, num_facts / 10, num_facts, {'a', 'x', 'b', 'm', 'n', 'o', 'p', 'q'}, 4);
    std::vector<double> index_us;
    for (int rep = 0; rep < 3; ++rep) {
      index_us.push_back(TimeMicros([&] { rpqres::LabelIndex index(base); }));
    }
    const int nodes = base.num_nodes();
    const int facts = base.num_facts();
    std::vector<rpqres::Fact> base_facts;
    for (int i = 0; i < facts; ++i) base_facts.push_back(base.fact(i));
    rpqres::DbRegistry registry;
    DbHandle latest = registry.Register(std::move(base), "scaling");
    std::set<int> removed;
    std::vector<double> build_us, publish_us, total_us;
    for (int commit = 0; commit < kCommits; ++commit) {
      // The ROADMAP baseline's shape: add one x-fact, remove one fact.
      const rpqres::NodeId u = static_cast<rpqres::NodeId>(rng.NextBelow(nodes));
      const rpqres::NodeId v = static_cast<rpqres::NodeId>(rng.NextBelow(nodes));
      int victim = static_cast<int>(rng.NextBelow(facts));
      while (!removed.insert(victim).second) victim = (victim + 1) % facts;
      const rpqres::Fact& gone = base_facts[victim];
      const int64_t t0 = NowNs();
      rpqres::DeltaBatch batch = registry.BeginDelta(latest);
      rpqres::Status status = batch.AddFact(u, 'x', v).status();
      if (status.ok()) status = batch.RemoveFact(gone.source, gone.label, gone.target);
      const int64_t t1 = NowNs();
      Result<DbHandle> committed =
          status.ok() ? batch.Commit() : Result<DbHandle>(status);
      const int64_t t2 = NowNs();
      if (!committed.ok()) {
        report->Fail("scaling commit: " + committed.status().ToString());
        continue;
      }
      latest = *committed;
      build_us.push_back(MicrosBetween(t0, t1));
      publish_us.push_back(MicrosBetween(t1, t2));
      total_us.push_back(MicrosBetween(t0, t2));
    }
    report->Metric("commit.mem_" + tag + "_us", Median(total_us), "us");
    report->Metric("commit.mem_" + tag + "_build_us", Median(build_us), "us");
    report->Metric("commit.mem_" + tag + "_publish_us", Median(publish_us), "us");
    report->Metric("graphdb.label_index_" + tag + "_us", Median(index_us), "us");
  }
}

}  // namespace perfbench
