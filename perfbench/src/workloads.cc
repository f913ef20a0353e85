#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <thread>
#include <tuple>
#include <vector>

#include "engine/db_registry.h"
#include "engine/engine.h"
#include "fault/failpoints.h"
#include "graphdb/generators.h"
#include "lang/language.h"
#include "layers.h"
#include "storage/journal.h"
#include "storage/segment.h"
#include "util/rng.h"
#include "workload/workload.h"

namespace perfbench {

using rpqres::DbHandle;
using rpqres::DbRegistry;
using rpqres::DeltaBatch;
using rpqres::EngineOptions;
using rpqres::GraphDb;
using rpqres::NodeId;
using rpqres::ResilienceEngine;
using rpqres::ResilienceRequest;
using rpqres::ResilienceResponse;
using rpqres::Result;
using rpqres::Rng;
using rpqres::Semantics;
using rpqres::Status;
using rpqres::StatusCode;

// ---------------------------------------------------------------------------
// Expected answers.
// ---------------------------------------------------------------------------

bool Expected::Load(const std::string& path) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const size_t a = line.find('\t');
    const size_t b = line.rfind('\t');
    if (a == std::string::npos || b == a) return false;
    values_[line.substr(0, a)][line.substr(a + 1, b - a - 1)] =
        std::stoll(line.substr(b + 1));
  }
  return true;
}

bool Expected::Save(const std::string& path) const {
  std::ofstream out(path);
  out << "# workload\tlineage|regex|semantics\tresilience (-1 = infinite)\n";
  for (const auto& [workload, answers] : values_) {
    for (const auto& [key, value] : answers) {
      out << workload << '\t' << key << '\t' << value << '\n';
    }
  }
  return static_cast<bool>(out);
}

bool Expected::Get(const std::string& workload, const std::string& key,
                   int64_t* value) const {
  auto w = values_.find(workload);
  if (w == values_.end()) return false;
  auto k = w->second.find(key);
  if (k == w->second.end()) return false;
  *value = k->second;
  return true;
}

void Expected::Set(const std::string& workload, const std::string& key,
                   int64_t value) {
  values_[workload][key] = value;
}

void Expected::Clear(const std::string& workload) { values_.erase(workload); }

namespace {

namespace fs = std::filesystem;

/// Seed of every fixed corpus (databases, adhoc regex list). The run seed
/// drives only the operation sequence, so the stored answers hold for
/// every run seed.
constexpr uint64_t kCorpusSeed = 20250622;

/// Commits only touch these labels; no workload query reads them.
constexpr char kNoiseLabels[2] = {'m', 'n'};

/// Time metrics are gated drift-calibrated, except these pairs of
/// workload and metric: two sets of same-code runs showed calibration
/// widening their spread (NOTES.md has the figures).
bool Calibrated(const std::string& workload, const std::string& metric) {
  static const std::set<std::string> kRaw = {"commit_durable/read_p99_us",
                                             "adhoc_cold/read_p99_us"};
  return kRaw.count(workload + "/" + metric) == 0;
}

std::string SemanticsName(Semantics semantics) {
  return semantics == Semantics::kBag ? "bag" : "set";
}

std::string AnswerKey(const std::string& lineage, const std::string& regex,
                      Semantics semantics) {
  return lineage + "|" + regex + "|" + SemanticsName(semantics);
}

int64_t AnswerValue(const rpqres::ResilienceResult& result) {
  return result.infinite ? -1 : result.value;
}

using NoiseFact = std::tuple<NodeId, char, NodeId>;

struct Lineage {
  std::string name;
  DbHandle latest;
  std::set<NoiseFact> noise;  ///< live noise facts, for removals
};

/// One operation of the fixed sequence.
struct Op {
  bool commit = false;
  int lineage = 0;
  std::string regex;
  Semantics semantics = Semantics::kBag;
  uint64_t seed = 0;  ///< commit: seeds the delta's contents
  int delta_ops = 0;  ///< commit: ops in the delta, 1-8
};

/// Deals commit sizes 1-8, each block of eight commits a seeded
/// permutation of all eight, so every run commits the same mix of sizes.
class SizeDeck {
 public:
  explicit SizeDeck(Rng* rng) : rng_(rng) {}
  int Next() {
    if (next_ == 8) {
      for (int i = 0; i < 8; ++i) sizes_[i] = i + 1;
      for (int i = 7; i > 0; --i) std::swap(sizes_[i], sizes_[rng_->NextBelow(i + 1)]);
      next_ = 0;
    }
    return sizes_[next_++];
  }

 private:
  Rng* rng_;
  int sizes_[8] = {};
  int next_ = 8;
};

struct CommitOutcome {
  Status status;
  double build_us = 0;
  double publish_us = 0;
  double cpu_us = 0;  ///< thread CPU time of build plus publish
  int64_t allocs = 0;
  int64_t start_ns = 0;  ///< the client's commit step: draw, build, publish, record
  int64_t end_ns = 0;
  int64_t build_start_ns = 0;
  int64_t build_end_ns = 0;
  int64_t publish_end_ns = 0;
};

/// A planned delta op; `new_node` adds a node and uses it as target.
struct PlannedOp {
  bool remove = false;
  bool new_node = false;
  NoiseFact fact;
};

/// Noise facts a lineage carries in steady state.
constexpr size_t kNoiseTarget = 32;

/// One noise commit of `num_ops` ops: removals of earlier noise facts and
/// fact adds, some to a fresh node. The plan is drawn before timing, so
/// only BeginDelta + ops + Commit() are timed and counted.
CommitOutcome NoiseCommit(DbRegistry* registry, Lineage* lineage,
                          uint64_t seed, int num_ops) {
  const int64_t start_ns = NowNs();
  Rng rng(seed);
  const int nodes = lineage->latest.db().num_nodes();
  std::set<NoiseFact> live = lineage->noise;
  std::vector<PlannedOp> plan;
  for (int i = 0; i < num_ops; ++i) {
    PlannedOp op;
    const uint64_t roll = rng.NextBelow(10);
    const char label = kNoiseLabels[rng.NextBelow(2)];
    const NodeId u = static_cast<NodeId>(rng.NextBelow(nodes));
    const NodeId v = static_cast<NodeId>(rng.NextBelow(nodes));
    // Mean-reverting: removal gets likelier as the noise set grows, so a
    // lineage's size stays near kNoiseTarget whatever the seed.
    if (rng.NextBelow(2 * kNoiseTarget) < live.size()) {
      auto it = live.begin();
      std::advance(it, rng.NextBelow(live.size()));
      op.remove = true;
      op.fact = *it;
      live.erase(it);
    } else {
      op.new_node = roll == 0;
      op.fact = {u, label, v};
      if (!op.new_node) live.insert(op.fact);
    }
    plan.push_back(op);
  }

  CommitOutcome out;
  out.start_ns = start_ns;
  const int64_t allocs_before = AllocsThisThread();
  const int64_t cpu_before = ThreadCpuNs();
  out.build_start_ns = NowNs();
  DeltaBatch batch = registry->BeginDelta(lineage->latest);
  for (PlannedOp& op : plan) {
    auto& [u, label, v] = op.fact;
    if (op.remove) {
      out.status = batch.RemoveFact(u, label, v);
    } else {
      if (op.new_node) v = batch.AddNode();
      Result<rpqres::FactId> fact = batch.AddFact(u, label, v);
      out.status = fact.status();
    }
    if (!out.status.ok()) break;
  }
  out.build_end_ns = NowNs();
  Result<DbHandle> committed =
      out.status.ok() ? batch.Commit() : Result<DbHandle>(out.status);
  out.publish_end_ns = NowNs();
  out.cpu_us = MicrosBetween(cpu_before, ThreadCpuNs());
  out.allocs = AllocsThisThread() - allocs_before;
  out.build_us = MicrosBetween(out.build_start_ns, out.build_end_ns);
  out.publish_us = MicrosBetween(out.build_end_ns, out.publish_end_ns);
  if (!committed.ok()) {
    out.status = committed.status();
    return out;
  }
  out.status = Status::OK();
  lineage->latest = *std::move(committed);
  for (const PlannedOp& op : plan) {
    if (op.remove) {
      lineage->noise.erase(op.fact);
    } else {
      lineage->noise.insert(op.fact);
    }
  }
  out.end_ns = NowNs();
  return out;
}

// ---------------------------------------------------------------------------
// Workload definitions.
// ---------------------------------------------------------------------------

/// Percentiles are medians over up to kStretches equal stretches of a
/// series. At --seconds 10 every stretch holds a workload's whole read mix
/// and whole decks of commit sizes.
constexpr int kStretches = 40;
/// Windows per timed phase: the drift probe runs between windows, often
/// enough to follow the machine's speed as it drifts within seconds.
constexpr int kProbeWindows = 160;

/// Everything a workload fixes: its corpus, op sequence and configuration.
struct Spec {
  std::vector<std::string> names;
  std::vector<GraphDb> dbs;
  std::vector<Op> ops;
  EngineOptions engine;
  DbRegistry::Options registry;
  bool persistent = false;
  /// Reads evaluated once after registration (cache warm-up).
  std::vector<Op> warm;
  /// Queries compiled into the plan cache at set-up.
  std::vector<std::pair<std::string, Semantics>> precompile;
  /// Every read the op sequence can draw, whatever the run seed: the
  /// key space of the stored answers.
  std::vector<Op> keys;
};

/// solve_mix and adhoc_cold fold a lineage's overlay every 64 changed
/// facts, so about one commit in fifteen compacts: their commit p99 then
/// lies inside the compacting commits, not on the edge between the two
/// kinds, where it would jump between runs.
DbRegistry::Options SmallCompactionPolicy() {
  DbRegistry::Options options;
  options.compaction_min_overlay = 64;
  options.compaction_fraction = 0.0;
  return options;
}

/// The one lineage solve_mix and adhoc_cold commit to. Commits spread
/// over lineages of different sizes would make commit_p50_us a mixture
/// whose median jumps between the lineages' cost levels.
constexpr int kHotLineage = 0;

/// solve_mix: medium databases over every solver family, read by one
/// synchronous client with a warm plan cache and no result cache.
Spec SolveMixSpec(uint64_t seed, int seconds) {
  Spec spec;
  Rng corpus(kCorpusSeed);
  std::vector<int> family_of;
  auto add = [&](int family, GraphDb db) {
    spec.names.push_back("f" + std::to_string(family) + "_" +
                         std::to_string(spec.dbs.size()));
    spec.dbs.push_back(std::move(db));
    family_of.push_back(family);
  };
  // Local ax*b: layered, noisy and sparse products (Thm 3.13).
  for (int i = 0; i < 12; ++i) {
    const int layers = 4 + 2 * (i % 6);
    GraphDb db = rpqres::LayeredFlowDb(&corpus, 4, layers, 6 + i % 3, 4, 0.4, 50);
    if (i % 3 == 1) {  // noisy: inert labels dominate the fact array
      const int nodes = db.num_nodes();
      const int noise = 10 * db.num_facts();
      for (int k = 0; k < noise; ++k) {
        db.AddFact(static_cast<NodeId>(corpus.NextBelow(nodes)),
                   static_cast<char>('o' + corpus.NextBelow(4)),
                   static_cast<NodeId>(corpus.NextBelow(nodes)),
                   1 + corpus.NextBelow(5));
      }
    } else if (i % 3 == 2) {  // sparse: x-facts in an unreachable region
      const int base = db.num_nodes();
      const int extra = 4 * base;
      for (int k = 0; k < extra; ++k) db.AddNode();
      const int stray = 6 * db.num_facts();
      for (int k = 0; k < stray; ++k) {
        db.AddFact(base + static_cast<NodeId>(corpus.NextBelow(extra)), 'x',
                   base + static_cast<NodeId>(corpus.NextBelow(extra)),
                   1 + corpus.NextBelow(8));
      }
    }
    add(0, std::move(db));
  }
  // BCL ab|bc word soups (Prp 7.6).
  for (int i = 0; i < 8; ++i) {
    const int count = 8 + 4 * i;
    add(1, rpqres::WordSoupDb(&corpus, {"ab", "bc"}, count, {'a', 'b', 'c'},
                              2 * count, 10));
  }
  // One-dangling abc|be dangling pairs (Prp 7.9).
  for (int i = 0; i < 8; ++i) {
    add(2, rpqres::DanglingPairsDb(&corpus, 30, 60, {'a', 'b', 'c'}, 'b', 'e',
                                   8 + 3 * i, 5));
  }
  // Small NP-hard instances for exact branch and bound.
  for (int i = 0; i < 8; ++i) {
    add(3, rpqres::RandomGraphDb(&corpus, 8, 12 + 2 * (i % 5), {'a', 'b', 'c'}, 3));
  }
  std::vector<std::vector<int>> members(4);
  for (size_t i = 0; i < family_of.size(); ++i) members[family_of[i]].push_back(i);

  // A deck holds each database's reads a fixed number of times per
  // family (local 10, BCL 10, one-dangling 6, exact 8: shares 38/26/15/21
  // percent of the reads), which keeps every family under half the read
  // time. The seed shuffles each deck, so every run reads the same mix and
  // each stretch of the phase (two decks) holds it whole. The exact family
  // gets a fixed node budget via the engine.
  const int kPerDb[4] = {10, 10, 6, 8};
  std::vector<int> deck;
  for (int family = 0; family < 4; ++family) {
    for (int member : members[family]) deck.insert(deck.end(), kPerDb[family], member);
  }
  Rng rng(MixSeed(seed, 1));
  SizeDeck sizes(&rng);
  const int decks = 2 * kStretches * seconds / 10;
  constexpr size_t kCommitEvery = 13;  // a deck's 312 reads take 24 commits
  for (int d = 0; d < decks; ++d) {
    for (size_t i = deck.size() - 1; i > 0; --i) {
      std::swap(deck[i], deck[rng.NextBelow(i + 1)]);
    }
    for (size_t i = 0; i < deck.size(); ++i) {
      Op op;
      op.lineage = deck[i];
      op.regex = kFamilyRegex[family_of[deck[i]]];
      op.semantics = Semantics::kBag;
      spec.ops.push_back(op);
      if (i % kCommitEvery == kCommitEvery - 1) {
        Op commit;
        commit.commit = true;
        commit.lineage = kHotLineage;
        commit.seed = rng.Next();
        commit.delta_ops = sizes.Next();
        spec.ops.push_back(commit);
      }
    }
  }
  spec.engine.max_exact_search_nodes = 2'000'000;
  spec.registry = SmallCompactionPolicy();
  for (const char* regex : kFamilyRegex) spec.precompile.push_back({regex, Semantics::kBag});
  for (size_t i = 0; i < family_of.size(); ++i) {
    Op key;
    key.lineage = static_cast<int>(i);
    key.regex = kFamilyRegex[family_of[i]];
    key.semantics = Semantics::kBag;
    spec.keys.push_back(key);
  }
  return spec;
}

/// commit_durable: a persistent registry with one 64k-fact lineage and
/// eight 2k-fact ones; a single writer commits small deltas (three of four
/// to the big lineage), each followed by four ax*b reads of small
/// lineages' @latest.
constexpr int kDurableSmall = 8;
constexpr int kReadsPerCommit = 4;

Spec CommitDurableSpec(uint64_t seed, int seconds) {
  Spec spec;
  spec.persistent = true;
  Rng corpus(kCorpusSeed);
  const std::vector<char> labels = {'a', 'x', 'b', 'm', 'n', 'o', 'p', 'q'};
  spec.names.push_back("big");
  spec.dbs.push_back(rpqres::RandomGraphDb(&corpus, 6400, 64000, labels, 4));
  for (int i = 0; i < kDurableSmall; ++i) {
    spec.names.push_back("small" + std::to_string(i));
    spec.dbs.push_back(rpqres::RandomGraphDb(&corpus, 200, 2000, labels, 4));
  }
  Rng rng(MixSeed(seed, 3));
  SizeDeck sizes(&rng);
  const int commits = 4 * kStretches * seconds;
  for (int i = 0; i < commits; ++i) {
    Op commit;
    commit.commit = true;
    commit.lineage = i % 4 == 3 ? 1 + static_cast<int>(rng.NextBelow(kDurableSmall)) : 0;
    commit.seed = rng.Next();
    commit.delta_ops = sizes.Next();
    spec.ops.push_back(commit);
    for (int r = 0; r < kReadsPerCommit; ++r) {
      Op read;
      read.lineage = 1 + static_cast<int>(rng.NextBelow(kDurableSmall));
      read.regex = "ax*b";
      read.semantics = Semantics::kBag;
      spec.ops.push_back(read);
    }
  }
  // Fold the overlay every 128 changed facts: a run spans dozens of
  // compaction cycles, and compacting commits (about 3% of commits) set
  // the p99. Flush policy is the library's: a journal fsync per commit;
  // segment + directory fsync per compaction.
  spec.registry.compaction_min_overlay = 128;
  spec.registry.compaction_fraction = 0.0;
  spec.precompile.push_back({"ax*b", Semantics::kBag});
  for (int i = 1; i <= kDurableSmall; ++i) {
    Op key;
    key.lineage = i;
    key.regex = "ax*b";
    key.semantics = Semantics::kBag;
    spec.keys.push_back(key);
  }
  return spec;
}

/// adhoc_cold: generated regexes over every query class, read in a fixed
/// cyclic order longer than the plan cache, so every lookup misses.
constexpr size_t kAdhocPlanCache = 64;
constexpr size_t kAdhocQueries = 160;

Spec AdhocColdSpec(uint64_t seed, int seconds) {
  Spec spec;
  std::set<std::pair<std::string, Semantics>> seen;
  std::vector<Op> per_lineage;  // each lineage's one read
  for (uint64_t s = kCorpusSeed; spec.dbs.size() < kAdhocQueries; ++s) {
    Result<rpqres::workload::WorkloadInstance> instance =
        rpqres::workload::MakeWorkloadInstance(s);
    if (!instance.ok()) continue;
    if (!seen.insert({instance->query.regex, instance->semantics}).second) continue;
    spec.names.push_back("q" + std::to_string(spec.dbs.size()));
    spec.dbs.push_back(std::move(instance->db));
    Op op;
    op.lineage = static_cast<int>(spec.dbs.size()) - 1;
    op.regex = instance->query.regex;
    op.semantics = instance->semantics;
    per_lineage.push_back(op);
  }
  // The run seed fixes the cyclic order.
  Rng rng(MixSeed(seed, 4));
  std::vector<int> order(per_lineage.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  for (size_t i = order.size() - 1; i > 0; --i) {
    std::swap(order[i], order[rng.NextBelow(i + 1)]);
  }
  // Each stretch of the phase reads the whole cycle once.
  SizeDeck sizes(&rng);
  const int reads = static_cast<int>(per_lineage.size()) * kStretches * seconds / 10;
  constexpr int kCommitEvery = 4;
  for (int i = 0; i < reads; ++i) {
    spec.ops.push_back(per_lineage[order[i % order.size()]]);
    if (i % kCommitEvery == kCommitEvery - 1) {
      Op commit;
      commit.commit = true;
      commit.lineage = kHotLineage;
      commit.seed = rng.Next();
      commit.delta_ops = sizes.Next();
      spec.ops.push_back(commit);
    }
  }
  for (size_t i = 0; i < 32; ++i) spec.warm.push_back(per_lineage[order[i]]);
  spec.keys = per_lineage;
  spec.engine.plan_cache_capacity = kAdhocPlanCache;
  spec.registry = SmallCompactionPolicy();
  spec.engine.max_word_length = 8;
  return spec;
}

Spec MakeSpec(const std::string& workload, uint64_t seed, int seconds) {
  Spec spec = workload == "solve_mix"        ? SolveMixSpec(seed, seconds)
              : workload == "commit_durable" ? CommitDurableSpec(seed, seconds)
                                             : AdhocColdSpec(seed, seconds);
  // Only requests slower than 10 s enter the slow-query log: an entry
  // allocates, and whether a read crosses a millisecond threshold depends
  // on the machine, which would make the allocation counts vary.
  spec.engine.slow_query_threshold_micros = 10'000'000;
  return spec;
}

// ---------------------------------------------------------------------------
// A set-up instance: registry, engine, lineages, op list.
// ---------------------------------------------------------------------------

class Instance {
 public:
  Instance(const Options& options, const std::string& dir)
      : options_(options), dir_(dir) {}
  ~Instance() { Close(); }
  Instance(const Instance&) = delete;
  Instance& operator=(const Instance&) = delete;

  /// The timed set-up: inputs, registration (persisting when durable),
  /// engine construction and cache warm-up.
  Status Setup() {
    spec_ = MakeSpec(options_.workload, options_.seed, options_.seconds);
    if (spec_.persistent) {
      std::error_code ec;
      fs::remove_all(dir_, ec);
      fs::create_directories(dir_, ec);
      spec_.registry.storage_dir = dir_;
    }
    registry_ = std::make_unique<DbRegistry>(spec_.registry);
    engine_ = std::make_unique<ResilienceEngine>(spec_.engine);
    for (size_t i = 0; i < spec_.dbs.size(); ++i) {
      Lineage lineage;
      lineage.name = spec_.names[i];
      lineage.latest = registry().Register(std::move(spec_.dbs[i]), lineage.name);
      lineages_.push_back(std::move(lineage));
    }
    spec_.dbs.clear();
    RPQRES_RETURN_IF_ERROR(registry().storage_status());
    for (const auto& [regex, semantics] : spec_.precompile) {
      RPQRES_RETURN_IF_ERROR(engine().Compile(regex, semantics).status());
    }
    for (const Op& op : spec_.warm) {
      ResilienceResponse response = engine().Evaluate(ReadRequest(op));
      RPQRES_RETURN_IF_ERROR(response.status);
    }
    return Status::OK();
  }

  void Close() {
    engine_.reset();
    lineages_.clear();
    registry_.reset();
  }

  ResilienceRequest ReadRequest(const Op& op) const {
    ResilienceRequest request;
    request.regex = op.regex;
    request.db_ref = lineages_[op.lineage].name + "@latest";
    request.registry = &registry();
    request.semantics = op.semantics;
    return request;
  }

  DbRegistry& registry() const { return *registry_; }
  ResilienceEngine& engine() const { return *engine_; }
  const Spec& spec() const { return spec_; }
  std::vector<Lineage>& lineages() { return lineages_; }

 private:
  Options options_;
  std::string dir_;
  Spec spec_;
  // Registry before engine: in-flight requests hold registry handles.
  std::unique_ptr<DbRegistry> registry_;
  std::unique_ptr<ResilienceEngine> engine_;
  std::vector<Lineage> lineages_;
};

// ---------------------------------------------------------------------------
// The timed phase.
// ---------------------------------------------------------------------------

struct Phase {
  Series reads;
  Series commits;
  int64_t read_allocs = 0;
  int64_t commit_allocs = 0;
  int64_t compactions = 0;
  double compacting_us = 0;
  int64_t checksum = 0;
  /// Reads per second: median over the phase's windows.
  double qps_raw = 0;
  double qps_calibrated = 0;
  std::vector<double> probes;
  // Traced runs: per-read library-measured pieces for layer metrics.
  double request_overhead_us = 0;
  int64_t traced_reads = 0;
  // Cache counters over the phase.
  int64_t plan_hits = 0, plan_misses = 0;
  /// Share of the phase's vCPU time the hypervisor stole.
  double steal_share = 0;
};


struct PhaseContext {
  const Options* options = nullptr;
  const Expected* expected = nullptr;
  DriftProbe* probe = nullptr;
  Report* report = nullptr;
  SpanStore* spans = nullptr;  ///< non-null in the traced run
  /// Stored answer per op index (reads only), looked up before timing.
  const std::vector<int64_t>* want = nullptr;
};

/// Checks one timed read against its stored answer.
void VerifyRead(const PhaseContext& ctx, size_t index,
                const ResilienceResponse& response, Phase* phase) {
  ctx.report->Attempt();
  if (!response.status.ok()) {
    ctx.report->Fail("read " + std::to_string(index) + ": " + response.status.ToString());
    return;
  }
  const int64_t value = AnswerValue(response.result);
  phase->checksum += value;
  if (value != (*ctx.want)[index]) {
    ctx.report->Mismatch("read " + std::to_string(index) + ": got " + std::to_string(value) +
                         ", stored " + std::to_string((*ctx.want)[index]));
  }
}

void RecordCommit(Instance& instance, const Op& op, int64_t request,
                  const PhaseContext& ctx, Phase* phase) {
  ctx.report->Attempt();
  const int64_t compactions_before = instance.registry().stats().compactions;
  CommitOutcome out = NoiseCommit(&instance.registry(),
                                  &instance.lineages()[op.lineage], op.seed, op.delta_ops);
  if (!out.status.ok()) {
    ctx.report->Fail("commit on " + instance.lineages()[op.lineage].name + ": " +
                     out.status.ToString());
    return;
  }
  const double total = out.build_us + out.publish_us;
  phase->commits.Add(total, out.cpu_us);
  phase->commit_allocs += out.allocs;
  if (instance.registry().stats().compactions > compactions_before) {
    ++phase->compactions;
    phase->compacting_us += total;
  }
  if (ctx.spans != nullptr) {
    SpanStore& spans = *ctx.spans;
    const int64_t root =
        spans.Add(spans.NameId("commit"), out.start_ns, out.end_ns, -1, request);
    spans.Add(spans.NameId("commit.delta_build"), out.build_start_ns,
              out.build_end_ns, root, request);
    spans.Add(spans.NameId("commit.publish"), out.build_end_ns,
              out.publish_end_ns, root, request);
  }
}

/// One synchronous client: each op runs after the previous one returns.
void RunSyncPhase(Instance& instance, const PhaseContext& ctx, Phase* phase) {
  const std::vector<Op>& ops = instance.spec().ops;
  const size_t window = std::max<size_t>(1, ops.size() / kProbeWindows);
  Calibrator calibrator(ctx.probe);
  calibrator.Attach(&phase->reads);
  calibrator.Attach(&phase->commits);
  ResilienceEngine& engine = instance.engine();
  calibrator.Start();
  for (size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    const int64_t request = static_cast<int64_t>(i);
    if (op.commit) {
      RecordCommit(instance, op, request, ctx, phase);
    } else {
      ResilienceRequest read = instance.ReadRequest(op);
      std::optional<rpqres::obs::TraceContext> trace;
      int64_t epoch = 0;
      if (ctx.spans != nullptr) {
        trace.emplace();
        epoch = NowNs() - trace->NowNs();
        read.options.trace = &*trace;
      }
      const int64_t allocs_before = AllocsThisThread();
      const int64_t cpu_before = ThreadCpuNs();
      const int64_t start = NowNs();
      ResilienceResponse response = engine.Evaluate(read);
      const int64_t end = NowNs();
      const int64_t cpu_after = ThreadCpuNs();
      phase->read_allocs += AllocsThisThread() - allocs_before;
      phase->reads.Add(MicrosBetween(start, end), MicrosBetween(cpu_before, cpu_after));
      if (ctx.spans != nullptr) {
        const int64_t root =
            ctx.spans->Add(ctx.spans->NameId("read"), start, end, -1, request);
        ctx.spans->Import(*trace, epoch, root, request);
        phase->request_overhead_us += MicrosBetween(start, end) -
                                      response.stats.compile_micros -
                                      response.stats.solve_micros;
        ++phase->traced_reads;
      }
      VerifyRead(ctx, i, response, phase);
    }
    if ((i + 1) % window == 0 || i + 1 == ops.size()) calibrator.Window();
  }
  std::tie(phase->qps_raw, phase->qps_calibrated) = calibrator.MedianRate(phase->reads, kStretches);
  phase->probes = calibrator.probes();
}

/// Value no answer takes: marks a read whose key has no stored answer.
constexpr int64_t kNoStoredAnswer = -2;

void RunPhase(Instance& instance, const PhaseContext& outer, Phase* phase) {
  std::vector<int64_t> want(instance.spec().ops.size(), kNoStoredAnswer);
  for (size_t i = 0; i < want.size(); ++i) {
    const Op& op = instance.spec().ops[i];
    if (op.commit) continue;
    const std::string key =
        AnswerKey(instance.lineages()[op.lineage].name, op.regex, op.semantics);
    if (!outer.expected->Get(outer.options->workload, key, &want[i])) {
      want[i] = kNoStoredAnswer;
    }
  }
  PhaseContext ctx = outer;
  ctx.want = &want;
  const double steal_before = StealSeconds();
  const int64_t phase_start = NowNs();
  const rpqres::PlanCacheView plan = instance.engine().plan_cache_view();
  RunSyncPhase(instance, ctx, phase);
  const rpqres::PlanCacheView plan_after = instance.engine().plan_cache_view();
  phase->plan_hits = plan_after.stats.hits - plan.stats.hits;
  phase->plan_misses = plan_after.stats.misses - plan.stats.misses;
  phase->steal_share = (StealSeconds() - steal_before) /
                       (MicrosBetween(phase_start, NowNs()) / 1e6 *
                        std::max(1u, std::thread::hardware_concurrency()));
}

// ---------------------------------------------------------------------------
// Storage: durable tail, restores, syscall counts.
// ---------------------------------------------------------------------------

/// Ends a storage directory in a state every seed shares: the writer
/// commits to `lineage` until it compacts, then kJournalTail fixed 4-op
/// commits, so each restore replays the same journal tail.
constexpr int kJournalTail = 16;

Status SettleJournalTail(DbRegistry& registry, Lineage& lineage, Report* report) {
  const int64_t compactions = registry.stats().compactions;
  for (uint64_t i = 0; registry.stats().compactions == compactions; ++i) {
    if (i == 10'000) return Status::Internal(lineage.name + " never compacted");
    report->Attempt();
    CommitOutcome out = NoiseCommit(&registry, &lineage, MixSeed(kCorpusSeed, i), 4);
    RPQRES_RETURN_IF_ERROR(out.status);
  }
  for (int i = 0; i < kJournalTail; ++i) {
    report->Attempt();
    CommitOutcome out = NoiseCommit(&registry, &lineage, MixSeed(kCorpusSeed + 1, i), 4);
    RPQRES_RETURN_IF_ERROR(out.status);
  }
  return Status::OK();
}

/// Commits the durable tail applies for workloads whose timed phase is
/// in memory, so every workload reports a restore of its own data.
constexpr int kTailCommits = 64;
constexpr int kRestores = 61;

void ArmCountingFailpoints() {
  // A spec that never fires: every Check() then counts an evaluation.
  rpqres::fault::FailpointRegistry& registry =
      rpqres::fault::FailpointRegistry::Instance();
  for (std::string_view site : rpqres::fault::KnownSites()) {
    registry.Arm(site, rpqres::fault::FaultSpec::WithProbability(
                           rpqres::fault::FaultKind::kEIO, 0.0, 1));
  }
}

struct SyscallCounts {
  int64_t fsyncs = 0;
  int64_t writes = 0;
};

SyscallCounts TakeFailpointCounts() {
  rpqres::fault::FailpointRegistry& registry =
      rpqres::fault::FailpointRegistry::Instance();
  SyscallCounts counts;
  for (const rpqres::fault::SiteStats& site : registry.Stats()) {
    if (site.site.ends_with("fsync")) counts.fsyncs += site.evaluations;
    if (site.site.ends_with(".write")) counts.writes += site.evaluations;
  }
  registry.ResetAll();
  return counts;
}

struct StorageResult {
  double bytes_per_fact = 0;
  int64_t counted_commits = 0;
  SyscallCounts syscalls;
};

/// Segment plus journal bytes per live fact, across the registry.
double BytesPerFact(const DbRegistry& registry) {
  const DbRegistry::Gauges gauges = registry.gauges();
  return static_cast<double>(gauges.storage_segment_bytes + gauges.storage_journal_bytes) /
         static_cast<double>(std::max<int64_t>(1, gauges.live_facts));
}

/// Persists the final latest version of every lineage, replays the first
/// kTailCommits commits of the op sequence against it durably, under the
/// workload's compaction policy, and settles the hot lineage's journal.
Status DurableTail(Instance& instance, const std::string& dir, bool count,
                   Report* report, StorageResult* out) {
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
  DbRegistry::Options options = instance.spec().registry;
  options.storage_dir = dir;
  DbRegistry durable(options);
  std::vector<Lineage> lineages;
  for (Lineage& source : instance.lineages()) {
    Lineage copy;
    copy.name = source.name;
    copy.noise = source.noise;
    copy.latest = durable.Register(source.latest.db().Compact(), source.name);
    lineages.push_back(std::move(copy));
  }
  RPQRES_RETURN_IF_ERROR(durable.storage_status());
  if (count) ArmCountingFailpoints();
  int commits = 0;
  for (const Op& op : instance.spec().ops) {
    if (!op.commit) continue;
    if (commits == kTailCommits) break;
    report->Attempt();
    CommitOutcome outcome =
        NoiseCommit(&durable, &lineages[op.lineage], op.seed, op.delta_ops);
    if (!outcome.status.ok()) report->Fail("durable commit: " + outcome.status.ToString());
    ++commits;
  }
  if (count) out->syscalls = TakeFailpointCounts();
  out->counted_commits = commits;
  RPQRES_RETURN_IF_ERROR(SettleJournalTail(durable, lineages[kHotLineage], report));
  out->bytes_per_fact = BytesPerFact(durable);
  return durable.storage_status();
}

struct RestoreResult {
  Series restores;  // ms
  double segment_read_us = 0;  ///< per restore, all segments (traced)
  double journal_read_us = 0;  ///< per restore, all journals (traced)
};

/// Cold restores of `dir`, each into a fresh registry, probes between.
Status Restore(const std::string& dir, DriftProbe* probe, SpanStore* spans,
               Report* report, RestoreResult* out) {
  Calibrator calibrator(probe);
  calibrator.Attach(&out->restores);
  std::vector<std::pair<std::string, uint64_t>> journals;
  std::vector<std::string> segments;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (!name.starts_with("lineage_")) continue;
    if (name.ends_with(".seg")) segments.push_back(entry.path().string());
    if (name.ends_with(".journal")) {
      journals.push_back({entry.path().string(),
                          std::stoull(name.substr(8, name.size() - 8 - 8))});
    }
  }
  std::sort(segments.begin(), segments.end());
  std::sort(journals.begin(), journals.end());
  calibrator.Start();
  for (int rep = 0; rep < kRestores; ++rep) {
    report->Attempt();
    const int64_t cpu_before = ThreadCpuNs();
    const int64_t start = NowNs();
    Result<std::unique_ptr<DbRegistry>> opened = DbRegistry::OpenStorage(dir);
    const int64_t end = NowNs();
    const int64_t cpu_after = ThreadCpuNs();
    if (!opened.ok()) {
      report->Fail("restore: " + opened.status().ToString());
      return opened.status();
    }
    out->restores.Add(MicrosBetween(start, end) / 1000.0,
                      MicrosBetween(cpu_before, cpu_after) / 1000.0);
    opened->reset();
    calibrator.Window();
    if (spans == nullptr) continue;
    // Breakdown on the same files: the storage layer's public readers.
    spans->Add(spans->NameId("restore"), start, end, -1, rep);
    for (const std::string& path : segments) {
      const int64_t s0 = NowNs();
      Result<rpqres::storage::LoadedSegment> segment = rpqres::storage::ReadSegment(path);
      const int64_t s1 = NowNs();
      if (!segment.ok()) return segment.status();
      out->segment_read_us += MicrosBetween(s0, s1) / kRestores;
      spans->Add(spans->NameId("storage.read_segment"), s0, s1, -1, rep);
    }
    for (const auto& [path, lineage] : journals) {
      const int64_t j0 = NowNs();
      Result<rpqres::storage::JournalContents> journal =
          rpqres::storage::ReadJournal(path, lineage);
      const int64_t j1 = NowNs();
      if (!journal.ok()) return journal.status();
      out->journal_read_us += MicrosBetween(j0, j1) / kRestores;
      spans->Add(spans->NameId("storage.read_journal"), j0, j1, -1, rep);
    }
  }
  return Status::OK();
}

/// storage.journal_append_us, storage.journal_bytes_per_commit and
/// storage.segment_write_us: the storage writers on the workload's own
/// commit sizes and databases, in a scratch file of the run directory.
Status MeasureStorageWrites(Instance& instance, const std::string& dir,
                            Report* report) {
  using rpqres::storage::JournalOp;
  RPQRES_ASSIGN_OR_RETURN(
      rpqres::storage::JournalWriter writer,
      rpqres::storage::JournalWriter::Open(dir + "/probe.journal", /*lineage=*/1));
  std::vector<double> append_us;
  uint32_t version = 1;
  for (const Op& op : instance.spec().ops) {
    if (!op.commit) continue;
    if (append_us.size() == kTailCommits) break;
    Rng rng(op.seed);
    std::vector<JournalOp> ops;
    JournalOp begin;
    begin.type = JournalOp::Type::kBegin;
    begin.version = version;
    ops.push_back(begin);
    const int n = 1 + static_cast<int>(rng.NextBelow(8));
    for (int i = 0; i < n; ++i) {
      JournalOp add;
      add.type = JournalOp::Type::kAddFact;
      add.source = static_cast<NodeId>(rng.NextBelow(1000));
      add.label = kNoiseLabels[rng.NextBelow(2)];
      add.target = static_cast<NodeId>(rng.NextBelow(1000));
      ops.push_back(add);
    }
    JournalOp commit;
    commit.type = JournalOp::Type::kCommit;
    commit.version = ++version;
    commit.snapshot_id = version;
    ops.push_back(commit);
    const int64_t start = NowNs();
    RPQRES_RETURN_IF_ERROR(writer.Append(ops));
    append_us.push_back(MicrosBetween(start, NowNs()));
  }
  report->Metric("storage.journal_append_us", Mean(append_us), "us");
  report->Metric("storage.journal_bytes_per_commit",
                 static_cast<double>(writer.bytes()) /
                     std::max<double>(1, static_cast<double>(append_us.size())),
                 "B");
  std::vector<double> write_us;
  for (const Lineage& lineage : instance.lineages()) {
    if (write_us.size() == 8) break;
    GraphDb flat = lineage.latest.db().Compact();
    rpqres::storage::SegmentMeta meta;
    meta.lineage = lineage.latest.lineage();
    meta.version = lineage.latest.version();
    meta.snapshot_id = lineage.latest.id();
    meta.name = lineage.name;
    const int64_t start = NowNs();
    RPQRES_RETURN_IF_ERROR(
        rpqres::storage::WriteSegment(dir + "/probe.seg", flat, meta));
    write_us.push_back(MicrosBetween(start, NowNs()));
  }
  report->Metric("storage.segment_write_us", Mean(write_us), "us");
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Differential sample.
// ---------------------------------------------------------------------------

/// Plan vs exact on the workload's queries over databases small enough
/// for the exact solver: the workload's own when they are, else seeded
/// tiny random ones over the query's letters.
void DifferentialSample(Instance& instance, uint64_t seed, Report* report) {
  constexpr int kSample = 24;
  constexpr int kSmallFacts = 24;
  Rng rng(MixSeed(seed, 5));
  DbRegistry scratch;
  std::vector<ResilienceRequest> requests;
  const std::vector<Op>& keys = instance.spec().keys;
  for (int i = 0; i < kSample && !keys.empty(); ++i) {
    const Op& key = keys[rng.NextBelow(keys.size())];
    ResilienceRequest request;
    request.regex = key.regex;
    request.semantics = key.semantics;
    const DbHandle& latest = instance.lineages()[key.lineage].latest;
    if (latest.db().num_live_facts() <= kSmallFacts) {
      request.db = latest;
    } else {
      Result<rpqres::Language> lang = rpqres::Language::FromRegexString(key.regex);
      std::vector<char> labels = lang.ok() ? lang->used_letters() : std::vector<char>{'a'};
      if (labels.empty()) labels.push_back('a');
      request.db = scratch.Register(
          rpqres::RandomGraphDb(&rng, 6, 8 + static_cast<int>(rng.NextBelow(8)),
                                labels, 3));
    }
    requests.push_back(std::move(request));
  }
  EngineOptions options;
  options.num_threads = 1;
  options.max_word_length = 8;
  options.max_exact_search_nodes = 2'000'000;
  ResilienceEngine engine(options);
  for (const ResilienceResponse& response : engine.EvaluateDifferential(requests)) {
    report->Attempt();
    if (!response.differential.has_value()) {
      report->Mismatch("differential run returned no verdict");
    } else if (!response.differential->agree && !response.differential->inconclusive) {
      report->Mismatch("plan vs exact: " + response.differential->mismatch);
    }
  }
}

// ---------------------------------------------------------------------------
// Reporting.
// ---------------------------------------------------------------------------

void EmitEndToEnd(const std::string& workload, const std::vector<double>& setups_raw,
                  const std::vector<double>& setups_cal, const Phase& phase,
                  const RestoreResult& restore, const StorageResult& storage,
                  Report* report) {
  auto time = [&](const std::string& name, double raw, double cal,
                  const std::string& unit) {
    report->TimeMetric(name, raw, cal, unit, Calibrated(workload, name));
  };
  time("setup_s", Median(setups_raw), Median(setups_cal), "s");
  // Percentiles are medians over up to kStretches stretches of the phase;
  // a p99 stretch keeps at least 1000 samples, so ten or more lie beyond.
  auto p50 = [](const Series& series, bool calibrated) {
    return SegmentedPercentile(calibrated ? series.calibrated() : series.raw(), 50,
                               kStretches, 20);
  };
  auto p99 = [](const Series& series, bool calibrated) {
    return SegmentedPercentile(calibrated ? series.calibrated() : series.raw(), 99,
                               kStretches, 1000);
  };
  time("read_p50_us", p50(phase.reads, false), p50(phase.reads, true), "us");
  time("read_p99_us", p99(phase.reads, false), p99(phase.reads, true), "us");
  const double reads = static_cast<double>(phase.reads.size());
  time("read_qps", phase.qps_raw, phase.qps_calibrated, "1/s");
  time("commit_p50_us", p50(phase.commits, false), p50(phase.commits, true), "us");
  time("commit_p99_us", p99(phase.commits, false), p99(phase.commits, true), "us");
  time("restore_ms", Median(restore.restores.raw()),
       Median(restore.restores.calibrated()), "ms");
  report->Metric("allocs_per_read",
                 static_cast<double>(phase.read_allocs) / std::max(1.0, reads), "count");
  report->Metric("allocs_per_commit",
                 static_cast<double>(phase.commit_allocs) /
                     std::max<double>(1, static_cast<double>(phase.commits.size())),
                 "count");
  report->Metric("storage_bytes_per_fact", storage.bytes_per_fact, "B");
  report->Metric("peak_rss_mb", PeakRssMb(), "MB");
  // Thread CPU time of the same calls, for comparison only: it misses
  // waiting and work on other threads, so it is never gated.
  report->Diagnostic("read_p50_us.cpu", Median(phase.reads.cpu()));
  report->Diagnostic("commit_p50_us.cpu", Median(phase.commits.cpu()));
  report->Diagnostic("restore_ms.cpu", Median(restore.restores.cpu()));
  report->Diagnostic("reads", reads);
  report->Diagnostic("commits", static_cast<double>(phase.commits.size()));
  report->Diagnostic("read_checksum", static_cast<double>(phase.checksum));
  report->Diagnostic("probe_ns.median", Median(phase.probes));
  report->Diagnostic("probe_ns.min", Percentile(phase.probes, 0));
  report->Diagnostic("probe_ns.max", Percentile(phase.probes, 100));
  report->Diagnostic("compactions", static_cast<double>(phase.compactions));
  report->Diagnostic("steal_share", phase.steal_share);
  report->Diagnostic("plan_cache_hits", static_cast<double>(phase.plan_hits));
  report->Diagnostic("plan_cache_misses", static_cast<double>(phase.plan_misses));
}

/// Per-path self times from the span store, plus the remainder no span
/// covers, so that the parts add up to the traced end-to-end mean. Each
/// layer metric sums the self times of its span names.
void EmitPathBreakdown(
    const SpanStore& spans, const std::string& path,
    const std::vector<std::pair<std::vector<std::string>, std::string>>& layers,
    Report* report) {
  int64_t roots = 0;
  std::map<std::string, double> self = spans.SelfMicrosByName(path, &roots);
  const double n = static_cast<double>(std::max<int64_t>(1, roots));
  double total = 0;
  for (const auto& [name, micros] : self) total += micros;
  double attributed = 0;
  for (const auto& [names, metric] : layers) {
    double value = 0;
    for (const std::string& name : names) value += self.count(name) > 0 ? self[name] / n : 0;
    attributed += value;
    report->Metric(metric, value, "us");
  }
  report->Metric(path + ".traced_us", total / n, "us");
  report->Metric(path + ".unattributed_us", total / n - attributed, "us");
}

}  // namespace

// ---------------------------------------------------------------------------
// Entry point.
// ---------------------------------------------------------------------------

int RunWorkload(const Options& options, Report* report) {
  const std::string& workload = options.workload;
  const std::string expected_path = options.data_dir + "/expected.txt";
  Expected expected;
  if (!expected.Load(expected_path) && !options.write_expected) {
    std::fprintf(stderr, "error: cannot read %s\n", expected_path.c_str());
    return 2;
  }
  const std::string run_dir = options.work_dir + "/" + workload + "-" +
                              std::to_string(options.seed);
  std::error_code ec;
  fs::remove_all(run_dir, ec);
  fs::create_directories(run_dir, ec);

  if (options.write_expected) {
    Instance instance(options, run_dir + "/store");
    Status status = instance.Setup();
    if (!status.ok()) {
      std::fprintf(stderr, "error: setup: %s\n", status.ToString().c_str());
      return 1;
    }
    expected.Clear(workload);
    int64_t checksum = 0;
    for (const Op& key : instance.spec().keys) {
      ResilienceResponse response = instance.engine().Evaluate(instance.ReadRequest(key));
      const std::string name = AnswerKey(instance.lineages()[key.lineage].name, key.regex,
                                         key.semantics);
      report->Attempt();
      if (!response.status.ok()) {
        report->Fail(name + ": " + response.status.ToString());
        continue;
      }
      expected.Set(workload, name, AnswerValue(response.result));
      checksum += AnswerValue(response.result);
    }
    if (report->failed() > 0 || !expected.Save(expected_path)) return 1;
    std::fprintf(stderr, "wrote %zu answers for %s (checksum %lld)\n",
                 instance.spec().keys.size(), workload.c_str(),
                 static_cast<long long>(checksum));
    fs::remove_all(run_dir, ec);
    return 0;
  }

  DriftProbe probe;
  probe.Measure();  // fault the ring in before the first window

  // Set-up, several times: the last instance stays for the timed phase.
  // solve_mix sets up in about 15 ms, so it repeats more for a steady median.
  const int kSetups = options.trace ? 1 : workload == "solve_mix" ? 31 : 7;
  Series setups;
  Calibrator setup_calibrator(&probe);
  setup_calibrator.Attach(&setups);
  std::unique_ptr<Instance> instance;
  setup_calibrator.Start();
  for (int rep = 0; rep < kSetups; ++rep) {
    instance.reset();
    instance = std::make_unique<Instance>(options, run_dir + "/store");
    const int64_t start = NowNs();
    Status status = instance->Setup();
    setups.Add(MicrosBetween(start, NowNs()) / 1e6);
    setup_calibrator.Window();
    if (!status.ok()) {
      std::fprintf(stderr, "error: setup: %s\n", status.ToString().c_str());
      return 1;
    }
  }

  PhaseContext ctx;
  ctx.options = &options;
  ctx.expected = &expected;
  ctx.probe = &probe;
  ctx.report = report;
  Phase phase;
  RunPhase(*instance, ctx, &phase);

  SpanStore spans;
  Phase traced;
  StorageResult storage;
  if (options.trace) {
    // The same op sequence again on a fresh set-up, with spans.
    instance.reset();
    instance = std::make_unique<Instance>(options, run_dir + "/store");
    Status status = instance->Setup();
    if (!status.ok()) {
      std::fprintf(stderr, "error: setup: %s\n", status.ToString().c_str());
      return 1;
    }
    Report traced_report;  // answers are checked; attempts count once
    PhaseContext traced_ctx = ctx;
    traced_ctx.spans = &spans;
    traced_ctx.report = &traced_report;
    if (instance->spec().persistent) ArmCountingFailpoints();
    RunPhase(*instance, traced_ctx, &traced);
    if (instance->spec().persistent) {
      storage.syscalls = TakeFailpointCounts();
      storage.counted_commits = static_cast<int64_t>(traced.commits.size());
    }
    if (traced_report.mismatched()) report->Mismatch("traced run answers differ");
    if (traced_report.failed() > 0) report->Fail("traced run had failed operations");
  }

  // Storage: the durable workload's own directory, else the durable tail.
  std::string restore_dir = run_dir + "/store";
  if (instance->spec().persistent) {
    Status status = SettleJournalTail(instance->registry(), instance->lineages()[0], report);
    if (!status.ok()) {
      std::fprintf(stderr, "error: journal tail: %s\n", status.ToString().c_str());
      return 1;
    }
    storage.bytes_per_fact = BytesPerFact(instance->registry());
  } else {
    restore_dir = run_dir + "/tail";
    Status status = DurableTail(*instance, restore_dir, options.trace, report, &storage);
    if (!status.ok()) {
      std::fprintf(stderr, "error: durable tail: %s\n", status.ToString().c_str());
      return 1;
    }
  }

  DifferentialSample(*instance, options.seed, report);

  if (options.trace) {
    LayerInputs in;
    in.engine = &instance->engine();
    in.registry = &instance->registry();
    in.engine_options = instance->spec().engine;
    for (const Lineage& lineage : instance->lineages()) in.lineages.push_back(lineage.name);
    std::set<std::string> seen;
    for (const Op& op : instance->spec().ops) {
      if (op.commit || in.reads.size() >= 256) continue;
      const std::string key = AnswerKey(in.lineages[op.lineage], op.regex, op.semantics);
      if (seen.insert(key).second) in.reads.push_back(instance->ReadRequest(op));
    }
    MeasureCompileLayers(in, report);
    MeasureSolveLayers(in, report);
    MeasureRequestLayers(in, report);
    Status status = MeasureStorageWrites(*instance, run_dir, report);
    if (!status.ok()) {
      std::fprintf(stderr, "error: storage probe: %s\n", status.ToString().c_str());
      return 1;
    }
  }

  instance.reset();  // closes the durable registry before restoring it

  RestoreResult restore;
  Status restored = Restore(restore_dir, &probe, options.trace ? &spans : nullptr,
                            report, &restore);
  if (!restored.ok()) {
    std::fprintf(stderr, "error: restore: %s\n", restored.ToString().c_str());
    return 1;
  }

  if (!options.trace) {
    EmitEndToEnd(workload, setups.raw(), setups.calibrated(), phase, restore,
                 storage, report);
  } else {
    // Tracing overhead: traced minus untraced end-to-end, same seed. The
    // two phases run seconds apart, so both means are drift-calibrated.
    const double untraced_read = Mean(phase.reads.calibrated());
    const double traced_read = Mean(traced.reads.calibrated());
    report->Metric("read.untraced_us", Mean(phase.reads.raw()), "us");
    report->Metric("trace.overhead_pct",
                   untraced_read > 0 ? 100.0 * (traced_read - untraced_read) / untraced_read : 0,
                   "%");
    EmitPathBreakdown(spans, "read",
                      {{{"resolve"}, "read.resolve_us"},
                       {{"plan_cache_lookup", "compile"}, "read.plan_us"},
                       {{"request"}, "read.engine_self_us"},
                       {{"classify"}, "read.classify_us"},
                       {{"solve"}, "read.solve_self_us"},
                       {{"product_prune"}, "read.product_prune_us"},
                       {{"flow_build"}, "read.flow_build_us"},
                       {{"dinic", "exact_search"}, "read.search_us"},
                       {{"cut_extract"}, "read.cut_extract_us"}},
                      report);
    EmitPathBreakdown(spans, "commit",
                      {{{"commit.delta_build"}, "commit.delta_build_us"},
                       {{"commit.publish"}, "commit.publish_us"}},
                      report);
    const double restore_us = Mean(restore.restores.raw()) * 1000.0;
    report->Metric("restore.traced_us", restore_us, "us");
    report->Metric("storage.segment_read_us", restore.segment_read_us, "us");
    report->Metric("storage.journal_replay_us", restore.journal_read_us, "us");
    report->Metric("restore.unattributed_us",
                   restore_us - restore.segment_read_us - restore.journal_read_us, "us");

    const double lookups = static_cast<double>(traced.plan_hits + traced.plan_misses);
    report->Metric("engine.plan_cache_hit_ratio",
                   lookups > 0 ? static_cast<double>(traced.plan_hits) / lookups : 0, "ratio");
    report->Metric("engine.plan_cache_lookups", lookups, "count");
    report->Metric("engine.request_overhead_us",
                   traced.request_overhead_us /
                       std::max<double>(1, static_cast<double>(traced.traced_reads)),
                   "us");
    const double commits = static_cast<double>(std::max<int64_t>(1, traced.commits.size()));
    report->Metric("registry.compactions_per_1k_commits",
                   1000.0 * static_cast<double>(traced.compactions) / commits, "count");
    report->Metric("commit.compacting_us",
                   traced.compactions > 0
                       ? traced.compacting_us / static_cast<double>(traced.compactions)
                       : 0,
                   "us");
    const double counted = static_cast<double>(std::max<int64_t>(1, storage.counted_commits));
    report->Metric("storage.fsyncs_per_commit",
                   static_cast<double>(storage.syscalls.fsyncs) / counted, "count");
    report->Metric("storage.writes_per_commit",
                   static_cast<double>(storage.syscalls.writes) / counted, "count");
    MeasureCommitScaling(options.seed, report);
    const std::string spans_path = run_dir + "/spans.csv";
    if (!spans.WriteCsv(spans_path)) {
      std::fprintf(stderr, "warning: could not write %s\n", spans_path.c_str());
    }
    report->Note("spans", spans_path);
  }
  return report->mismatched() ? 3 : 0;
}

}  // namespace perfbench
