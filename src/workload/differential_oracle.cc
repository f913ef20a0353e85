#include "workload/differential_oracle.h"

#include <chrono>
#include <utility>

#include "graphdb/label_index.h"
#include "graphdb/serialization.h"
#include "lang/language.h"
#include "resilience/exact.h"
#include "resilience/resilience.h"

namespace rpqres {
namespace workload {
namespace {

double MicrosSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Re-judges one candidate database outside the engine — the minimizer's
/// inner loop. Runs the full oracle predicate (plan vs exact, witness
/// checks, brute-force third opinion on small instances) so every kind of
/// detected mismatch keeps reproducing while the database shrinks. The
/// plan depends only on the language and is derived once by the caller.
/// Returns the mismatch line, empty on agreement or budget exhaustion.
std::string JudgeOnce(const Language& lang, const ResiliencePlan& plan,
                      const GraphDb& db, Semantics semantics,
                      const ExactOptions& exact_options,
                      int brute_force_max_facts) {
  // One index of the candidate serves the plan, the reference and the
  // judge.
  const LabelIndex index(db);
  ResilienceResponse response;
  response.differential.emplace();
  Result<ResilienceResult> primary =
      ComputeResilienceWithPlan(plan, db, semantics, exact_options, &index);
  if (primary.ok()) {
    response.result = *std::move(primary);
  } else {
    response.status = primary.status();
  }
  Result<ResilienceResult> reference =
      SolveExactResilience(lang, db, semantics, index, exact_options);
  if (reference.ok()) {
    response.differential->reference_result = *std::move(reference);
  } else {
    response.differential->reference_status = reference.status();
  }
  JudgeDifferential(lang, db, index, semantics, &response);
  if (!response.differential->mismatch.empty() ||
      response.differential->inconclusive) {
    return response.differential->mismatch;
  }
  if (response.status.ok() && db.num_facts() <= brute_force_max_facts) {
    Result<ResilienceResult> brute =
        SolveBruteForceResilience(lang, db, semantics, brute_force_max_facts);
    if (brute.ok() && (brute->infinite != response.result.infinite ||
                       (!brute->infinite &&
                        brute->value != response.result.value))) {
      return "brute-force divergence";
    }
  }
  return "";
}

}  // namespace

DifferentialOracle::DifferentialOracle(OracleOptions options)
    : options_([&options] {
        options.engine.max_exact_search_nodes = options.max_exact_search_nodes;
        return std::move(options);
      }()),
      engine_(options_.engine) {}

Result<WorkloadInstance> DifferentialOracle::BuildInstance(
    uint64_t seed) const {
  return MakeWorkloadInstance(seed, options_.workload);
}

std::string DifferentialOracle::BruteForceCheck(
    const WorkloadInstance& instance, const ResilienceResponse& response,
    OracleClassReport* per_class) {
  if (!response.status.ok()) return "";
  if (instance.db.num_facts() > options_.brute_force_max_facts) return "";
  Language lang = Language::MustFromRegexString(instance.query.regex);
  Result<ResilienceResult> brute = SolveBruteForceResilience(
      lang, instance.db, instance.semantics, options_.brute_force_max_facts);
  if (!brute.ok()) return "";  // out of range etc. — no third opinion
  ++per_class->brute_force_checked;
  if (brute->infinite != response.result.infinite) {
    return "brute-force infinite divergence: primary=" +
           std::to_string(response.result.infinite) + " (" +
           response.result.algorithm +
           ") vs brute=" + std::to_string(brute->infinite);
  }
  if (!brute->infinite && brute->value != response.result.value) {
    return "brute-force value divergence: primary=" +
           std::to_string(response.result.value) + " (" +
           response.result.algorithm +
           ") vs brute=" + std::to_string(brute->value);
  }
  return "";
}

OracleMismatch DifferentialOracle::BuildMismatch(
    const WorkloadInstance& instance, std::string detail) {
  OracleMismatch mismatch;
  mismatch.seed = instance.seed;
  mismatch.query_class = instance.query_class;
  mismatch.regex = instance.query.regex;
  mismatch.semantics = instance.semantics;
  mismatch.detail = std::move(detail);
  mismatch.replay = options_.replay_binary + " --replay " +
                    std::to_string(instance.seed);

  GraphDb minimized = instance.db;
  Language lang = Language::MustFromRegexString(instance.query.regex);
  Result<ResiliencePlan> plan = PlanResilience(lang);
  if (options_.minimize_counterexamples && plan.ok()) {
    ExactOptions exact_options;
    exact_options.max_search_nodes = options_.max_exact_search_nodes;
    int budget = options_.minimize_solve_budget;
    bool progress = true;
    while (progress && budget > 0) {
      progress = false;
      for (FactId f = minimized.num_facts() - 1; f >= 0 && budget > 0; --f) {
        GraphDb smaller = minimized.RemoveFacts({f});
        --budget;
        if (!JudgeOnce(lang, *plan, smaller, instance.semantics,
                       exact_options, options_.brute_force_max_facts)
                 .empty()) {
          minimized = std::move(smaller);
          progress = true;
          break;  // fact ids shifted; rescan from the new tail
        }
      }
    }
  }
  mismatch.minimized_db = SerializeGraphDb(minimized);
  mismatch.minimized_facts = minimized.num_facts();
  return mismatch;
}

void DifferentialOracle::CheckBatch(
    const std::vector<WorkloadInstance>& instances,
    OracleClassReport* per_class, OracleReport* report) {
  // Register every batch database: requests then share immutable
  // snapshots (with per-label indexes) instead of borrowing raw
  // pointers. The per-instance copy + index build is deliberate, not an
  // oversight: the oracle is the correctness harness, and going through
  // Register means the production hot path (indexed flow construction)
  // is what gets differentially validated on every random instance; the
  // copies are noise next to the exact reference solves.
  std::vector<ResilienceRequest> requests;
  requests.reserve(instances.size());
  for (const WorkloadInstance& instance : instances) {
    ResilienceRequest request;
    request.regex = instance.query.regex;
    request.db = registry_.Register(instance.db,
                                    "seed:" + std::to_string(instance.seed));
    request.semantics = instance.semantics;
    requests.push_back(std::move(request));
  }
  std::vector<ResilienceResponse> responses =
      engine_.EvaluateDifferential(requests);
  for (size_t i = 0; i < instances.size(); ++i) {
    const WorkloadInstance& instance = instances[i];
    ResilienceResponse& response = responses[i];
    ++per_class->instances;
    ++report->instances;
    if (!response.stats.algorithm.empty()) {
      ++per_class->by_algorithm[response.stats.algorithm];
    }
    bool inconclusive = response.differential.has_value() &&
                        response.differential->inconclusive;
    if (inconclusive) {
      ++per_class->inconclusive;
      ++report->inconclusive;
    }
    std::string detail = response.differential.has_value()
                             ? response.differential->mismatch
                             : std::string();
    if (detail.empty()) {
      detail = BruteForceCheck(instance, response, per_class);
    }
    if (!detail.empty()) {
      ++per_class->mismatches;
      report->mismatches.push_back(
          BuildMismatch(instance, std::move(detail)));
    }
    registry_.Unregister(requests[i].db.id());
  }
}

OracleReport DifferentialOracle::RunAll() {
  OracleReport report;
  auto run_start = std::chrono::steady_clock::now();
  for (QueryClass query_class : kAllQueryClasses) {
    OracleClassReport per_class;
    per_class.query_class = query_class;
    auto class_start = std::chrono::steady_clock::now();

    std::vector<WorkloadInstance> instances;
    instances.reserve(options_.instances_per_class);
    for (int i = 0; i < options_.instances_per_class; ++i) {
      uint64_t seed = SeedFor(options_.base_seed, query_class, i);
      Result<WorkloadInstance> instance = BuildInstance(seed);
      if (!instance.ok()) {
        ++per_class.generation_failures;
        ++report.generation_failures;
        continue;
      }
      instances.push_back(*std::move(instance));
    }
    CheckBatch(instances, &per_class, &report);

    per_class.wall_micros = MicrosSince(class_start);
    report.per_class.push_back(std::move(per_class));
  }
  report.wall_micros = MicrosSince(run_start);
  return report;
}

OracleReport DifferentialOracle::RunSeeds(const std::vector<uint64_t>& seeds) {
  OracleReport report;
  auto run_start = std::chrono::steady_clock::now();
  // Group by the class each seed encodes, preserving order within a class.
  for (QueryClass query_class : kAllQueryClasses) {
    std::vector<WorkloadInstance> instances;
    OracleClassReport per_class;
    per_class.query_class = query_class;
    auto class_start = std::chrono::steady_clock::now();
    for (uint64_t seed : seeds) {
      if (QueryClassForSeed(seed) != query_class) continue;
      Result<WorkloadInstance> instance = BuildInstance(seed);
      if (!instance.ok()) {
        ++per_class.generation_failures;
        ++report.generation_failures;
        continue;
      }
      instances.push_back(*std::move(instance));
    }
    if (instances.empty() && per_class.generation_failures == 0) continue;
    CheckBatch(instances, &per_class, &report);
    per_class.wall_micros = MicrosSince(class_start);
    report.per_class.push_back(std::move(per_class));
  }
  report.wall_micros = MicrosSince(run_start);
  return report;
}

}  // namespace workload
}  // namespace rpqres
