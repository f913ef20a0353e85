// rpqres — workload/workload: deterministic seed → instance derivation.
//
// A workload instance — query class, regex, database shape, database,
// semantics — is a pure function of one uint64 seed. That single number
// is therefore a complete, replayable bug report: the differential oracle
// prints it on every mismatch and `bench_workload --replay <seed>`
// rebuilds the exact instance anywhere.
//
// The query class is carried in the seed itself (seed mod #classes), so a
// stratified sweep just picks seeds in the right residue classes and a
// bare seed still replays without side information.

#ifndef RPQRES_WORKLOAD_WORKLOAD_H_
#define RPQRES_WORKLOAD_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "graphdb/graph_db.h"
#include "util/status.h"
#include "workload/db_generator.h"
#include "workload/query_generator.h"

namespace rpqres {
namespace workload {

struct WorkloadOptions {
  /// Forwarded to GenerateDb.
  DbGenOptions db;
  /// Candidate budget for GenerateQuery.
  int max_query_attempts = 64;
};

/// One fully derived instance.
struct WorkloadInstance {
  uint64_t seed = 0;
  QueryClass query_class = QueryClass::kLocal;
  GeneratedQuery query;
  DbShape shape = DbShape::kRandom;
  GraphDb db;
  Semantics semantics = Semantics::kSet;
};

/// The query class a seed encodes (seed mod kAllQueryClasses.size()).
QueryClass QueryClassForSeed(uint64_t seed);

/// The i-th seed of `query_class` at or after `base_seed` — the seed
/// enumeration the oracle uses for stratified budgets.
uint64_t SeedFor(uint64_t base_seed, QueryClass query_class, int index);

/// Derives the instance for `seed`. Deterministic: equal seeds and
/// options give byte-identical instances (regex, database, semantics).
/// Errors only if no query candidate hits the seed's class within the
/// attempt budget.
Result<WorkloadInstance> MakeWorkloadInstance(
    uint64_t seed, const WorkloadOptions& options = {});

/// One-line human description: seed, class, regex, shape, db size,
/// semantics.
std::string DescribeInstance(const WorkloadInstance& instance);

}  // namespace workload
}  // namespace rpqres

#endif  // RPQRES_WORKLOAD_WORKLOAD_H_
