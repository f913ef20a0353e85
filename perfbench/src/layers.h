// perfbench — traced-run layer sweeps: each times one module's public
// entry point on the workload's own inputs.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <string>
#include <vector>

#include "common.h"
#include "engine/db_registry.h"
#include "engine/engine.h"

namespace perfbench {

/// One query per solver family: local, BCL, one-dangling, exact.
/// solve_mix reads them, and the solve sweep falls back to them for
/// families a workload never reads.
inline constexpr const char* kFamilyRegex[4] = {"ax*b", "ab|bc", "abc|be", "ab|bc|ca"};

struct LayerInputs {
  rpqres::ResilienceEngine* engine = nullptr;
  rpqres::DbRegistry* registry = nullptr;
  rpqres::EngineOptions engine_options;
  /// A sample of the workload's reads, in the db_ref form it sends.
  std::vector<rpqres::ResilienceRequest> reads;
  /// Every lineage name of the workload.
  std::vector<std::string> lineages;
};

/// regex.parse_us, automata.min_dfa_us, automata.dfa_states, classify.us,
/// engine.compile_us, engine.compile_rest_us.
void MeasureCompileLayers(const LayerInputs& in, Report* report);

/// solve.<family>_us / _allocs, flow.network_edges, flow.pruned_edge_ratio,
/// exact.search_nodes, engine.allocs_overhead, graphdb.label_index_build_us.
void MeasureSolveLayers(const LayerInputs& in, Report* report);

/// registry.resolve_us, pool.queue_wait_p50_us / _p99_us,
/// router.overhead_us, admission.shed_ratio, obs.tracing_overhead_pct,
/// obs.export_us.
void MeasureRequestLayers(const LayerInputs& in, Report* report);

/// commit.mem_{4k,16k,64k}_us with their build / publish split and the
/// LabelIndex build on the same base (graphdb.label_index_{4k,16k,64k}_us).
void MeasureCommitScaling(uint64_t seed, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
