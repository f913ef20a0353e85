// rpqres — resilience/bcl_resilience: Proposition 7.6.
//
// RES_bag(L) for bipartite chain languages, by a flow network with one
// start/end vertex pair per fact: forward words are wired left-to-right
// and reversed words right-to-left according to the bipartition of the
// endpoint graph, so that every match is a source-target path and every
// source-target path is a match. Runs in Õ(|A|·|D|²·|Σ|²).

#ifndef RPQRES_RESILIENCE_BCL_RESILIENCE_H_
#define RPQRES_RESILIENCE_BCL_RESILIENCE_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "graphdb/graph_db.h"
#include "graphdb/label_index.h"
#include "lang/chain.h"
#include "lang/language.h"
#include "resilience/result.h"
#include "util/status.h"

namespace rpqres {

class SolverScratch;

/// The query-only half of Prp 7.6, derived once per language: which
/// labels are forced out, which words the network wires, and on which
/// side of the endpoint bipartition each endpoint letter lies.
struct BclPlan {
  /// Letters that form a single-letter word: every fact carrying one is
  /// in every contingency set (in IF(L) no other word uses the letter).
  std::array<bool, 256> forced_label{};
  /// The words of length >= 2, which the network wires.
  std::vector<std::string> long_words;
  /// Letters occurring in a long word.
  std::array<bool, 256> relevant_label{};
  /// Endpoint letters' partition: 0 = source side, 1 = target side; -1
  /// for letters that end no long word.
  std::array<int16_t, 256> endpoint_side{};
};

/// Derives the plan from a bipartite chain language's words and coloring
/// (AnalyzeBipartiteChain on IF(L)).
BclPlan PrepareBclPlan(const BipartiteChain& chain);

/// Solves RES(Q_L, D) from a prepared plan: per-database work only.
/// `index` must be built from `db`; every fact visit goes through it and
/// touches only the labels the chain words use. `scratch` (optional)
/// supplies the reusable solver arena, defaulting to the calling thread's
/// shared scratch.
ResilienceResult SolveBclResilienceWithPlan(const BclPlan& plan,
                                            const GraphDb& db,
                                            Semantics semantics,
                                            const LabelIndex& index,
                                            SolverScratch* scratch = nullptr);

/// One-shot form: IF(L), AnalyzeBipartiteChain, PrepareBclPlan and `db`'s
/// LabelIndex, then SolveBclResilienceWithPlan. FailedPrecondition unless
/// IF(L) is a bipartite chain language.
Result<ResilienceResult> SolveBclResilience(const Language& lang,
                                            const GraphDb& db,
                                            Semantics semantics);
/// The same over a caller's LabelIndex of `db`.
Result<ResilienceResult> SolveBclResilience(const Language& lang,
                                            const GraphDb& db,
                                            Semantics semantics,
                                            const LabelIndex& index);

}  // namespace rpqres

#endif  // RPQRES_RESILIENCE_BCL_RESILIENCE_H_
