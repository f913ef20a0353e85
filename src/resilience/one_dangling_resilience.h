// rpqres — resilience/one_dangling_resilience: Proposition 7.9.
//
// RES_bag(L ∪ {xy}) for a one-dangling language (L local, y fresh — the
// x-fresh case is handled through the mirror reduction of Prp 6.3):
//  1. rewrite the language: every x becomes xz for a fresh letter z
//     (L' stays local, by an RO-εNFA edit);
//  2. rewrite the database: per node v, route x-edges through a new node
//     (v,in), add a z-edge (v,in) -> v with *signed* multiplicity
//     Σmult(x into v) − Σmult(y out of v), and erase y-edges;
//  3. RES_bag(L ∪ {xy}, D) = RES_ex_bag(L', D') + κ with κ the total
//     y-multiplicity, where the extended bag semantics removes non-positive
//     facts for free (Claim 7.10).
// The witness contingency set is mapped back to D following the proof.
//
// Step 1 and the choice of orientation depend on L alone, so they form a
// plan (PrepareOneDanglingPlan). Step 2 is never materialized: the solve
// runs the Thm 3.13 product over a view of D that reorients, redirects
// and adds facts on the fly (resilience/local_product.h).

#ifndef RPQRES_RESILIENCE_ONE_DANGLING_RESILIENCE_H_
#define RPQRES_RESILIENCE_ONE_DANGLING_RESILIENCE_H_

#include "graphdb/graph_db.h"
#include "graphdb/label_index.h"
#include "lang/language.h"
#include "lang/one_dangling.h"
#include "resilience/result.h"
#include "resilience/ro_tables.h"
#include "util/status.h"

namespace rpqres {

class SolverScratch;

/// The query-only half of Prp 7.9, derived once per language.
struct OneDanglingPlan {
  /// The decomposition was found on mirror(IF(L)) (reported in the
  /// algorithm name).
  bool mirrored = false;
  /// Read the database with every edge reversed (Prp 6.3). A mirrored
  /// decomposition whose y occurs in the base is mirrored a second time so
  /// that the fresh letter trails; the two mirrors cancel and the database
  /// is read as stored.
  bool mirror_db = false;
  /// The dangling word xy of the oriented decomposition; y ∉ Σ(base).
  char x = '\0';
  char y = '\0';
  /// The letter of the x → xz rewrite, fresh against Σ(base) ∪ {x, y}.
  /// Database facts that carry it are not read: no word of L contains it.
  char z = '\0';
  /// Thm 3.13 tables of the rewritten base's RO-εNFA (x → xz).
  RoProductTables tables;
};

/// Derives the plan from a decomposition of IF(L) or of its mirror
/// (FindOrientedOneDangling). FailedPrecondition if the base is not
/// local.
Result<OneDanglingPlan> PrepareOneDanglingPlan(const OrientedOneDangling& found);

/// Solves RES(Q_L, D) from a prepared plan: per-database work only. Reads
/// the x, y and base facts through `index`, which must be built from
/// `db`; never copies `db`. `scratch` (optional) backs the flow solve and
/// the per-node rewrite state. Unimplemented when an x- or y-fact is
/// exogenous (the κ/z-multiplicity accounting is arithmetic).
Result<ResilienceResult> SolveOneDanglingResilienceWithPlan(
    const OneDanglingPlan& plan, const GraphDb& db, Semantics semantics,
    const LabelIndex& index, SolverScratch* scratch = nullptr);

/// One-shot form: IF(L), FindOrientedOneDangling, PrepareOneDanglingPlan
/// and `db`'s LabelIndex, then SolveOneDanglingResilienceWithPlan.
/// FailedPrecondition if neither IF(L) nor its mirror is one-dangling.
Result<ResilienceResult> SolveOneDanglingResilience(const Language& lang,
                                                    const GraphDb& db,
                                                    Semantics semantics);
/// The same over a caller's LabelIndex of `db`.
Result<ResilienceResult> SolveOneDanglingResilience(const Language& lang,
                                                    const GraphDb& db,
                                                    Semantics semantics,
                                                    const LabelIndex& index);

}  // namespace rpqres

#endif  // RPQRES_RESILIENCE_ONE_DANGLING_RESILIENCE_H_
