// rpqres — resilience/resilience: the public entry point.
//
// ComputeResilience classifies the query language (on its infix-free
// sublanguage) and routes to the best algorithm:
//   local (Thm 3.13) → BCL (Prp 7.6) → one-dangling (Prp 7.9) →
//   exact branch & bound (exponential; the paper's NP-hard side).

#ifndef RPQRES_RESILIENCE_RESILIENCE_H_
#define RPQRES_RESILIENCE_RESILIENCE_H_

#include <optional>

#include "automata/enfa.h"
#include "graphdb/graph_db.h"
#include "graphdb/label_index.h"
#include "graphdb/rpq_eval.h"
#include "lang/language.h"
#include "lang/tractable.h"
#include "resilience/bcl_resilience.h"
#include "resilience/exact.h"
#include "resilience/one_dangling_resilience.h"
#include "resilience/result.h"
#include "resilience/ro_tables.h"
#include "util/status.h"

namespace rpqres {

class SolverScratch;

/// Which algorithm to use.
enum class ResilienceMethod {
  kAuto,             ///< classify the language, pick the best solver
  kLocalFlow,        ///< Theorem 3.13 (requires IF(L) local)
  kBclFlow,          ///< Proposition 7.6 (requires IF(L) BCL)
  kOneDanglingFlow,  ///< Proposition 7.9 (requires IF(L) one-dangling)
  kExact,            ///< branch & bound (any regular L; exponential)
  kBruteForce,       ///< all subsets (tiny instances; for validation)
};

struct ResilienceOptions {
  ResilienceMethod method = ResilienceMethod::kAuto;
  /// With kAuto: whether falling back to the exponential exact solver is
  /// allowed when no polynomial algorithm applies.
  bool allow_exponential = true;
  /// Forwarded whenever the exact branch & bound runs (kExact or the
  /// kAuto fallback): node budget plus cooperative cancellation.
  ExactOptions exact;
};

/// Computes RES(Q_L, D) under the given semantics. See ResilienceResult for
/// the contract on the returned witness contingency set. A flow solver
/// reads `db` through `label_index`, which must be built from `db` (a
/// DbRegistry snapshot's index); a null `label_index` means one is built
/// here on demand, as in ComputeResilienceWithPlan.
Result<ResilienceResult> ComputeResilience(
    const Language& lang, const GraphDb& db, Semantics semantics,
    const ResilienceOptions& options = {},
    const LabelIndex* label_index = nullptr);

/// A precompiled kAuto dispatch decision: the infix-free sublanguage, the
/// solver selected for it, and everything that solver derives from the
/// query alone — computed once and reusable across any number of
/// databases (the engine's plan-cache payload).
struct ResiliencePlan {
  /// The language handed to the solver — IF(L) (Q_L = Q_IF(L), Section 2).
  /// The exact solver searches it as is.
  Language if_language;
  /// The solver kAuto selected for IF(L); never kAuto itself.
  ResilienceMethod method = ResilienceMethod::kExact;
  /// ε ∈ L: resilience is +∞ on every database; no solver runs.
  bool trivial_infinite = false;
  /// IF(L) = ∅: resilience is 0 on every database; no solver runs.
  bool trivial_empty = false;
  /// kLocalFlow: the RO-εNFA of IF(L) (Lemma 3.17).
  std::optional<Enfa> ro_enfa;
  /// kLocalFlow: solver-ready tables derived from `ro_enfa` (letter
  /// transitions, ε-CSRs, per-state labels, initial/final bits), so the
  /// product construction does zero per-solve automaton preprocessing.
  std::optional<RoProductTables> ro_tables;
  /// kBclFlow: the forced letters, the long words and the 256-entry
  /// relevance and endpoint-side tables of Prp 7.6.
  std::optional<BclPlan> bcl;
  /// kOneDanglingFlow: the orientation, x, y, the fresh letter z and the
  /// Thm 3.13 tables of the x → xz-rewritten base of Prp 7.9.
  std::optional<OneDanglingPlan> one_dangling;
  /// kExact: IF(L)'s automaton as the branch & bound's product BFS reads
  /// it (letter-transition CSR, initial closure, final bits).
  std::optional<ExactPlan> exact;
};

/// Derives the kAuto dispatch plan for `lang`. Plans are a kAuto notion:
/// `options.method` must be kAuto (InvalidArgument otherwise). With
/// `options.allow_exponential` false, Unimplemented when no polynomial
/// solver applies.
Result<ResiliencePlan> PlanResilience(const Language& lang,
                                      const ResilienceOptions& options = {});

/// Like PlanResilience but takes the precomputed IF(L) and its PTIME
/// verdict FindTractableForm(IF(L)) — the engine's entry point, which
/// derived both once and classified from the same form.
Result<ResiliencePlan> PlanResilienceWithIF(
    Language ifl, const TractableForm& form,
    const ResilienceOptions& options = {});

/// Computes RES(Q_L, D) by executing a precompiled plan. Equivalent to
/// ComputeResilience(lang, db, semantics) with kAuto, minus all per-query
/// work: parse, determinize, IF, classification, and each solver's
/// preparation (RO-εNFA tables for local; forced letters, words and
/// endpoint sides for BCL; orientation, fresh letter and rewritten-base
/// tables for one-dangling; product tables for exact).
/// `exact_options` only applies when the plan routes to the exact solver
/// (adversarial instances can make the branch & bound explode; callers
/// like the differential oracle bound it and treat OutOfRange as an
/// inconclusive budget exhaustion, not an answer). `label_index`, when
/// given, must be built from `db` (the DbRegistry snapshot hot path). The
/// flow solvers read facts only through a LabelIndex, so a null
/// `label_index` means one is built from `db` on demand, and only for the
/// flow methods: trivial and exact plans never build one. `scratch`, when
/// given, supplies the reusable solver arena
/// (flow/solver_scratch.h); the solvers otherwise fall back to the
/// calling thread's shared scratch, so repeated calls are allocation-free
/// in steady state either way. Under bag semantics, OutOfRange when the
/// database's endogenous multiplicities sum past kMaxTotalMultiplicity.
Result<ResilienceResult> ComputeResilienceWithPlan(
    const ResiliencePlan& plan, const GraphDb& db, Semantics semantics,
    const ExactOptions& exact_options = {},
    const LabelIndex* label_index = nullptr, SolverScratch* scratch = nullptr);

/// Decision variant (Section 2 problem statement): RES(Q_L, D) <= k?
Result<bool> ResilienceAtMost(const Language& lang, const GraphDb& db,
                              Semantics semantics, Capacity k,
                              const ResilienceOptions& options = {});

/// Validates a result against the database: the contingency set's cost
/// equals `value`, its removal falsifies Q_L, and `infinite` matches ε ∈ L.
/// (Optimality is NOT checked — use a second solver for that.)
Status VerifyResilienceResult(const Language& lang, const GraphDb& db,
                              Semantics semantics,
                              const ResilienceResult& result);

/// Endpoint-pinned variant: the contingency must remove every L-walk from
/// `source` to `target` (the non-Boolean Thm 3.13 extension). Powers the
/// differential second opinion for fixed-endpoint requests.
Status VerifyResilienceResultBetween(const Language& lang, const GraphDb& db,
                                     NodeId source, NodeId target,
                                     Semantics semantics,
                                     const ResilienceResult& result);

/// The check behind both wrappers above, over a prepared
/// PrepareProductAutomaton(lang.enfa()) and LabelIndex of `db`, which the
/// wrappers build per call; source/target < 0 checks the Boolean query.
Status VerifyResilienceImpl(const Language& lang,
                            const ProductAutomaton& automaton,
                            const GraphDb& db, const LabelIndex& index,
                            Semantics semantics,
                            const ResilienceResult& result, NodeId source,
                            NodeId target);

}  // namespace rpqres

#endif  // RPQRES_RESILIENCE_RESILIENCE_H_
