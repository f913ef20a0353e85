// rpqres — resilience/exact: exact (exponential-time) resilience solvers.
//
// These are the ground truth against which the polynomial flow-based
// solvers are validated, and the baseline on the NP-hard side of the
// dichotomy:
//  * SolveExactResilience — branch & bound on witness matches: any
//    contingency set must hit the facts of a shortest L-walk, so branching
//    on which fact of that walk to delete is complete. Works for arbitrary
//    regular languages, set and bag semantics.
//  * SolveBruteForceResilience — enumeration of all fact subsets; only for
//    tiny instances, used to validate the branch & bound itself.
//
// Prepared tables and scratch. The branch & bound runs one product BFS
// (graphdb/rpq_eval SearchProduct) per search node. Everything that BFS
// reads about the query — IF(L)'s letter-transition CSR, whether its
// initial closure accepts, the final bits — is an ExactPlan, built once
// per query by PrepareExactPlan (the planner stores it in
// ResiliencePlan::exact). It reads the database's facts through a
// LabelIndex, like every other solver: the caller's (a DbRegistry
// snapshot's), or one the one-shot entry points build per call; the
// brute force builds its own. Everything transient — the BFS seen set,
// parents and queue, the removal mask, the per-depth match stack and the
// incumbent — lives in the exact section of a SolverScratch: the caller's
// (the engine passes its per-thread scratch), or else the calling
// thread's SolverScratch::ThreadLocal(). With a warm scratch a plan solve
// allocates only the returned result.

#ifndef RPQRES_RESILIENCE_EXACT_H_
#define RPQRES_RESILIENCE_EXACT_H_

#include "graphdb/graph_db.h"
#include "graphdb/label_index.h"
#include "graphdb/rpq_eval.h"
#include "lang/language.h"
#include "resilience/result.h"
#include "util/cancel.h"
#include "util/status.h"

namespace rpqres {

/// Tuning knobs for the exact solver.
struct ExactOptions {
  /// Hard cap on branch-and-bound nodes; OutOfRange when exceeded.
  uint64_t max_search_nodes = 50'000'000;
  /// Compute a root lower bound from greedy fact-disjoint matches.
  bool use_disjoint_match_bound = true;
  /// Borrowed cooperative stop signal, polled every few hundred search
  /// nodes next to the node-budget check; the solver returns the token's
  /// status (DeadlineExceeded / Cancelled) when it fires. nullptr = never
  /// stops early. Must outlive the solve.
  const CancelToken* cancel = nullptr;
};

/// The query-only part of an exact solve: IF(L)'s automaton as the
/// product BFS reads it.
struct ExactPlan {
  ProductAutomaton automaton;
};

/// Prepares the exact solver's tables for an infix-free language (a
/// plan's IF(L)); the search runs over it as is.
ExactPlan PrepareExactPlan(const Language& ifl);

/// Exact resilience for an arbitrary regular language (exponential time).
/// Searches over IF(L) (same query, shorter witness matches). One-shot:
/// derives IF(L) and its ExactPlan first, and builds a LabelIndex of `db`.
Result<ResilienceResult> SolveExactResilience(const Language& lang,
                                              const GraphDb& db,
                                              Semantics semantics,
                                              const ExactOptions& options = {});
/// The same over a caller's LabelIndex of `db`.
Result<ResilienceResult> SolveExactResilience(const Language& lang,
                                              const GraphDb& db,
                                              Semantics semantics,
                                              const LabelIndex& index,
                                              const ExactOptions& options = {});

/// SolveExactResilience over prepared tables and a LabelIndex of `db`,
/// searching with `scratch` (the calling thread's scratch when null).
/// Under bag semantics, OutOfRange when the database's endogenous
/// multiplicities sum past kMaxTotalMultiplicity.
Result<ResilienceResult> SolveExactResilienceWithPlan(
    const ExactPlan& plan, const GraphDb& db, Semantics semantics,
    const LabelIndex& index, const ExactOptions& options = {},
    SolverScratch* scratch = nullptr);

/// All-subsets brute force; requires db.num_facts() <= max_facts (<= 24).
Result<ResilienceResult> SolveBruteForceResilience(const Language& lang,
                                                   const GraphDb& db,
                                                   Semantics semantics,
                                                   int max_facts = 20);

/// Fixed-endpoint all-subsets brute force (ground truth for the
/// non-Boolean extension of SolveLocalResilienceFixedEndpoints).
Result<ResilienceResult> SolveBruteForceResilienceBetween(
    const Language& lang, const GraphDb& db, NodeId source, NodeId target,
    Semantics semantics, int max_facts = 20);

/// Exact resilience via the hypergraph of matches (Def 4.7): enumerate
/// matches, condense with the Section 4.3 rules (set semantics only —
/// they preserve minimum *cardinality*), and solve a minimum(-weight)
/// hitting set. Works for finite languages, or infinite languages over
/// acyclic databases; this is the hitting-set view the paper uses
/// throughout its hardness proofs, and doubles as an independent
/// cross-check of the walk-based branch & bound.
Result<ResilienceResult> SolveHittingSetResilience(const Language& lang,
                                                   const GraphDb& db,
                                                   Semantics semantics);

}  // namespace rpqres

#endif  // RPQRES_RESILIENCE_EXACT_H_
