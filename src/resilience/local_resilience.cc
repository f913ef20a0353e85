#include "resilience/local_resilience.h"

#include "flow/solver_scratch.h"
#include "lang/infix_free.h"
#include "lang/ro_enfa.h"
#include "resilience/local_product.h"
#include "util/check.h"

namespace rpqres {

namespace {

// The Thm 3.13 product over `db` itself (local_product.h).
ResilienceResult SolveLocalProduct(const RoProductTables& t, const GraphDb& db,
                                   Semantics semantics, NodeId fixed_source,
                                   NodeId fixed_target,
                                   const LabelIndex& index,
                                   SolverScratch* scratch) {
  if (scratch == nullptr) scratch = &SolverScratch::ThreadLocal();
  ResilienceResult result;
  result.algorithm = fixed_source < 0
                         ? "local flow (Thm 3.13)"
                         : "local flow, fixed endpoints (Thm 3.13 ext)";
  RunLocalProduct(t, DbFacts(t, db, semantics, index), fixed_source,
                  fixed_target, scratch, &result);
  return result;
}

// Obtains an RO-εNFA for L or IF(L); IF(L) may be local even when L is
// not (e.g. a|aa). Note IF preserves the query even with fixed endpoints:
// a sub-walk of an s→t walk witnesses Q existentially, but conversely the
// IF rewrite is only safe for endpoint-free queries OR when used on a
// language that is already infix-free; we therefore only fall back to
// IF(L) when it is equivalent to L for the constrained semantics, i.e.
// for Boolean use. Fixed-endpoint callers pass require_exact = true.
Result<Enfa> RoEnfaForSolver(const Language& lang, bool require_exact) {
  Result<Enfa> ro = BuildRoEnfa(lang);
  if (ro.ok()) return ro;
  if (!require_exact) {
    Language ifl = InfixFreeSublanguage(lang);
    ro = BuildRoEnfa(ifl);
    if (ro.ok()) return ro;
  }
  return Status::FailedPrecondition(
      "local resilience: " + lang.description() +
      " is not a local language" +
      (require_exact ? " (IF-rewriting is unsound with fixed endpoints)"
                     : " and neither is its infix-free sublanguage"));
}

RoProductTables MustBuildTables(const Enfa& ro) {
  Result<RoProductTables> tables = BuildRoProductTables(ro);
  RPQRES_CHECK_MSG(tables.ok(), "automaton is not read-once");
  return *std::move(tables);
}

}  // namespace

ResilienceResult SolveLocalResilienceWithTables(const RoProductTables& tables,
                                                const GraphDb& db,
                                                Semantics semantics,
                                                const LabelIndex& index,
                                                SolverScratch* scratch) {
  return SolveLocalProduct(tables, db, semantics, /*fixed_source=*/-1,
                           /*fixed_target=*/-1, index, scratch);
}

ResilienceResult SolveLocalResilienceWithRoEnfa(const Enfa& ro,
                                                const GraphDb& db,
                                                Semantics semantics) {
  return SolveLocalResilienceWithTables(MustBuildTables(ro), db, semantics,
                                        LabelIndex(db));
}

Result<ResilienceResult> SolveLocalResilience(const Language& lang,
                                              const GraphDb& db,
                                              Semantics semantics) {
  return SolveLocalResilience(lang, db, semantics, LabelIndex(db));
}

Result<ResilienceResult> SolveLocalResilience(const Language& lang,
                                              const GraphDb& db,
                                              Semantics semantics,
                                              const LabelIndex& index) {
  RPQRES_ASSIGN_OR_RETURN(Enfa ro,
                          RoEnfaForSolver(lang, /*require_exact=*/false));
  return SolveLocalResilienceWithTables(MustBuildTables(ro), db, semantics,
                                        index);
}

ResilienceResult SolveLocalResilienceFixedEndpointsWithTables(
    const RoProductTables& tables, const GraphDb& db, NodeId source,
    NodeId target, Semantics semantics, const LabelIndex& index,
    SolverScratch* scratch) {
  return SolveLocalProduct(tables, db, semantics, source, target, index,
                           scratch);
}

Result<ResilienceResult> SolveLocalResilienceFixedEndpoints(
    const Language& lang, const GraphDb& db, NodeId source, NodeId target,
    Semantics semantics) {
  if (source < 0 || source >= db.num_nodes() || target < 0 ||
      target >= db.num_nodes()) {
    return Status::InvalidArgument(
        "fixed endpoints must be nodes of the database");
  }
  RPQRES_ASSIGN_OR_RETURN(Enfa ro,
                          RoEnfaForSolver(lang, /*require_exact=*/true));
  return SolveLocalResilienceFixedEndpointsWithTables(
      MustBuildTables(ro), db, source, target, semantics, LabelIndex(db));
}

}  // namespace rpqres
