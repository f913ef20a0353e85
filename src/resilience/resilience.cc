#include "resilience/resilience.h"

#include <optional>
#include <utility>

#include "flow/solver_scratch.h"
#include "graphdb/rpq_eval.h"
#include "lang/infix_free.h"
#include "lang/ro_enfa.h"
#include "obs/trace.h"
#include "resilience/local_resilience.h"

namespace rpqres {

namespace {

/// Every solver reads facts through a LabelIndex. A caller without one
/// gets it built from `db` on first use, so a trivial plan or a brute
/// force (which indexes the database it enumerates) builds none.
class IndexOnDemand {
 public:
  IndexOnDemand(const GraphDb& db, const LabelIndex* index)
      : db_(db), index_(index) {}
  const LabelIndex& get() {
    // invariant-ok(solver-fact-access): the one on-demand index build
    if (index_ == nullptr) index_ = &built_.emplace(db_);
    return *index_;
  }

 private:
  const GraphDb& db_;
  const LabelIndex* index_;
  std::optional<LabelIndex> built_;
};

}  // namespace

Result<ResiliencePlan> PlanResilience(const Language& lang,
                                      const ResilienceOptions& options) {
  Language ifl = InfixFreeSublanguage(lang);
  TractableForm form = FindTractableForm(ifl);
  return PlanResilienceWithIF(std::move(ifl), form, options);
}

Result<ResiliencePlan> PlanResilienceWithIF(Language ifl,
                                            const TractableForm& form,
                                            const ResilienceOptions& options) {
  if (options.method != ResilienceMethod::kAuto) {
    return Status::InvalidArgument(
        "PlanResilience plans the kAuto dispatch; to force a solver, call "
        "ComputeResilience with that method directly");
  }
  ResiliencePlan plan{std::move(ifl),          ResilienceMethod::kExact,
                      /*trivial_infinite=*/false, /*trivial_empty=*/false,
                      /*ro_enfa=*/std::nullopt,  /*ro_tables=*/std::nullopt,
                      /*bcl=*/std::nullopt,      /*one_dangling=*/std::nullopt,
                      /*exact=*/std::nullopt};
  if (plan.if_language.ContainsEpsilon()) {
    plan.trivial_infinite = true;
    return plan;
  }
  if (plan.if_language.IsEmpty()) {
    plan.trivial_empty = true;
    return plan;
  }
  switch (form.kind) {
    case TractableKind::kLocal: {
      plan.method = ResilienceMethod::kLocalFlow;
      RPQRES_ASSIGN_OR_RETURN(plan.ro_enfa, BuildRoEnfa(plan.if_language));
      RPQRES_ASSIGN_OR_RETURN(plan.ro_tables,
                              BuildRoProductTables(*plan.ro_enfa));
      return plan;
    }
    case TractableKind::kBipartiteChain:
      plan.method = ResilienceMethod::kBclFlow;
      plan.bcl = PrepareBclPlan(*form.chain);
      return plan;
    case TractableKind::kOneDangling: {
      plan.method = ResilienceMethod::kOneDanglingFlow;
      RPQRES_ASSIGN_OR_RETURN(plan.one_dangling,
                              PrepareOneDanglingPlan(*form.one_dangling));
      return plan;
    }
    case TractableKind::kNone:
      break;
  }
  if (!options.allow_exponential) {
    return Status::Unimplemented(
        "no polynomial-time algorithm known for " +
        plan.if_language.description() + " and exponential fallback disabled");
  }
  plan.method = ResilienceMethod::kExact;
  plan.exact = PrepareExactPlan(plan.if_language);
  return plan;
}

Result<ResilienceResult> ComputeResilienceWithPlan(
    const ResiliencePlan& plan, const GraphDb& db, Semantics semantics,
    const ExactOptions& exact_options, const LabelIndex* label_index,
    SolverScratch* scratch) {
  if (plan.trivial_infinite) {
    ResilienceResult result;
    result.infinite = true;
    result.algorithm = "trivial (ε ∈ L)";
    return result;
  }
  if (plan.trivial_empty) {
    ResilienceResult result;
    result.algorithm = "trivial (L = ∅)";
    return result;
  }
  if (semantics == Semantics::kBag) {
    RPQRES_RETURN_IF_ERROR(db.CheckTotalMultiplicity());
  }
  IndexOnDemand index(db, label_index);
  switch (plan.method) {
    case ResilienceMethod::kLocalFlow:
      if (!plan.ro_tables) break;
      return SolveLocalResilienceWithTables(*plan.ro_tables, db, semantics,
                                            index.get(), scratch);
    case ResilienceMethod::kBclFlow:
      if (!plan.bcl) break;
      return SolveBclResilienceWithPlan(*plan.bcl, db, semantics,
                                        index.get(), scratch);
    case ResilienceMethod::kOneDanglingFlow:
      if (!plan.one_dangling) break;
      return SolveOneDanglingResilienceWithPlan(
          *plan.one_dangling, db, semantics, index.get(), scratch);
    case ResilienceMethod::kExact: {
      if (!plan.exact) break;
      // One span for the whole (potentially exponential) search; the
      // branch & bound records no child spans.
      obs::ScopedSpan span(scratch != nullptr ? scratch->trace : nullptr,
                           obs::SpanKind::kExactSearch);
      return SolveExactResilienceWithPlan(*plan.exact, db, semantics,
                                          index.get(), exact_options, scratch);
    }
    case ResilienceMethod::kBruteForce:
      return SolveBruteForceResilience(plan.if_language, db, semantics);
    case ResilienceMethod::kAuto:
      break;
  }
  return Status::Internal(
      "ResiliencePlan holds an unexecutable method or lacks its prepared "
      "data");
}

Result<ResilienceResult> ComputeResilience(const Language& lang,
                                           const GraphDb& db,
                                           Semantics semantics,
                                           const ResilienceOptions& options,
                                           const LabelIndex* label_index) {
  if (options.method != ResilienceMethod::kAuto &&
      semantics == Semantics::kBag) {
    // A forced solver skips the plan path's check.
    RPQRES_RETURN_IF_ERROR(db.CheckTotalMultiplicity());
  }
  IndexOnDemand index(db, label_index);
  switch (options.method) {
    case ResilienceMethod::kLocalFlow:
      return SolveLocalResilience(lang, db, semantics, index.get());
    case ResilienceMethod::kBclFlow:
      return SolveBclResilience(lang, db, semantics, index.get());
    case ResilienceMethod::kOneDanglingFlow:
      return SolveOneDanglingResilience(lang, db, semantics, index.get());
    case ResilienceMethod::kExact:
      return SolveExactResilience(lang, db, semantics, index.get(),
                                  options.exact);
    case ResilienceMethod::kBruteForce:
      return SolveBruteForceResilience(lang, db, semantics);
    case ResilienceMethod::kAuto:
      break;
  }

  // kAuto: plan (classify IF(L), pick the solver) then execute. One-shot
  // callers pay the plan derivation here; repeated callers should plan
  // once and use ComputeResilienceWithPlan (or the engine, which caches).
  RPQRES_ASSIGN_OR_RETURN(ResiliencePlan plan, PlanResilience(lang, options));
  return ComputeResilienceWithPlan(plan, db, semantics, options.exact,
                                   label_index);
}

Result<bool> ResilienceAtMost(const Language& lang, const GraphDb& db,
                              Semantics semantics, Capacity k,
                              const ResilienceOptions& options) {
  RPQRES_ASSIGN_OR_RETURN(ResilienceResult result,
                          ComputeResilience(lang, db, semantics, options));
  if (result.infinite) return false;
  return result.value <= k;
}

Status VerifyResilienceImpl(const Language& lang,
                            const ProductAutomaton& automaton,
                            const GraphDb& db, const LabelIndex& index,
                            Semantics semantics,
                            const ResilienceResult& result, NodeId source,
                            NodeId target) {
  if ((source >= 0 || target >= 0) &&
      (source < 0 || source >= db.num_nodes() || target < 0 ||
       target >= db.num_nodes())) {
    return Status::InvalidArgument(
        "fixed endpoints must be nodes of the database");
  }
  // The one automaton and index serve every check below.
  auto holds = [&](const std::vector<uint8_t>& removed) {
    return SearchProduct(db, index, automaton, removed.data(), source, target,
                         SolverScratch::ThreadLocal());
  };
  // Resilience is +∞ iff ε ∈ L (for fixed endpoints: and they coincide),
  // or the query survives deleting every endogenous fact (a
  // fully-exogenous match exists).
  bool unfalsifiable =
      lang.ContainsEpsilon() && (source < 0 || source == target);
  if (!unfalsifiable && db.NumExogenous() > 0) {
    std::vector<uint8_t> endogenous_removed(db.num_facts(), 0);
    for (FactId f = 0; f < db.num_facts(); ++f) {
      endogenous_removed[f] = db.IsExogenous(f) ? 0 : 1;
    }
    unfalsifiable = holds(endogenous_removed);
  }
  if (result.infinite != unfalsifiable) {
    return Status::Internal(
        "result.infinite disagrees with falsifiability (infinite=" +
        std::to_string(result.infinite) +
        ", unfalsifiable=" + std::to_string(unfalsifiable) + ")");
  }
  if (result.infinite) return Status::OK();

  Capacity cost = 0;
  std::vector<uint8_t> removed(db.num_facts(), 0);
  for (FactId f : result.contingency) {
    if (f < 0 || f >= db.num_facts()) {
      return Status::Internal("contingency contains invalid fact id " +
                              std::to_string(f));
    }
    if (!db.IsLive(f)) {
      return Status::Internal("contingency contains tombstoned fact id " +
                              std::to_string(f));
    }
    if (removed[f]) {
      return Status::Internal("contingency contains duplicate fact id " +
                              std::to_string(f));
    }
    if (db.IsExogenous(f)) {
      return Status::Internal("contingency contains exogenous fact id " +
                              std::to_string(f));
    }
    removed[f] = 1;
    cost += db.Cost(f, semantics);
  }
  if (cost != result.value) {
    return Status::Internal("contingency cost " + std::to_string(cost) +
                            " != reported value " +
                            std::to_string(result.value));
  }
  if (holds(removed)) {
    return Status::Internal(
        "query still holds after removing the contingency set");
  }
  return Status::OK();
}

Status VerifyResilienceResult(const Language& lang, const GraphDb& db,
                              Semantics semantics,
                              const ResilienceResult& result) {
  return VerifyResilienceImpl(lang, PrepareProductAutomaton(lang.enfa()), db,
                              LabelIndex(db), semantics, result,
                              /*source=*/-1, /*target=*/-1);
}

Status VerifyResilienceResultBetween(const Language& lang, const GraphDb& db,
                                     NodeId source, NodeId target,
                                     Semantics semantics,
                                     const ResilienceResult& result) {
  return VerifyResilienceImpl(lang, PrepareProductAutomaton(lang.enfa()), db,
                              LabelIndex(db), semantics, result, source,
                              target);
}

}  // namespace rpqres
