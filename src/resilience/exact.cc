#include "resilience/exact.h"

#include <algorithm>

#include "gadgets/condensation.h"
#include "gadgets/hypergraph.h"
#include "graphdb/rpq_eval.h"
#include "lang/infix_free.h"
#include "util/check.h"

namespace rpqres {
namespace {

/// Branch & bound state shared across the recursion. The transient
/// buffers are the scratch's exact section (removal mask, match stack,
/// incumbent), so a search node allocates nothing.
class BranchAndBound {
 public:
  BranchAndBound(const ProductAutomaton& query, const GraphDb& db,
                 const LabelIndex& index, Semantics semantics,
                 const ExactOptions& options, SolverScratch& scratch)
      : query_(query), db_(db), index_(index), semantics_(semantics),
        options_(options), scratch_(scratch) {}

  Status Run() {
    scratch_.removed.assign(db_.num_facts(), 0);
    scratch_.match_stack.clear();
    // Initial incumbent: delete every endogenous fact (a valid
    // contingency set — the caller ruled out fully-exogenous matches).
    best_value_ = db_.TotalCost(semantics_);
    std::vector<FactId>& best_set = scratch_.best_set;
    best_set.clear();
    for (FactId f = 0; f < db_.num_facts(); ++f) {
      if (db_.IsLive(f) && !db_.IsExogenous(f)) best_set.push_back(f);
    }

    if (options_.use_disjoint_match_bound) {
      // Greedy fact-disjoint matches give a lower bound; when an incumbent
      // reaches it, the search can stop with a proof of optimality.
      root_lower_bound_ = DisjointMatchLowerBound();
      if (best_value_ <= root_lower_bound_) return Status::OK();
    }
    return Recurse(0, root_lower_bound_);
  }

  Capacity best_value() const { return best_value_; }
  const std::vector<FactId>& best_set() const { return scratch_.best_set; }
  uint64_t nodes() const { return nodes_; }

 private:
  // Greedy packing of fact-disjoint matches: their min-fact-costs sum to a
  // valid lower bound, since a contingency set must hit each of them with
  // distinct facts. Blocks facts in the removal mask, then clears it.
  Capacity DisjointMatchLowerBound() {
    std::vector<uint8_t>& blocked = scratch_.removed;
    Capacity bound = 0;
    while (SearchProduct(db_, index_, query_, blocked.data(), -1, -1,
                         scratch_, &scratch_.walk)) {
      RPQRES_CHECK(!scratch_.walk.empty());  // the caller ruled out ε ∈ L
      Capacity cheapest = kInfiniteCapacity;
      for (FactId f : scratch_.walk) {
        cheapest = std::min(cheapest, db_.Cost(f, semantics_));
        blocked[f] = 1;
      }
      bound += cheapest;
    }
    std::fill(blocked.begin(), blocked.end(), 0);
    return bound;
  }

  Status Recurse(Capacity cost, Capacity lower_bound_hint) {
    if (proved_optimal_) return Status::OK();
    if (++nodes_ > options_.max_search_nodes) {
      return Status::OutOfRange(
          "exact resilience: exceeded max_search_nodes = " +
          std::to_string(options_.max_search_nodes));
    }
    // Cooperative cancellation / deadline poll, amortized over the
    // node-budget counter (a steady_clock read per node would dominate
    // cheap nodes).
    if (options_.cancel != nullptr && (nodes_ & 255) == 0 &&
        options_.cancel->ShouldStop()) {
      return options_.cancel->ToStatus();
    }
    if (cost + lower_bound_hint >= best_value_) return Status::OK();
    std::vector<uint8_t>& removed = scratch_.removed;
    if (!SearchProduct(db_, index_, query_, removed.data(), -1, -1, scratch_,
                       &scratch_.walk)) {
      // Current removal set is a contingency set cheaper than the best.
      best_value_ = cost;
      scratch_.best_set.clear();
      for (FactId f = 0; f < db_.num_facts(); ++f) {
        if (removed[f]) scratch_.best_set.push_back(f);
      }
      if (options_.use_disjoint_match_bound &&
          best_value_ <= root_lower_bound_) {
        proved_optimal_ = true;  // incumbent meets the lower bound
      }
      return Status::OK();
    }
    RPQRES_CHECK(!scratch_.walk.empty());
    // This node's match — the walk's distinct facts (Def 4.7) — is the
    // segment [begin, end) of the shared match stack; deeper nodes append
    // above it, so it is read by index, never through an iterator.
    std::vector<FactId>& stack = scratch_.match_stack;
    const size_t begin = stack.size();
    stack.insert(stack.end(), scratch_.walk.begin(), scratch_.walk.end());
    std::sort(stack.begin() + begin, stack.end());
    stack.erase(std::unique(stack.begin() + begin, stack.end()), stack.end());
    // Exogenous facts cannot be deleted; the caller established that no
    // match is fully exogenous, so at least one branch remains.
    stack.erase(std::remove_if(stack.begin() + begin, stack.end(),
                               [this](FactId f) {
                                 return db_.IsExogenous(f);
                               }),
                stack.end());
    // Heuristic: try cheap facts first — they keep the cost budget low and
    // tend to reach good incumbents early.
    std::sort(stack.begin() + begin, stack.end(), [this](FactId a, FactId b) {
      return db_.Cost(a, semantics_) < db_.Cost(b, semantics_);
    });
    const size_t end = stack.size();
    for (size_t i = begin; i < end; ++i) {
      if (proved_optimal_) break;
      const FactId f = stack[i];
      Capacity branch_cost = cost + db_.Cost(f, semantics_);
      if (branch_cost >= best_value_) continue;
      removed[f] = 1;
      RPQRES_RETURN_IF_ERROR(Recurse(branch_cost, 0));
      removed[f] = 0;
    }
    stack.resize(begin);
    return Status::OK();
  }

  const ProductAutomaton& query_;
  const GraphDb& db_;
  const LabelIndex& index_;
  Semantics semantics_;
  const ExactOptions& options_;
  SolverScratch& scratch_;

  Capacity best_value_ = 0;
  Capacity root_lower_bound_ = 0;
  bool proved_optimal_ = false;
  uint64_t nodes_ = 0;
};

// The all-subsets search behind both brute-force entry points: the
// cheapest endogenous subset whose removal leaves no L-walk from `source`
// to `target` (anywhere when negative).
Result<ResilienceResult> BruteForce(const Language& lang, const GraphDb& db,
                                    NodeId source, NodeId target,
                                    Semantics semantics, int max_facts,
                                    const char* algorithm) {
  if (db.is_versioned()) {
    // Subset enumeration must range over live facts only; run on the flat
    // materialization and translate the witness back.
    std::vector<FactId> old_id_of;
    GraphDb flat = db.Compact(&old_id_of);
    RPQRES_ASSIGN_OR_RETURN(ResilienceResult result,
                            BruteForce(lang, flat, source, target, semantics,
                                       max_facts, algorithm));
    for (FactId& f : result.contingency) f = old_id_of[f];
    return result;
  }
  ResilienceResult result;
  result.algorithm = algorithm;
  if (db.num_facts() > max_facts || max_facts > 24) {
    return Status::OutOfRange("brute force limited to " +
                              std::to_string(std::min(max_facts, 24)) +
                              " facts, database has " +
                              std::to_string(db.num_facts()));
  }
  if (lang.ContainsEpsilon() && source == target) {
    result.infinite = true;
    return result;
  }
  if (semantics == Semantics::kBag) {
    RPQRES_RETURN_IF_ERROR(db.CheckTotalMultiplicity());
  }
  const ProductAutomaton query = PrepareProductAutomaton(lang.enfa());
  const LabelIndex index(db);
  SolverScratch& scratch = SolverScratch::ThreadLocal();
  int n = db.num_facts();
  Capacity best = kInfiniteCapacity;
  uint32_t best_mask = 0;
  std::vector<uint8_t> removed(n, 0);
  for (uint32_t mask = 0; mask < (1u << n); ++mask) {
    Capacity cost = 0;
    bool touches_exogenous = false;
    for (int f = 0; f < n; ++f) {
      removed[f] = (mask >> f) & 1u;
      if (removed[f]) {
        // Exogenous facts cost kInfiniteCapacity — accumulating that
        // would overflow; the subset is discarded below anyway.
        if (db.IsExogenous(f)) {
          touches_exogenous = true;
        } else {
          cost += db.Cost(f, semantics);
        }
      }
    }
    if (touches_exogenous || cost >= best) continue;
    if (!SearchProduct(db, index, query, removed.data(), source, target,
                       scratch)) {
      best = cost;
      best_mask = mask;
    }
  }
  if (best == kInfiniteCapacity) {
    // No endogenous subset falsifies the query (exogenous-only matches).
    result.infinite = true;
    return result;
  }
  result.value = best;
  for (int f = 0; f < n; ++f) {
    if ((best_mask >> f) & 1u) result.contingency.push_back(f);
  }
  result.search_nodes = 1ull << n;
  return result;
}

}  // namespace

ExactPlan PrepareExactPlan(const Language& ifl) {
  return ExactPlan{PrepareProductAutomaton(ifl.enfa())};
}

Result<ResilienceResult> SolveExactResilience(const Language& lang,
                                              const GraphDb& db,
                                              Semantics semantics,
                                              const ExactOptions& options) {
  return SolveExactResilience(lang, db, semantics, LabelIndex(db), options);
}

Result<ResilienceResult> SolveExactResilience(const Language& lang,
                                              const GraphDb& db,
                                              Semantics semantics,
                                              const LabelIndex& index,
                                              const ExactOptions& options) {
  return SolveExactResilienceWithPlan(
      PrepareExactPlan(InfixFreeSublanguage(lang)), db, semantics, index,
      options);
}

Result<ResilienceResult> SolveExactResilienceWithPlan(
    const ExactPlan& plan, const GraphDb& db, Semantics semantics,
    const LabelIndex& index, const ExactOptions& options,
    SolverScratch* scratch) {
  ResilienceResult result;
  result.algorithm = "exact branch & bound";
  const ProductAutomaton& query = plan.automaton;
  if (query.accepts_epsilon) {
    result.infinite = true;
    return result;
  }
  if (semantics == Semantics::kBag) {
    RPQRES_RETURN_IF_ERROR(db.CheckTotalMultiplicity());
  }
  SolverScratch& s = scratch != nullptr ? *scratch : SolverScratch::ThreadLocal();
  if (!SearchProduct(db, index, query, nullptr, -1, -1, s)) {
    return result;  // already false: resilience 0
  }
  // Infinite iff the query survives the deletion of every endogenous fact
  // (then some match is fully exogenous, and conversely). Without
  // exogenous facts that deletion leaves no facts, and ε ∉ L.
  if (db.NumExogenous() > 0) {
    s.removed.resize(db.num_facts());
    for (FactId f = 0; f < db.num_facts(); ++f) {
      s.removed[f] = db.IsExogenous(f) ? 0 : 1;
    }
    if (SearchProduct(db, index, query, s.removed.data(), -1, -1, s)) {
      result.infinite = true;
      return result;
    }
  }
  BranchAndBound solver(query, db, index, semantics, options, s);
  RPQRES_RETURN_IF_ERROR(solver.Run());
  result.value = solver.best_value();
  result.contingency = solver.best_set();
  result.search_nodes = solver.nodes();
  return result;
}

Result<ResilienceResult> SolveBruteForceResilience(const Language& lang,
                                                   const GraphDb& db,
                                                   Semantics semantics,
                                                   int max_facts) {
  return BruteForce(lang, db, -1, -1, semantics, max_facts,
                    "brute force (all subsets)");
}

Result<ResilienceResult> SolveBruteForceResilienceBetween(
    const Language& lang, const GraphDb& db, NodeId source, NodeId target,
    Semantics semantics, int max_facts) {
  return BruteForce(lang, db, source, target, semantics, max_facts,
                    "brute force, fixed endpoints");
}

Result<ResilienceResult> SolveHittingSetResilience(const Language& lang,
                                                   const GraphDb& db,
                                                   Semantics semantics) {
  ResilienceResult result;
  result.algorithm = "hypergraph hitting set (Def 4.7)";
  Language ifl = InfixFreeSublanguage(lang);
  if (ifl.ContainsEpsilon()) {
    result.infinite = true;
    return result;
  }
  RPQRES_ASSIGN_OR_RETURN(Hypergraph matches,
                          HypergraphOfMatches(ifl, db));
  std::vector<Capacity> weights(db.num_facts());
  for (FactId f = 0; f < db.num_facts(); ++f) {
    weights[f] = db.Cost(f, semantics);
  }

  if (semantics == Semantics::kSet && db.NumExogenous() == 0) {
    // Unit weights: the Section 4.3 condensation rules apply (they
    // preserve minimum-cardinality hitting sets, Claim 4.8), and any
    // hitting set of the condensed hypergraph hits the original.
    CondensationResult condensed = Condense(matches, {});
    HittingSetSolution solution = MinimumWeightHittingSet(
        condensed.condensed,
        std::vector<Capacity>(condensed.condensed.num_vertices, 1));
    RPQRES_CHECK(solution.feasible);  // unit weights are always usable
    result.value = solution.cost;
    for (int v : solution.vertices) {
      result.contingency.push_back(condensed.kept_vertices[v]);
    }
  } else {
    // Weighted / exogenous: solve on the raw hypergraph (node-domination
    // is unsound for weights: the dominating vertex may cost more).
    HittingSetSolution solution = MinimumWeightHittingSet(matches, weights);
    if (!solution.feasible) {
      result.infinite = true;  // some match is fully exogenous
      return result;
    }
    result.value = solution.cost;
    result.contingency = solution.vertices;
  }
  std::sort(result.contingency.begin(), result.contingency.end());
  return result;
}

}  // namespace rpqres
