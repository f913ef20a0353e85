#include "resilience/bcl_resilience.h"

#include <algorithm>

#include "flow/residual_graph.h"
#include "flow/solver_scratch.h"
#include "lang/infix_free.h"
#include "util/check.h"

namespace rpqres {
namespace {

constexpr const char* kAlgorithm = "bipartite chain flow (Prp 7.6)";

}  // namespace

BclPlan PrepareBclPlan(const BipartiteChain& chain) {
  BclPlan plan;
  // Preprocessing (proof of Prp 7.6): single-letter words force the removal
  // of every fact with that label. In the infix-free language, such a
  // letter occurs in no other word, so those facts are inert afterwards.
  for (const std::string& w : chain.words) {
    RPQRES_CHECK(!w.empty());  // ε ∈ IF(L) is answered before planning
    if (w.size() == 1) {
      plan.forced_label[static_cast<unsigned char>(w[0])] = true;
    } else {
      plan.long_words.push_back(w);
    }
  }
  // Letters relevant to matches of the long words, and endpoint letters
  // with their partition side (Def 7.2) — all flat 256-entry tables.
  plan.endpoint_side.fill(-1);
  for (const std::string& w : plan.long_words) {
    for (char c : w) {
      // IF(L) is infix-free, so no long word contains a forced letter.
      RPQRES_CHECK(!plan.forced_label[static_cast<unsigned char>(c)]);
      plan.relevant_label[static_cast<unsigned char>(c)] = true;
    }
    for (char end : {w.front(), w.back()}) {
      plan.endpoint_side[static_cast<unsigned char>(end)] =
          static_cast<int16_t>(chain.coloring.at(end));
    }
  }
  return plan;
}

Result<ResilienceResult> SolveBclResilience(const Language& lang,
                                            const GraphDb& db,
                                            Semantics semantics) {
  return SolveBclResilience(lang, db, semantics, LabelIndex(db));
}

Result<ResilienceResult> SolveBclResilience(const Language& lang,
                                            const GraphDb& db,
                                            Semantics semantics,
                                            const LabelIndex& index) {
  // Work on IF(L) (same query; BCL-ness is preserved by IF, Lem 7.5).
  Language ifl = InfixFreeSublanguage(lang);
  if (ifl.ContainsEpsilon()) {
    ResilienceResult result;
    result.algorithm = kAlgorithm;
    result.infinite = true;
    return result;
  }
  Result<BipartiteChain> chain = AnalyzeBipartiteChain(ifl);
  if (!chain.ok()) {
    return Status::FailedPrecondition("SolveBclResilience: " +
                                      chain.status().message());
  }
  return SolveBclResilienceWithPlan(PrepareBclPlan(*chain), db, semantics,
                                    index);
}

ResilienceResult SolveBclResilienceWithPlan(const BclPlan& plan,
                                            const GraphDb& db,
                                            Semantics semantics,
                                            const LabelIndex& index,
                                            SolverScratch* scratch) {
  if (scratch == nullptr) scratch = &SolverScratch::ThreadLocal();
  ResilienceResult result;
  result.algorithm = kAlgorithm;
  const auto& forced_label = plan.forced_label;
  const auto& relevant_label = plan.relevant_label;
  const auto& endpoint_side = plan.endpoint_side;

  Capacity forced_cost = 0;
  for (int l = 0; l < 256; ++l) {
    if (!forced_label[l]) continue;
    for (FactId f : index.Facts(static_cast<char>(l))) {
      if (db.IsExogenous(f)) {
        // A single-letter-word match on an undeletable fact: the query
        // cannot be falsified.
        result.infinite = true;
        result.contingency.clear();
        return result;
      }
      forced_cost += db.Cost(f, semantics);
      result.contingency.push_back(f);
    }
  }

  if (plan.long_words.empty()) {
    result.value = forced_cost;
    std::sort(result.contingency.begin(), result.contingency.end());
    return result;
  }

  // Network: one start/end vertex pair and one finite fact edge per
  // relevant fact, staged directly into the scratch's residual graph.
  // Fact edges come first, so edge id == index into fact_of_edge.
  ResidualGraph& network = scratch->graph;
  network.Reset(2);
  network.SetSource(0);
  network.SetTarget(1);
  auto& start_of = scratch->start_of;
  auto& end_of = scratch->end_of;
  start_of.assign(db.num_facts(), -1);
  end_of.assign(db.num_facts(), -1);
  auto& fact_of_edge = scratch->fact_of_edge;
  fact_of_edge.clear();
  for (int l = 0; l < 256; ++l) {
    if (!relevant_label[l]) continue;
    for (FactId f : index.Facts(static_cast<char>(l))) {
      start_of[f] = network.AddVertex();
      end_of[f] = network.AddVertex();
      int32_t edge =
          network.AddEdge(start_of[f], end_of[f], db.Cost(f, semantics));
      RPQRES_CHECK(edge == static_cast<int32_t>(fact_of_edge.size()));
      fact_of_edge.push_back(f);
    }
  }

  // Word wiring. A word is *forward* if its first letter lies in the source
  // partition (then its last letter is in the target partition since the
  // coloring is proper), *reversed* otherwise.
  //
  // Each adjacent letter pair (c1, c2) joins on the shared node — target
  // of the c1-fact == source of the c2-fact — through the index's source
  // CSR, so the wiring is output-linear: O(|A| + emitted edges) per pair,
  // never the all-pairs |A|·|B| scan.
  for (const std::string& w : plan.long_words) {
    const bool forward =
        endpoint_side[static_cast<unsigned char>(w.front())] == 0;
    for (size_t i = 0; i + 1 < w.size(); ++i) {
      for (FactId f1 : index.Facts(w[i])) {
        for (FactId f2 : index.FactsFrom(w[i + 1], db.fact(f1).target)) {
          if (forward) {
            network.AddEdge(end_of[f1], start_of[f2], kInfiniteCapacity);
          } else {
            network.AddEdge(end_of[f2], start_of[f1], kInfiniteCapacity);
          }
        }
      }
    }
  }
  // Source/target hookup by endpoint letter partition.
  for (FactId f : fact_of_edge) {
    int side = endpoint_side[static_cast<unsigned char>(db.fact(f).label)];
    if (side == 0) {
      network.AddEdge(0, start_of[f], kInfiniteCapacity);
    } else if (side == 1) {
      network.AddEdge(end_of[f], 1, kInfiniteCapacity);
    }
  }

  const MinCutView& cut = network.Solve(scratch->trace);
  if (cut.infinite) {
    // Some match consists of exogenous facts only.
    result.infinite = true;
    result.contingency.clear();
    return result;
  }
  result.value = forced_cost + cut.value;
  for (int32_t edge : cut.cut_edges) {
    RPQRES_CHECK_MSG(
        edge >= 0 && edge < static_cast<int32_t>(fact_of_edge.size()),
        "cut contains a non-fact edge");
    result.contingency.push_back(fact_of_edge[edge]);
  }
  std::sort(result.contingency.begin(), result.contingency.end());
  result.contingency.erase(
      std::unique(result.contingency.begin(), result.contingency.end()),
      result.contingency.end());
  result.network_vertices = network.num_vertices();
  result.network_edges = network.num_edges();
  return result;
}

}  // namespace rpqres
