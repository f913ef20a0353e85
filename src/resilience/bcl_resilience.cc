#include "resilience/bcl_resilience.h"

#include <algorithm>
#include <array>
#include <span>

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
    for (char c : w) plan.relevant_label[static_cast<unsigned char>(c)] = true;
    for (char end : {w.front(), w.back()}) {
      plan.endpoint_side[static_cast<unsigned char>(end)] =
          static_cast<int16_t>(chain.coloring.at(end));
    }
  }
  return plan;
}

Result<ResilienceResult> SolveBclResilience(const Language& lang,
                                            const GraphDb& db,
                                            Semantics semantics,
                                            const LabelIndex* label_index,
                                            SolverScratch* scratch) {
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
                                    label_index, scratch);
}

ResilienceResult SolveBclResilienceWithPlan(const BclPlan& plan,
                                            const GraphDb& db,
                                            Semantics semantics,
                                            const LabelIndex* label_index,
                                            SolverScratch* scratch) {
  if (scratch == nullptr) scratch = &SolverScratch::ThreadLocal();
  ResilienceResult result;
  result.algorithm = kAlgorithm;
  const auto& forced_label = plan.forced_label;
  const auto& relevant_label = plan.relevant_label;
  const auto& endpoint_side = plan.endpoint_side;

  Capacity forced_cost = 0;
  auto force_fact = [&](FactId f) -> bool {  // false: unfalsifiable
    if (db.IsExogenous(f)) return false;
    forced_cost += db.Cost(f, semantics);
    result.contingency.push_back(f);
    return true;
  };
  if (label_index != nullptr) {
    for (int l = 0; l < 256; ++l) {
      if (!forced_label[l]) continue;
      for (FactId f : label_index->Facts(static_cast<char>(l))) {
        if (!force_fact(f)) {
          // A single-letter-word match on an undeletable fact: the query
          // cannot be falsified.
          result.infinite = true;
          result.contingency.clear();
          return result;
        }
      }
    }
  } else {
    for (FactId f = 0; f < db.num_facts(); ++f) {
      if (!db.IsLive(f)) continue;
      if (forced_label[static_cast<unsigned char>(db.fact(f).label)] &&
          !force_fact(f)) {
        result.infinite = true;
        result.contingency.clear();
        return result;
      }
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
  auto stage_fact = [&](FactId f) {
    start_of[f] = network.AddVertex();
    end_of[f] = network.AddVertex();
    int32_t edge =
        network.AddEdge(start_of[f], end_of[f], db.Cost(f, semantics));
    RPQRES_CHECK(edge == static_cast<int32_t>(fact_of_edge.size()));
    fact_of_edge.push_back(f);
  };
  // Relevant facts bucketed by label for the pair wiring (counting sort
  // into scratch; the per-label buckets replace the old map<char, vector>).
  auto& bucket_offset = scratch->label_bucket_offset;
  auto& bucket = scratch->label_bucket;
  bucket_offset.assign(257, 0);
  if (label_index != nullptr) {
    for (int l = 0; l < 256; ++l) {
      if (!relevant_label[l] || forced_label[l]) continue;
      for (FactId f : label_index->Facts(static_cast<char>(l))) {
        stage_fact(f);
        ++bucket_offset[l + 1];
      }
    }
  } else {
    for (FactId f = 0; f < db.num_facts(); ++f) {
      if (!db.IsLive(f)) continue;
      unsigned char label = static_cast<unsigned char>(db.fact(f).label);
      if (!relevant_label[label] || forced_label[label]) continue;
      stage_fact(f);
      ++bucket_offset[label + 1];
    }
  }
  for (int l = 0; l < 256; ++l) bucket_offset[l + 1] += bucket_offset[l];
  bucket.resize(fact_of_edge.size());
  {
    std::array<int32_t, 256> cursor;
    for (int l = 0; l < 256; ++l) cursor[l] = bucket_offset[l];
    for (FactId f : fact_of_edge) {
      bucket[cursor[static_cast<unsigned char>(db.fact(f).label)]++] = f;
    }
  }
  auto facts_with = [&](char label) {
    unsigned char l = static_cast<unsigned char>(label);
    return std::span<const int32_t>(bucket).subspan(
        bucket_offset[l], bucket_offset[l + 1] - bucket_offset[l]);
  };

  // Word wiring. A word is *forward* if its first letter lies in the source
  // partition (then its last letter is in the target partition since the
  // coloring is proper), *reversed* otherwise.
  //
  // Each adjacent letter pair (c1, c2) joins on the shared node — target
  // of the c1-fact == source of the c2-fact — so the wiring is
  // output-linear: O(|A| + |B| + emitted edges) per pair, never the
  // all-pairs |A|·|B| scan. With a LabelIndex the per-node grouping of
  // the c2 facts is the index's own source CSR; otherwise the facts are
  // counting-sorted by source node into the scratch once per pair.
  auto& node_bucket_offset = scratch->node_bucket_offset;
  auto& node_bucket = scratch->node_bucket;
  auto& node_bucket_cursor = scratch->node_bucket_cursor;
  // Lazily (re)built per second letter; consecutive pairs sharing the
  // letter — and the scratch buffers — keep this allocation-free in
  // steady state.
  char bucketed_label = '\0';
  bool bucket_ready = false;
  auto bucket_by_source = [&](char label) {
    if (bucket_ready && bucketed_label == label) return;
    bucket_ready = true;
    bucketed_label = label;
    std::span<const int32_t> facts = facts_with(label);
    node_bucket_offset.assign(db.num_nodes() + 1, 0);
    for (FactId f : facts) ++node_bucket_offset[db.fact(f).source + 1];
    for (int v = 0; v < db.num_nodes(); ++v) {
      node_bucket_offset[v + 1] += node_bucket_offset[v];
    }
    node_bucket.resize(facts.size());
    node_bucket_cursor.assign(node_bucket_offset.begin(),
                              node_bucket_offset.end() - 1);
    for (FactId f : facts) {
      node_bucket[node_bucket_cursor[db.fact(f).source]++] = f;
    }
  };
  for (const std::string& w : plan.long_words) {
    const bool forward =
        endpoint_side[static_cast<unsigned char>(w.front())] == 0;
    for (size_t i = 0; i + 1 < w.size(); ++i) {
      const char c2 = w[i + 1];
      if (label_index == nullptr) bucket_by_source(c2);
      for (FactId f1 : facts_with(w[i])) {
        NodeId shared = db.fact(f1).target;
        auto wire = [&](FactId f2) {
          if (start_of[f2] < 0) return;  // forced/irrelevant label
          if (forward) {
            network.AddEdge(end_of[f1], start_of[f2], kInfiniteCapacity);
          } else {
            network.AddEdge(end_of[f2], start_of[f1], kInfiniteCapacity);
          }
        };
        if (label_index != nullptr) {
          for (FactId f2 : label_index->FactsFrom(c2, shared)) wire(f2);
        } else {
          for (int32_t j = node_bucket_offset[shared];
               j < node_bucket_offset[shared + 1]; ++j) {
            wire(node_bucket[j]);
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
