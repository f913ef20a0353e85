// rpqres — resilience/local_product: the Thm 3.13 product network over
// any fact source.
//
// RunLocalProduct builds the RO-εNFA × database product network into the
// scratch's residual graph and reads the minimum cut back as a
// contingency set. It is written against a small *fact source* concept
// instead of GraphDb, so one implementation serves both callers:
//
//  * DbFacts — a GraphDb through its LabelIndex (the local solver,
//    Thm 3.13);
//  * the one-dangling rewrite D' of Prp 7.9, which is a view over the
//    caller's database (one_dangling_resilience.cc): it reorients edges,
//    redirects x-facts and adds the z-facts without materializing D'.
//
// A fact source S provides, for the automaton tables `t` it was built
// against:
//   int num_nodes() const;
//   Fact fact(FactId f) const;          // source, label, target in S
//   Capacity Cost(FactId f) const;      // kInfiniteCapacity if exogenous
//   ForEachOut(v, s, visit)   — every fact f out of v whose label l has
//                               t.letter_from[l] == s: visit(f, target, l)
//   ForEachIn(v, s, visit)    — every fact f into v whose label l has
//                               t.letter_to[l] == s: visit(f, source, l)
//   ForEachReadable(visit)    — every fact whose label t reads: visit(f)
// Fact ids may be any non-negative int32 values; the contingency set is
// reported in the source's ids.
//
// Internal to src/resilience/.

#ifndef RPQRES_RESILIENCE_LOCAL_PRODUCT_H_
#define RPQRES_RESILIENCE_LOCAL_PRODUCT_H_

#include <algorithm>
#include <cstdint>

#include "flow/residual_graph.h"
#include "flow/solver_scratch.h"
#include "graphdb/graph_db.h"
#include "graphdb/label_index.h"
#include "obs/trace.h"
#include "resilience/result.h"
#include "resilience/ro_tables.h"
#include "util/check.h"

namespace rpqres {

/// The fact source over a GraphDb, read through its LabelIndex: every
/// visit touches only facts whose label the automaton reads.
class DbFacts {
 public:
  DbFacts(const RoProductTables& t, const GraphDb& db, Semantics semantics,
          const LabelIndex& index)
      : t_(t), db_(db), semantics_(semantics), index_(index) {}

  int num_nodes() const { return db_.num_nodes(); }
  const Fact& fact(FactId f) const { return db_.fact(f); }
  Capacity Cost(FactId f) const { return db_.Cost(f, semantics_); }

  template <typename Visit>
  void ForEachOut(NodeId v, int s, Visit&& visit) const {
    for (int32_t i = t_.labels_out_offset[s]; i < t_.labels_out_offset[s + 1];
         ++i) {
      const char label = static_cast<char>(t_.labels_out[i]);
      for (FactId f : index_.FactsFrom(label, v)) {
        visit(f, db_.fact(f).target, t_.labels_out[i]);
      }
    }
  }

  template <typename Visit>
  void ForEachIn(NodeId v, int s, Visit&& visit) const {
    for (int32_t i = t_.labels_in_offset[s]; i < t_.labels_in_offset[s + 1];
         ++i) {
      const char label = static_cast<char>(t_.labels_in[i]);
      for (FactId f : index_.FactsInto(label, v)) {
        visit(f, db_.fact(f).source, t_.labels_in[i]);
      }
    }
  }

  template <typename Visit>
  void ForEachReadable(Visit&& visit) const {
    for (int l = 0; l < 256; ++l) {
      if (t_.letter_from[l] < 0) continue;
      for (FactId f : index_.Facts(static_cast<char>(l))) visit(f);
    }
  }

 private:
  const RoProductTables& t_;
  const GraphDb& db_;
  Semantics semantics_;
  const LabelIndex& index_;
};

/// Thm 3.13's product network N_{D,A} over `facts`, built directly into
/// the scratch's CSR residual graph from the precomputed per-automaton
/// tables, then one MinCut. Fills `result`'s value, infinite flag,
/// contingency (sorted, in the source's fact ids) and network telemetry;
/// the caller names the algorithm. With fixed_source/fixed_target >= 0,
/// only walks between those nodes count (the non-Boolean extension; the
/// cut↔contingency correspondence is unaffected by which product vertices
/// hook to the terminals).
///
/// Product pruning: a product vertex (v, s) can lie on a source-target
/// path only if it is reachable from a hooked-up (node, initial) pair AND
/// co-reachable from a hooked-up (node, final) pair. Every L-walk of the
/// database corresponds to a path through live vertices only, so emitting
/// arcs (fact, ε, and terminal hookups) at live vertices alone preserves
/// every cut and its value; dead vertices — usually the bulk of |V|·|S| —
/// are never materialized.
template <typename FactSource>
void RunLocalProduct(const RoProductTables& t, const FactSource& facts,
                     NodeId fixed_source, NodeId fixed_target,
                     SolverScratch* scratch, ResilienceResult* result) {
  if (t.accepts_epsilon &&
      (fixed_source < 0 || fixed_source == fixed_target)) {
    // ε ∈ L: the (possibly endpoint-constrained) query holds on every
    // subinstance, so resilience is +∞.
    result->infinite = true;
    return;
  }

  const int S = t.num_states;
  const int V = facts.num_nodes();
  const int64_t product_size = int64_t{V} * S;
  const auto& letter_from = t.letter_from;
  const auto& letter_to = t.letter_to;

  // (node, state) pairs travel the queues packed as (v << 32 | s) —
  // decoded by shifts — and key the stamped marks as v*S + s.
  auto pack = [](NodeId v, int s) {
    return (int64_t{v} << 32) | static_cast<uint32_t>(s);
  };
  auto key_of = [S](int64_t packed) {
    return (packed >> 32) * S + (packed & 0xffffffff);
  };

  // --- Reach / co-reach sweep over (node, state) ---------------------------
  obs::TraceContext* trace = scratch->trace;
  obs::ScopedSpan prune_span(trace, obs::SpanKind::kProductPrune);
  auto& fwd = scratch->reach_fwd;
  auto& bwd = scratch->reach_bwd;
  auto& fwd_visited = scratch->fwd_visited;
  auto& bwd_queue = scratch->bwd_queue;
  auto& candidate_facts = scratch->candidate_facts;
  fwd.Reset(product_size);
  bwd.Reset(product_size);
  fwd_visited.clear();
  bwd_queue.clear();
  candidate_facts.clear();

  if (!scratch->disable_product_pruning) {
    auto push_fwd = [&](NodeId v, int s) {
      if (fwd.TryInsert(int64_t{v} * S + s)) fwd_visited.push_back(pack(v, s));
    };
    if (fixed_source < 0) {
      for (NodeId v = 0; v < V; ++v) {
        for (int s : t.initial_states) push_fwd(v, s);
      }
    } else {
      for (int s : t.initial_states) push_fwd(fixed_source, s);
    }
    for (size_t head = 0; head < fwd_visited.size(); ++head) {
      int64_t code = fwd_visited[head];
      NodeId v = static_cast<NodeId>(code >> 32);
      int s = static_cast<int>(code & 0xffffffff);
      for (int32_t i = t.eps_out_offset[s]; i < t.eps_out_offset[s + 1];
           ++i) {
        push_fwd(v, t.eps_out[i]);
      }
      // Every relevant fact is enumerated at most once across the sweep
      // (its tail (source, from-state) pair pops at most once), so this
      // doubles as the candidate-edge discovery pass.
      facts.ForEachOut(v, s, [&](FactId f, NodeId target, unsigned char l) {
        candidate_facts.push_back(f);
        push_fwd(target, letter_to[l]);
      });
    }

    auto push_bwd = [&](NodeId v, int s) {
      if (bwd.TryInsert(int64_t{v} * S + s)) bwd_queue.push_back(pack(v, s));
    };
    if (fixed_target < 0) {
      for (NodeId v = 0; v < V; ++v) {
        for (int s : t.final_states) push_bwd(v, s);
      }
    } else {
      for (int s : t.final_states) push_bwd(fixed_target, s);
    }
    for (size_t head = 0; head < bwd_queue.size(); ++head) {
      int64_t code = bwd_queue[head];
      NodeId v = static_cast<NodeId>(code >> 32);
      int s = static_cast<int>(code & 0xffffffff);
      for (int32_t i = t.eps_in_offset[s]; i < t.eps_in_offset[s + 1]; ++i) {
        push_bwd(v, t.eps_in[i]);
      }
      facts.ForEachIn(v, s, [&](FactId, NodeId source, unsigned char l) {
        push_bwd(source, letter_from[l]);
      });
    }
  } else {
    // Parity-test mode: everything is live (the pre-pruning construction).
    for (NodeId v = 0; v < V; ++v) {
      for (int s = 0; s < S; ++s) {
        fwd.TryInsert(int64_t{v} * S + s);
        bwd.TryInsert(int64_t{v} * S + s);
        fwd_visited.push_back(pack(v, s));
      }
    }
    facts.ForEachReadable([&](FactId f) { candidate_facts.push_back(f); });
  }
  const int64_t relevant_facts = static_cast<int64_t>(candidate_facts.size());

  // Dense network ids for live vertices: 0 = source, 1 = target, then the
  // live (node, state) pairs in forward-visit order.
  auto& product_id = scratch->product_id;
  auto& live_list = scratch->live_list;
  product_id.Reset(product_size);
  live_list.clear();
  int32_t live_count = 0;
  for (int64_t code : fwd_visited) {
    int64_t key = key_of(code);
    if (bwd.Contains(key)) {
      product_id.Set(key, 2 + live_count++);
      live_list.push_back(code);
    }
  }

  prune_span.End();

  // --- Arc emission, straight into the CSR residual graph -----------------
  obs::ScopedSpan build_span(trace, obs::SpanKind::kFlowBuild);
  ResidualGraph& network = scratch->graph;
  network.Reset(2 + live_count);
  network.SetSource(0);
  network.SetTarget(1);

  // One finite-capacity edge per live fact of D (the 1-to-1
  // correspondence that makes cuts = contingency sets). Fact edges are
  // staged before any structural edge, so edge id == index into
  // fact_of_edge.
  auto& fact_of_edge = scratch->fact_of_edge;  // edge id -> fact id
  fact_of_edge.clear();
  for (FactId f : candidate_facts) {
    const Fact fact = facts.fact(f);
    unsigned char label = static_cast<unsigned char>(fact.label);
    int32_t from =
        product_id.Get(int64_t{fact.source} * S + letter_from[label]);
    if (from < 0) continue;
    int32_t to = product_id.Get(int64_t{fact.target} * S + letter_to[label]);
    if (to < 0) continue;
    int32_t edge = network.AddEdge(from, to, facts.Cost(f));
    RPQRES_CHECK(edge == static_cast<int32_t>(fact_of_edge.size()));
    fact_of_edge.push_back(f);
  }

  // Structural edges at live vertices only: ε-transitions within each
  // database node, and source/target hookups at initial/final states (or
  // at the fixed endpoints only).
  for (size_t i = 0; i < live_list.size(); ++i) {
    int64_t code = live_list[i];
    int32_t id = 2 + static_cast<int32_t>(i);
    NodeId v = static_cast<NodeId>(code >> 32);
    int s = static_cast<int>(code & 0xffffffff);
    for (int32_t e = t.eps_out_offset[s]; e < t.eps_out_offset[s + 1]; ++e) {
      int32_t to = product_id.Get(int64_t{v} * S + t.eps_out[e]);
      if (to >= 0) network.AddEdge(id, to, kInfiniteCapacity);
    }
    if (t.is_initial[s] && (fixed_source < 0 || v == fixed_source)) {
      network.AddEdge(0, id, kInfiniteCapacity);
    }
    if (t.is_final[s] && (fixed_target < 0 || v == fixed_target)) {
      network.AddEdge(id, 1, kInfiniteCapacity);
    }
  }

  build_span.End();
  const MinCutView& cut = network.Solve(trace);
  if (cut.infinite) {
    // With ε ∉ L every source-target path crosses a fact edge, so an
    // infinite cut means some L-walk consists of exogenous facts only:
    // the query cannot be falsified by deleting endogenous facts.
    result->infinite = true;
    return;
  }
  result->value = cut.value;
  std::vector<FactId>& contingency = result->contingency;
  contingency.clear();
  for (int32_t edge : cut.cut_edges) {
    RPQRES_CHECK_MSG(
        edge >= 0 && edge < static_cast<int32_t>(fact_of_edge.size()),
        "cut contains a non-fact edge");
    contingency.push_back(fact_of_edge[edge]);
  }
  std::sort(contingency.begin(), contingency.end());
  contingency.erase(std::unique(contingency.begin(), contingency.end()),
                    contingency.end());
  result->network_vertices = network.num_vertices();
  result->network_edges = network.num_edges();
  // Pruning telemetry: what the full |V|·|S| construction would have
  // materialized beyond what we staged (the fact component counts only
  // sweep-discovered candidates, so it is a conservative lower bound).
  int64_t full_edges =
      relevant_facts + t.eps_transitions * V +
      (fixed_source < 0 ? int64_t{V} : 1) *
          static_cast<int64_t>(t.initial_states.size()) +
      (fixed_target < 0 ? int64_t{V} : 1) *
          static_cast<int64_t>(t.final_states.size());
  result->product_vertices_pruned = product_size - live_count;
  result->product_edges_pruned = full_edges - network.num_edges();
}

}  // namespace rpqres

#endif  // RPQRES_RESILIENCE_LOCAL_PRODUCT_H_
