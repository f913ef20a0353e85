#include "graphdb/rpq_eval.h"

#include <algorithm>

namespace rpqres {

ProductAutomaton PrepareProductAutomaton(const Enfa& query) {
  ProductAutomaton a;
  const int n = query.num_states();
  a.num_states = n;
  a.initial_states.assign(query.initial_states().begin(),
                          query.initial_states().end());
  a.is_final.assign(n, 0);
  for (int s : query.final_states()) a.is_final[s] = 1;
  for (int s : query.EpsilonClosure(query.initial_states())) {
    if (a.is_final[s]) a.accepts_epsilon = true;
  }
  // Counting sort of the transitions by source state; the fill pass keeps
  // each state's transitions in automaton order.
  a.letter_offset.assign(n + 1, 0);
  a.eps_offset.assign(n + 1, 0);
  for (const EnfaTransition& t : query.transitions()) {
    ++(t.symbol == kEpsilonSymbol ? a.eps_offset : a.letter_offset)[t.from + 1];
  }
  for (int s = 0; s < n; ++s) {
    a.letter_offset[s + 1] += a.letter_offset[s];
    a.eps_offset[s + 1] += a.eps_offset[s];
  }
  a.letter_symbol.resize(a.letter_offset[n]);
  a.letter_to.resize(a.letter_offset[n]);
  a.eps_to.resize(a.eps_offset[n]);
  std::vector<int32_t> letter_cursor(a.letter_offset.begin(),
                                     a.letter_offset.end() - 1);
  std::vector<int32_t> eps_cursor(a.eps_offset.begin(), a.eps_offset.end() - 1);
  for (const EnfaTransition& t : query.transitions()) {
    if (t.symbol == kEpsilonSymbol) {
      a.eps_to[eps_cursor[t.from]++] = t.to;
    } else {
      const int32_t at = letter_cursor[t.from]++;
      a.letter_symbol[at] = t.symbol;
      a.letter_to[at] = t.to;
    }
  }
  return a;
}

// Product-graph BFS over configurations (node, automaton state), with
// dense id node · |S| + state. Fact moves cost 1 step; ε-moves cost 0:
// a configuration's whole ε-closure is expanded eagerly at the BFS level
// it is reached on (product ε-edges stay within one database node), so
// plain BFS yields fewest-facts shortest walks. A configuration (v, s)
// follows each letter transition s -a-> t through the index's facts with
// label a out of v: the only facts the product has an edge for.
bool SearchProduct(const GraphDb& db, const LabelIndex& index,
                   const ProductAutomaton& query,
                   const uint8_t* removed, NodeId source, NodeId target,
                   SolverScratch& scratch, WitnessWalk* walk) {
  if (query.accepts_epsilon && (source < 0 || source == target)) {
    if (walk != nullptr) walk->clear();
    return true;
  }
  if (db.num_nodes() == 0) return false;

  const int64_t n = query.num_states;
  const int64_t total = db.num_nodes() * n;
  StampedSet& seen = scratch.product_seen;
  seen.Reset(total);
  std::vector<int32_t>& parent_fact = scratch.product_parent_fact;
  std::vector<int64_t>& parent = scratch.product_parent;
  if (walk != nullptr && static_cast<int64_t>(parent.size()) < total) {
    parent_fact.resize(total);
    parent.resize(total);
  }
  std::vector<int64_t>& queue = scratch.product_queue;
  queue.clear();
  std::vector<int32_t>& stack = scratch.closure_stack;

  // Marks (v, s) seen with the given parent link and expands its ε-closure.
  auto push_with_closure = [&](NodeId v, int32_t s, FactId via_fact,
                               int64_t via) {
    const int64_t p0 = v * n + s;
    if (!seen.TryInsert(p0)) return;
    if (walk != nullptr) {
      parent_fact[p0] = via_fact;
      parent[p0] = via;
    }
    queue.push_back(p0);
    stack.assign(1, s);
    while (!stack.empty()) {
      const int32_t state = stack.back();
      stack.pop_back();
      const int64_t p = v * n + state;
      for (int32_t i = query.eps_offset[state]; i < query.eps_offset[state + 1];
           ++i) {
        const int32_t to = query.eps_to[i];
        const int64_t q = v * n + to;
        if (!seen.TryInsert(q)) continue;
        if (walk != nullptr) {
          // ε-step within the same node: no fact consumed.
          parent_fact[q] = -1;
          parent[q] = p;
        }
        queue.push_back(q);
        stack.push_back(to);
      }
    }
  };

  const NodeId first_start = source < 0 ? 0 : source;
  const NodeId end_start = source < 0 ? db.num_nodes() : source + 1;
  for (NodeId v = first_start; v < end_start; ++v) {
    for (int32_t s : query.initial_states) push_with_closure(v, s, -1, -1);
  }

  for (size_t head = 0; head < queue.size(); ++head) {
    const int64_t p = queue[head];
    const NodeId v = static_cast<NodeId>(p / n);
    const int32_t s = static_cast<int32_t>(p % n);
    if (query.is_final[s] && (target < 0 || v == target)) {
      if (walk != nullptr) {
        // Follow the parent links back to a start configuration.
        walk->clear();
        for (int64_t current = p; current != -1; current = parent[current]) {
          if (parent_fact[current] != -1) walk->push_back(parent_fact[current]);
        }
        std::reverse(walk->begin(), walk->end());
      }
      return true;
    }
    for (int32_t i = query.letter_offset[s]; i < query.letter_offset[s + 1];
         ++i) {
      const int32_t to = query.letter_to[i];
      for (FactId fid : index.FactsFrom(query.letter_symbol[i], v)) {
        if (removed != nullptr && removed[fid] != 0) continue;
        const NodeId w = db.fact(fid).target;
        if (!seen.Contains(w * n + to)) push_with_closure(w, to, fid, p);
      }
    }
  }
  return false;
}

namespace {

// The Enfa entry points: per-call tables, index and mask, the thread's
// scratch.
bool SearchEnfa(const GraphDb& db, const Enfa& query,
                const std::vector<bool>* removed_facts, NodeId source,
                NodeId target, WitnessWalk* walk) {
  const ProductAutomaton automaton = PrepareProductAutomaton(query);
  std::vector<uint8_t> mask;
  if (removed_facts != nullptr) {
    mask.assign(removed_facts->begin(), removed_facts->end());
  }
  return SearchProduct(db, LabelIndex(db), automaton,
                       removed_facts != nullptr ? mask.data() : nullptr,
                       source, target, SolverScratch::ThreadLocal(), walk);
}

}  // namespace

bool EvaluatesToTrue(const GraphDb& db, const Enfa& query,
                     const std::vector<bool>* removed_facts) {
  return SearchEnfa(db, query, removed_facts, -1, -1, nullptr);
}

bool EvaluatesToTrue(const GraphDb& db, const Language& lang) {
  return EvaluatesToTrue(db, lang.enfa());
}

std::optional<WitnessWalk> ShortestWitnessWalk(
    const GraphDb& db, const Enfa& query,
    const std::vector<bool>* removed_facts) {
  WitnessWalk walk;
  if (!SearchEnfa(db, query, removed_facts, -1, -1, &walk)) {
    return std::nullopt;
  }
  return walk;
}

std::optional<WitnessWalk> ShortestWitnessWalk(const GraphDb& db,
                                               const Language& lang) {
  return ShortestWitnessWalk(db, lang.enfa());
}

bool EvaluatesToTrueBetween(const GraphDb& db, const Enfa& query,
                            NodeId source, NodeId target,
                            const std::vector<bool>* removed_facts) {
  return SearchEnfa(db, query, removed_facts, source, target, nullptr);
}

std::string WalkLabel(const GraphDb& db, const WitnessWalk& walk) {
  std::string label;
  for (FactId id : walk) label.push_back(db.fact(id).label);
  return label;
}

std::vector<FactId> WalkMatch(const WitnessWalk& walk) {
  std::vector<FactId> match = walk;
  std::sort(match.begin(), match.end());
  match.erase(std::unique(match.begin(), match.end()), match.end());
  return match;
}

}  // namespace rpqres
