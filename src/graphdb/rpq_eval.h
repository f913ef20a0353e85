// rpqres — graphdb/rpq_eval: Boolean RPQ evaluation Q_L(D) and witness-walk
// extraction, via the standard product construction (database × automaton)
// plus reachability (paper cites [Mendelzon & Wood, Lemma 3.1]).
//
// One breadth-first search over the product serves every entry point:
// SearchProduct runs it over a prepared ProductAutomaton with all of its
// transient state in a caller-owned SolverScratch, so a caller that
// prepares the automaton once (the exact solver's plan) searches without
// allocating. The product only has an edge for a fact whose label is the
// letter of a transition, so the search reads the database's facts
// through a LabelIndex, per (label, node). The Enfa overloads below
// prepare the automaton and build a LabelIndex per call.

#ifndef RPQRES_GRAPHDB_RPQ_EVAL_H_
#define RPQRES_GRAPHDB_RPQ_EVAL_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "automata/enfa.h"
#include "flow/solver_scratch.h"
#include "graphdb/graph_db.h"
#include "graphdb/label_index.h"
#include "lang/language.h"

namespace rpqres {

/// A witness walk: the fact ids of an L-walk, in walk order (a fact may
/// repeat). Empty when ε ∈ L (the query holds vacuously).
using WitnessWalk = std::vector<FactId>;

/// An εNFA as the product search reads it. Each state's letter and ε
/// transitions form a CSR slice in the automaton's transition order, which
/// fixes the order the search visits configurations in.
struct ProductAutomaton {
  int num_states = 0;
  /// ε ∈ L(A): the ε-closure of the initial states holds a final state.
  bool accepts_epsilon = false;
  /// Initial states, in the automaton's order.
  std::vector<int32_t> initial_states;
  /// Per-state final membership.
  std::vector<uint8_t> is_final;
  /// Letter transitions out of each state (CSR over states).
  std::vector<int32_t> letter_offset;
  std::vector<char> letter_symbol;
  std::vector<int32_t> letter_to;
  /// ε-transitions out of each state (CSR over states).
  std::vector<int32_t> eps_offset, eps_to;
};

/// Derives the product tables of `query`. O(|A|).
ProductAutomaton PrepareProductAutomaton(const Enfa& query);

/// The product BFS. True iff D contains an L(A)-walk that avoids every
/// fact with removed[id] != 0 (`removed` spans db.num_facts(), or is null
/// for none), starts at `source` (any node when source < 0) and ends at
/// `target` (any node when target < 0). With fixed endpoints the empty
/// walk counts only when source == target. When `walk` is non-null it
/// receives a shortest such walk (fewest facts, counting repetitions).
/// `index` must be a LabelIndex of `db`. A configuration (v, s) expands
/// s's letter transitions in automaton order, and for each one the facts
/// index.FactsFrom(letter, v) in ascending id order; that order decides
/// which shortest walk is returned. Every transient buffer lives in
/// `scratch`'s exact section; a warm scratch makes the search
/// allocation-free.
bool SearchProduct(const GraphDb& db, const LabelIndex& index,
                   const ProductAutomaton& query,
                   const uint8_t* removed, NodeId source, NodeId target,
                   SolverScratch& scratch, WitnessWalk* walk = nullptr);

/// True iff D contains an L(A)-walk (i.e. Q_L(D) = 1). O(|A|·|D|).
/// If `removed_facts` is given, facts with removed_facts[id] == true are
/// treated as deleted.
bool EvaluatesToTrue(const GraphDb& db, const Enfa& query,
                     const std::vector<bool>* removed_facts = nullptr);
bool EvaluatesToTrue(const GraphDb& db, const Language& lang);

/// A shortest witness walk (fewest facts, counting repetitions), or nullopt
/// when Q does not hold. The empty walk is returned iff ε ∈ L.
std::optional<WitnessWalk> ShortestWitnessWalk(
    const GraphDb& db, const Enfa& query,
    const std::vector<bool>* removed_facts = nullptr);
std::optional<WitnessWalk> ShortestWitnessWalk(const GraphDb& db,
                                               const Language& lang);

/// Fixed-endpoint variant (the non-Boolean RPQ setting of Section 8):
/// true iff D contains an L(A)-walk from `source` to `target`. The empty
/// walk counts iff ε ∈ L and source == target.
bool EvaluatesToTrueBetween(const GraphDb& db, const Enfa& query,
                            NodeId source, NodeId target,
                            const std::vector<bool>* removed_facts = nullptr);

/// The word labeling a witness walk.
std::string WalkLabel(const GraphDb& db, const WitnessWalk& walk);

/// Distinct facts of a walk, sorted (the *match* of Def 4.7 defined by it).
std::vector<FactId> WalkMatch(const WitnessWalk& walk);

}  // namespace rpqres

#endif  // RPQRES_GRAPHDB_RPQ_EVAL_H_
