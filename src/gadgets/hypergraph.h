// rpqres — gadgets/hypergraph: the hypergraph of matches (Def 4.7).
//
// Vertices are the facts of a database; hyperedges are the matches of L
// (fact sets of L-walks). RES_set(Q_L, D) equals the minimum hitting set of
// this hypergraph, which is what the condensation rules (condensation.h)
// and the gadget framework exploit.

#ifndef RPQRES_GADGETS_HYPERGRAPH_H_
#define RPQRES_GADGETS_HYPERGRAPH_H_

#include <string>
#include <vector>

#include "graphdb/graph_db.h"
#include "lang/language.h"
#include "util/status.h"

namespace rpqres {

/// A hypergraph over integer vertices with optional display names.
struct Hypergraph {
  int num_vertices = 0;
  /// Sorted, deduplicated vertex lists; the edge *set* is deduplicated too.
  std::vector<std::vector<int>> edges;
  /// Display names (facts render as "a(u,v)"), may be empty.
  std::vector<std::string> vertex_names;

  /// Sorts vertices within edges, removes duplicate edges.
  void Normalize();
  /// Human-readable listing.
  std::string ToString() const;
};

/// Computes the hypergraph of matches H_{L,D}. Matches are enumerated from
/// walks: all walks of length <= longest word for finite L, or all walks of
/// the (then required) acyclic database for infinite L. Two safeguards:
/// `max_walks` bounds enumeration, and infinite L + cyclic D is rejected
/// (matches could not be enumerated as walks). Walks use live facts only,
/// so on a versioned overlay a tombstoned id is a vertex of no hyperedge.
Result<Hypergraph> HypergraphOfMatches(const Language& lang,
                                       const GraphDb& db,
                                       size_t max_walks = 1 << 22);

/// Minimum-cardinality hitting set size of a hypergraph (exact, branch &
/// bound; for validation on small gadget hypergraphs). An empty hyperedge
/// makes the problem infeasible; this returns -1 then.
int MinimumHittingSetSize(const Hypergraph& h);

/// A minimum-weight hitting set (exact branch & bound).
struct HittingSetSolution {
  bool feasible = true;   ///< false iff some edge has no usable vertex
  Capacity cost = 0;
  std::vector<int> vertices;  ///< sorted vertex ids of the hitting set
};

/// Computes a minimum-weight hitting set; vertices with weight
/// kInfiniteCapacity are unusable (exogenous). `weights` must have one
/// entry per vertex.
HittingSetSolution MinimumWeightHittingSet(
    const Hypergraph& h, const std::vector<Capacity>& weights);

}  // namespace rpqres

#endif  // RPQRES_GADGETS_HYPERGRAPH_H_
