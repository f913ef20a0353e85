#include "gadgets/encoding.h"

#include "util/check.h"

namespace rpqres {

GraphDb EncodeGraph(const DirectedGraph& graph, const PreGadget& gadget) {
  Status status = ValidatePreGadget(gadget);
  RPQRES_CHECK_MSG(status.ok(), status.ToString());

  GraphDb out;
  // Per node u of G: fresh s_u, t_u and the fact s_u -a-> t_u.
  std::vector<NodeId> t_of(graph.num_vertices);
  for (int u = 0; u < graph.num_vertices; ++u) {
    NodeId s = out.AddNode(std::string("s").append(std::to_string(u)));
    t_of[u] = out.AddNode(std::string("t").append(std::to_string(u)));
    out.AddFact(s, gadget.label, t_of[u]);
  }
  // Per edge (u, v): a copy of the pre-gadget with t_in -> t_u,
  // t_out -> t_v, all other nodes fresh.
  for (size_t e = 0; e < graph.edges.size(); ++e) {
    auto [u, v] = graph.edges[e];
    std::vector<NodeId> remap(gadget.db.num_nodes(), -1);
    remap[gadget.t_in] = t_of[u];
    remap[gadget.t_out] = t_of[v];
    for (NodeId w = 0; w < gadget.db.num_nodes(); ++w) {
      if (remap[w] < 0) {
        remap[w] = out.AddNode(std::string("e")
                                   .append(std::to_string(e))
                                   .append("_")
                                   .append(gadget.db.node_name(w)));
      }
    }
    for (FactId f = 0; f < gadget.db.num_facts(); ++f) {
      const Fact& fact = gadget.db.fact(f);
      out.AddFact(remap[fact.source], fact.label, remap[fact.target],
                  gadget.db.multiplicity(f));
    }
  }
  return out;
}

Capacity PredictedEncodingResilience(const UndirectedGraph& graph,
                                     int path_edges) {
  RPQRES_CHECK_MSG(path_edges % 2 == 1, "gadget path length must be odd");
  Capacity vc = VertexCoverNumber(graph);
  Capacity m = static_cast<Capacity>(graph.edges.size());
  return vc + m * (path_edges - 1) / 2;
}

}  // namespace rpqres
