#include "gadgets/condensation.h"

#include <algorithm>
#include <map>
#include <set>

#include "util/check.h"

namespace rpqres {
namespace {

std::string VertexName(const Hypergraph& h, int v) {
  if (v < static_cast<int>(h.vertex_names.size()) &&
      !h.vertex_names[v].empty()) {
    return h.vertex_names[v];
  }
  return std::string("v").append(std::to_string(v));
}

}  // namespace

CondensationResult Condense(const Hypergraph& h,
                            const std::vector<int>& protected_vertices) {
  std::vector<bool> is_protected(h.num_vertices, false);
  for (int v : protected_vertices) is_protected[v] = true;

  std::vector<bool> vertex_alive(h.num_vertices, true);
  std::vector<std::vector<int>> edges = h.edges;
  std::vector<bool> edge_alive(edges.size(), true);
  CondensationResult result;

  auto edge_subset = [](const std::vector<int>& a,
                        const std::vector<int>& b) {
    return std::includes(b.begin(), b.end(), a.begin(), a.end());
  };

  bool changed = true;
  while (changed) {
    changed = false;

    // Edge-domination: remove strict supersets (and duplicate edges).
    for (size_t i = 0; i < edges.size(); ++i) {
      if (!edge_alive[i]) continue;
      for (size_t j = 0; j < edges.size(); ++j) {
        if (i == j || !edge_alive[j]) continue;
        if (edge_subset(edges[i], edges[j]) &&
            (edges[i] != edges[j] || i < j)) {
          edge_alive[j] = false;
          changed = true;
          result.steps.push_back(
              {CondensationStep::Kind::kEdgeDomination,
               "edge-domination removes a superset of {" +
                   [&] {
                     std::string s;
                     for (int v : edges[i]) {
                       if (!s.empty()) s += ",";
                       s += VertexName(h, v);
                     }
                     return s;
                   }() +
                   "}"});
        }
      }
    }

    // Node-domination: E(v) ⊆ E(v'), remove v (v not protected).
    std::vector<std::vector<int>> incident(h.num_vertices);
    for (size_t e = 0; e < edges.size(); ++e) {
      if (!edge_alive[e]) continue;
      for (int v : edges[e]) {
        if (vertex_alive[v]) incident[v].push_back(static_cast<int>(e));
      }
    }
    for (int v = 0; v < h.num_vertices && !changed; ++v) {
      if (!vertex_alive[v] || is_protected[v]) continue;
      for (int w = 0; w < h.num_vertices; ++w) {
        if (w == v || !vertex_alive[w]) continue;
        bool subset = std::includes(incident[w].begin(), incident[w].end(),
                                    incident[v].begin(), incident[v].end());
        if (!subset) continue;
        // Tie-break for equal incidence: keep the protected / lower-id one
        // (deterministic, and never removes both of an equal pair).
        if (incident[v] == incident[w] && !is_protected[w] && w > v) {
          continue;
        }
        vertex_alive[v] = false;
        for (std::vector<int>& edge : edges) {
          edge.erase(std::remove(edge.begin(), edge.end(), v), edge.end());
        }
        result.steps.push_back({CondensationStep::Kind::kNodeDomination,
                                "node-domination removes " +
                                    VertexName(h, v) + " (dominated by " +
                                    VertexName(h, w) + ")"});
        changed = true;
        break;
      }
    }
  }

  // Build the output hypergraph over surviving vertices, renumbered.
  std::vector<int> remap(h.num_vertices, -1);
  for (int v = 0; v < h.num_vertices; ++v) {
    if (vertex_alive[v]) {
      remap[v] = static_cast<int>(result.kept_vertices.size());
      result.kept_vertices.push_back(v);
    }
  }
  result.condensed.num_vertices =
      static_cast<int>(result.kept_vertices.size());
  for (int v : result.kept_vertices) {
    result.condensed.vertex_names.push_back(VertexName(h, v));
  }
  std::set<std::vector<int>> edge_set;
  for (size_t e = 0; e < edges.size(); ++e) {
    if (!edge_alive[e]) continue;
    std::vector<int> edge;
    for (int v : edges[e]) edge.push_back(remap[v]);
    std::sort(edge.begin(), edge.end());
    edge_set.insert(std::move(edge));
  }
  result.condensed.edges.assign(edge_set.begin(), edge_set.end());
  return result;
}

OddPathCheck CheckOddPath(const Hypergraph& h, int from, int to) {
  OddPathCheck check;
  if (from == to) {
    check.reason = "endpoints coincide";
    return check;
  }
  std::map<int, std::vector<int>> adjacency;
  for (const std::vector<int>& edge : h.edges) {
    if (edge.size() != 2) {
      check.reason = "a hyperedge has size " + std::to_string(edge.size()) +
                     " (expected 2)";
      return check;
    }
    adjacency[edge[0]].push_back(edge[1]);
    adjacency[edge[1]].push_back(edge[0]);
  }
  if (!adjacency.count(from) || !adjacency.count(to)) {
    check.reason = "an endpoint fact lies on no hyperedge";
    return check;
  }
  if (adjacency[from].size() != 1 || adjacency[to].size() != 1) {
    check.reason = "an endpoint fact does not have degree 1";
    return check;
  }
  // Walk from `from`; all vertices must have degree <= 2 and we must end at
  // `to` having used every edge.
  int prev = -1, current = from;
  check.path_vertices.push_back(from);
  size_t used_edges = 0;
  while (current != to) {
    const std::vector<int>& nbrs = adjacency[current];
    if (nbrs.size() > 2) {
      check.reason = "vertex " + std::to_string(current) + " has degree " +
                     std::to_string(nbrs.size());
      return check;
    }
    int next = -1;
    for (int n : nbrs) {
      if (n != prev) next = n;
    }
    if (next == -1) {
      check.reason = "dead end before reaching the out-endpoint";
      return check;
    }
    prev = current;
    current = next;
    ++used_edges;
    check.path_vertices.push_back(current);
    if (used_edges > h.edges.size()) {
      check.reason = "walk revisits vertices (cycle)";
      return check;
    }
  }
  if (used_edges != h.edges.size()) {
    check.reason = "graph is not connected (extra components/edges)";
    return check;
  }
  // All vertices covered?
  if (check.path_vertices.size() !=
      static_cast<size_t>(h.num_vertices)) {
    check.reason = "isolated vertices remain";
    return check;
  }
  if (used_edges % 2 == 0) {
    check.reason = "path length " + std::to_string(used_edges) +
                   " is even (must be odd)";
    return check;
  }
  check.is_odd_path = true;
  check.path_edges = static_cast<int>(used_edges);
  return check;
}

}  // namespace rpqres
