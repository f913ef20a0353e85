#include "graphdb/generators.h"

#include "util/check.h"

namespace rpqres {
namespace {

Capacity DrawMultiplicity(Rng* rng, Capacity max_multiplicity) {
  if (max_multiplicity <= 1) return 1;
  return rng->NextInRange(1, max_multiplicity);
}

/// "<prefix><row>_<col>", appended into one string (the `"x" + string`
/// form trips a GCC 12 -Wrestrict false positive).
std::string GridNodeName(char prefix, int row, int col) {
  std::string name(1, prefix);
  name.append(std::to_string(row)).append("_").append(std::to_string(col));
  return name;
}

}  // namespace

GraphDb RandomGraphDb(Rng* rng, int num_nodes, int num_facts,
                      const std::vector<char>& labels,
                      Capacity max_multiplicity) {
  RPQRES_CHECK(num_nodes > 0);
  RPQRES_CHECK(!labels.empty());
  GraphDb db;
  for (int i = 0; i < num_nodes; ++i) db.AddNode();
  for (int i = 0; i < num_facts; ++i) {
    NodeId u = static_cast<NodeId>(rng->NextBelow(num_nodes));
    NodeId v = static_cast<NodeId>(rng->NextBelow(num_nodes));
    char label = labels[rng->NextBelow(labels.size())];
    db.AddFact(u, label, v, DrawMultiplicity(rng, max_multiplicity));
  }
  return db;
}

GraphDb LayeredFlowDb(Rng* rng, int sources, int layers, int width,
                      int sinks, double density, Capacity max_multiplicity) {
  RPQRES_CHECK(layers >= 1 && width >= 1 && sources >= 1 && sinks >= 1);
  GraphDb db;
  // Internal grid of `layers` columns of `width` nodes.
  std::vector<std::vector<NodeId>> grid(layers);
  for (int l = 0; l < layers; ++l) {
    for (int w = 0; w < width; ++w) {
      grid[l].push_back(db.AddNode(GridNodeName('L', l, w)));
    }
  }
  // a-edges from fresh source stubs into the first layer.
  for (int i = 0; i < sources; ++i) {
    NodeId stub = db.AddNode("src" + std::to_string(i));
    NodeId entry = grid[0][rng->NextBelow(width)];
    db.AddFact(stub, 'a', entry, DrawMultiplicity(rng, max_multiplicity));
  }
  // x-edges between consecutive layers; guarantee at least one per column.
  for (int l = 0; l + 1 < layers; ++l) {
    for (int w = 0; w < width; ++w) {
      NodeId from = grid[l][w];
      bool added = false;
      for (int w2 = 0; w2 < width; ++w2) {
        if (rng->NextDouble() < density) {
          db.AddFact(from, 'x', grid[l + 1][w2],
                     DrawMultiplicity(rng, max_multiplicity));
          added = true;
        }
      }
      if (!added) {
        db.AddFact(from, 'x', grid[l + 1][rng->NextBelow(width)],
                   DrawMultiplicity(rng, max_multiplicity));
      }
    }
  }
  // b-edges from the last layer to fresh sink stubs.
  for (int i = 0; i < sinks; ++i) {
    NodeId exit = grid[layers - 1][rng->NextBelow(width)];
    NodeId stub = db.AddNode("snk" + std::to_string(i));
    db.AddFact(exit, 'b', stub, DrawMultiplicity(rng, max_multiplicity));
  }
  return db;
}

GraphDb PathDb(const std::string& word) {
  GraphDb db;
  NodeId prev = db.AddNode();
  for (char c : word) {
    NodeId next = db.AddNode();
    db.AddFact(prev, c, next);
    prev = next;
  }
  return db;
}

GraphDb WordSoupDb(Rng* rng, const std::vector<std::string>& words,
                   int count, const std::vector<char>& extra_labels,
                   int cross_links, Capacity max_multiplicity) {
  RPQRES_CHECK(!words.empty());
  GraphDb db;
  for (int i = 0; i < count; ++i) {
    const std::string& word = words[rng->NextBelow(words.size())];
    NodeId prev = db.AddNode();
    for (char c : word) {
      NodeId next = db.AddNode();
      db.AddFact(prev, c, next, DrawMultiplicity(rng, max_multiplicity));
      prev = next;
    }
  }
  if (db.num_nodes() > 0 && !extra_labels.empty()) {
    for (int i = 0; i < cross_links; ++i) {
      NodeId u = static_cast<NodeId>(rng->NextBelow(db.num_nodes()));
      NodeId v = static_cast<NodeId>(rng->NextBelow(db.num_nodes()));
      char label = extra_labels[rng->NextBelow(extra_labels.size())];
      db.AddFact(u, label, v, DrawMultiplicity(rng, max_multiplicity));
    }
  }
  return db;
}

GraphDb DanglingPairsDb(Rng* rng, int num_nodes, int base_facts,
                        const std::vector<char>& base_labels, char x, char y,
                        int pair_count, Capacity max_multiplicity) {
  RPQRES_CHECK(num_nodes > 0);
  GraphDb db;
  for (int i = 0; i < num_nodes; ++i) db.AddNode();
  for (int i = 0; i < base_facts; ++i) {
    NodeId u = static_cast<NodeId>(rng->NextBelow(num_nodes));
    NodeId v = static_cast<NodeId>(rng->NextBelow(num_nodes));
    char label = base_labels[rng->NextBelow(base_labels.size())];
    db.AddFact(u, label, v, DrawMultiplicity(rng, max_multiplicity));
  }
  for (int i = 0; i < pair_count; ++i) {
    // x into a shared middle node, y out of it; endpoints may be shared
    // with the base part, creating interaction between {xy} and the base
    // language matches.
    NodeId u = static_cast<NodeId>(rng->NextBelow(num_nodes));
    NodeId mid = static_cast<NodeId>(rng->NextBelow(num_nodes));
    NodeId w = static_cast<NodeId>(rng->NextBelow(num_nodes));
    db.AddFact(u, x, mid, DrawMultiplicity(rng, max_multiplicity));
    db.AddFact(mid, y, w, DrawMultiplicity(rng, max_multiplicity));
  }
  return db;
}

GraphDb RandomChainDb(Rng* rng, int length, const std::vector<char>& labels,
                      Capacity max_multiplicity) {
  RPQRES_CHECK(length >= 0);
  RPQRES_CHECK(!labels.empty());
  GraphDb db;
  NodeId prev = db.AddNode();
  for (int i = 0; i < length; ++i) {
    NodeId next = db.AddNode();
    db.AddFact(prev, labels[rng->NextBelow(labels.size())], next,
               DrawMultiplicity(rng, max_multiplicity));
    prev = next;
  }
  return db;
}

GraphDb CycleDb(Rng* rng, int length, const std::vector<char>& labels,
                Capacity max_multiplicity) {
  RPQRES_CHECK(length >= 1);
  RPQRES_CHECK(!labels.empty());
  GraphDb db;
  NodeId first = db.AddNode();
  NodeId prev = first;
  for (int i = 1; i < length; ++i) {
    NodeId next = db.AddNode();
    db.AddFact(prev, labels[rng->NextBelow(labels.size())], next,
               DrawMultiplicity(rng, max_multiplicity));
    prev = next;
  }
  db.AddFact(prev, labels[rng->NextBelow(labels.size())], first,
             DrawMultiplicity(rng, max_multiplicity));
  return db;
}

GraphDb GridDb(Rng* rng, int rows, int cols, const std::vector<char>& labels,
               Capacity max_multiplicity) {
  RPQRES_CHECK(rows >= 1 && cols >= 1);
  RPQRES_CHECK(!labels.empty());
  GraphDb db;
  std::vector<NodeId> nodes(static_cast<size_t>(rows) * cols);
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      nodes[r * cols + c] = db.AddNode(GridNodeName('g', r, c));
    }
  }
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      if (c + 1 < cols) {
        db.AddFact(nodes[r * cols + c], labels[rng->NextBelow(labels.size())],
                   nodes[r * cols + c + 1],
                   DrawMultiplicity(rng, max_multiplicity));
      }
      if (r + 1 < rows) {
        db.AddFact(nodes[r * cols + c], labels[rng->NextBelow(labels.size())],
                   nodes[(r + 1) * cols + c],
                   DrawMultiplicity(rng, max_multiplicity));
      }
    }
  }
  return db;
}

GraphDb DagLayersDb(Rng* rng, int layers, int width, double density,
                    const std::vector<char>& labels,
                    Capacity max_multiplicity) {
  RPQRES_CHECK(layers >= 1 && width >= 1);
  RPQRES_CHECK(!labels.empty());
  GraphDb db;
  std::vector<std::vector<NodeId>> grid(layers);
  for (int l = 0; l < layers; ++l) {
    for (int w = 0; w < width; ++w) {
      grid[l].push_back(db.AddNode(GridNodeName('d', l, w)));
    }
  }
  for (int l = 0; l + 1 < layers; ++l) {
    for (int w = 0; w < width; ++w) {
      bool added = false;
      for (int w2 = 0; w2 < width; ++w2) {
        if (rng->NextDouble() < density) {
          db.AddFact(grid[l][w], labels[rng->NextBelow(labels.size())],
                     grid[l + 1][w2], DrawMultiplicity(rng, max_multiplicity));
          added = true;
        }
      }
      if (!added) {
        db.AddFact(grid[l][w], labels[rng->NextBelow(labels.size())],
                   grid[l + 1][rng->NextBelow(width)],
                   DrawMultiplicity(rng, max_multiplicity));
      }
    }
  }
  return db;
}

GraphDb ScaleFreeDb(Rng* rng, int num_nodes, int edges_per_node,
                    const std::vector<char>& labels,
                    Capacity max_multiplicity) {
  RPQRES_CHECK(num_nodes >= 1 && edges_per_node >= 1);
  RPQRES_CHECK(!labels.empty());
  GraphDb db;
  // Target pool: each node appears once per incoming edge plus once
  // unconditionally, so draws are proportional to in-degree + 1.
  std::vector<NodeId> pool;
  for (int i = 0; i < num_nodes; ++i) {
    NodeId node = db.AddNode();
    if (i > 0) {
      for (int e = 0; e < edges_per_node; ++e) {
        NodeId target = pool[rng->NextBelow(pool.size())];
        db.AddFact(node, labels[rng->NextBelow(labels.size())], target,
                   DrawMultiplicity(rng, max_multiplicity));
        pool.push_back(target);
      }
    }
    pool.push_back(node);
  }
  return db;
}

GraphDb KroneckerDb(Rng* rng, int iterations, int num_facts,
                    const std::vector<char>& labels,
                    Capacity max_multiplicity) {
  RPQRES_CHECK(iterations >= 1 && iterations < 31);
  RPQRES_CHECK(!labels.empty());
  GraphDb db;
  int num_nodes = 1 << iterations;
  for (int i = 0; i < num_nodes; ++i) db.AddNode();
  for (int i = 0; i < num_facts; ++i) {
    NodeId u = 0;
    NodeId v = 0;
    for (int level = 0; level < iterations; ++level) {
      double p = rng->NextDouble();
      // R-MAT quadrant probabilities (a, b, c, d) = (.57, .19, .19, .05).
      int quadrant = p < 0.57 ? 0 : p < 0.76 ? 1 : p < 0.95 ? 2 : 3;
      u = (u << 1) | (quadrant >> 1);
      v = (v << 1) | (quadrant & 1);
    }
    db.AddFact(u, labels[rng->NextBelow(labels.size())], v,
               DrawMultiplicity(rng, max_multiplicity));
  }
  return db;
}

}  // namespace rpqres
