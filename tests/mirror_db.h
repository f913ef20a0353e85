// Test helper: the database mirror of Prp 6.3 (every edge reversed). The
// library reads mirrored databases through views and never materializes
// one; the mirror-identity tests below still want a concrete GraphDb.

#ifndef RPQRES_TESTS_MIRROR_DB_H_
#define RPQRES_TESTS_MIRROR_DB_H_

#include "graphdb/graph_db.h"

namespace rpqres {

/// Copy of flat `db` with every edge reversed. Fact ids are preserved:
/// fact i of the mirror is fact i reversed, with the same multiplicity
/// and exogenous flag.
inline GraphDb MirrorOf(const GraphDb& db) {
  GraphDb out;
  for (NodeId v = 0; v < db.num_nodes(); ++v) out.AddNode(db.node_name(v));
  for (FactId id = 0; id < db.num_facts(); ++id) {
    const Fact& f = db.fact(id);
    FactId copy = out.AddFact(f.target, f.label, f.source, db.multiplicity(id));
    if (db.IsExogenous(id)) out.SetExogenous(copy);
  }
  return out;
}

}  // namespace rpqres

#endif  // RPQRES_TESTS_MIRROR_DB_H_
