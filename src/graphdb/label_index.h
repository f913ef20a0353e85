// rpqres — graphdb/label_index: precomputed per-label fact adjacency.
//
// LabelIndex is the only fact adjacency of the program: a GraphDb keeps
// its facts as dense arrays and no per-node lists, so every walk over a
// database's facts goes through an index. The three polynomial solvers
// (Thm 3.13, Prp 7.6, Prp 7.9) touch only the facts whose label the
// query uses; the product BFS of the exact solver and of RPQ evaluation
// (graphdb/rpq_eval) follows only facts whose label is the letter of a
// transition; the walk enumeration of the hypergraph of matches reads a
// node's out-facts label by label. The segment writer stores an index's
// entries verbatim, so a reopened index answers identically. A LabelIndex is
// built once per immutable database snapshot (the DbRegistry does this
// at Register time) and shared by every query against that snapshot;
// one-shot callers without a snapshot build one on demand.
//
// Beyond the flat per-label lists, the index stores a per-label CSR over
// source and target nodes (FactsFrom / FactsInto): the product-pruning
// reachability sweep expands a (node, state) frontier by exactly the
// facts with a given label at a given node, again without touching any
// inert fact.
//
// Per-label entries are copy-on-write (shared_ptr-to-const): a delta
// commit builds the next version's index *incrementally*. Labels the
// delta never touched share the parent's entry by pointer. A touched
// label's entry is *spliced* from its parent entry in one merge pass per
// array: runs of untouched nodes are copied wholesale with their offsets
// shifted, and at each node the delta touches the removed ids drop out
// and the added ids (which sort after every parent id) are appended. No
// parent fact is re-read or re-sorted, so a touched label costs
// sequential copies of its entry — O(its facts + nodes), plus a sort of
// the delta — instead of a counting sort over its facts. Dead
// (tombstoned) facts of a versioned GraphDb never enter an index.

#ifndef RPQRES_GRAPHDB_LABEL_INDEX_H_
#define RPQRES_GRAPHDB_LABEL_INDEX_H_

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "graphdb/graph_db.h"

namespace rpqres {

/// Immutable per-label fact lists for one database. Fact ids within a
/// label are ascending. The index holds fact *ids*, not copies; it is
/// only meaningful alongside the GraphDb it was built from (the
/// DbRegistry snapshot keeps the two paired).
class LabelIndex {
 public:
  /// An empty index: every lookup returns no facts.
  LabelIndex() { slot_.fill(-1); }
  /// Full build over the live facts of `db`.
  explicit LabelIndex(const GraphDb& db);
  /// Incremental build for a delta commit: `db` is the new version and
  /// `parent` the index of the version the delta was applied to. Facts
  /// with ids >= `first_new_fact` are the delta's additions; `removed`
  /// lists the ids the delta tombstoned (ids >= `first_new_fact` among
  /// them are ignored: the delta added and removed them). The touched
  /// labels are those of the live additions and of the removed parent
  /// facts; multiplicity changes touch nothing. Untouched labels share
  /// the parent's entry by pointer; touched ones are spliced from it
  /// (see the file comment), never rebuilt. The result equals a full
  /// LabelIndex(db), except that a shared entry keeps the node horizon it
  /// was built with.
  LabelIndex(const GraphDb& db, const LabelIndex& parent,
             const std::vector<FactId>& removed, FactId first_new_fact);

  /// Fact ids carrying `label`, ascending; empty when absent. On a
  /// mapped index (FromMapped) the span points into the mmap'ed segment.
  std::span<const FactId> Facts(char label) const {
    int16_t slot = slot_[static_cast<unsigned char>(label)];
    return slot < 0 ? std::span<const FactId>() : per_label_[slot]->facts;
  }

  /// Fact ids carrying `label` whose source is `node`, ascending; empty
  /// when absent. Nodes past the entry's build horizon (added by a later
  /// delta that never touched this label) have no facts by construction.
  std::span<const FactId> FactsFrom(char label, NodeId node) const {
    int16_t slot = slot_[static_cast<unsigned char>(label)];
    if (slot < 0) return {};
    const PerLabel& entry = *per_label_[slot];
    if (node + 1 >= static_cast<NodeId>(entry.source_offset.size())) {
      return {};
    }
    return std::span<const FactId>(entry.by_source)
        .subspan(entry.source_offset[node],
                 entry.source_offset[node + 1] - entry.source_offset[node]);
  }

  /// Fact ids carrying `label` whose target is `node`, ascending; empty
  /// when absent.
  std::span<const FactId> FactsInto(char label, NodeId node) const {
    int16_t slot = slot_[static_cast<unsigned char>(label)];
    if (slot < 0) return {};
    const PerLabel& entry = *per_label_[slot];
    if (node + 1 >= static_cast<NodeId>(entry.target_offset.size())) {
      return {};
    }
    return std::span<const FactId>(entry.by_target)
        .subspan(entry.target_offset[node],
                 entry.target_offset[node + 1] - entry.target_offset[node]);
  }

  /// Labels present, sorted.
  const std::vector<char>& labels() const { return labels_; }

  /// Live facts indexed.
  int64_t num_facts() const { return num_facts_; }

  /// How many labels of this index share their entry with the parent it
  /// was incrementally built from (0 for full builds) — telemetry for the
  /// delta-commit path.
  int shared_labels() const { return shared_labels_; }

  /// One label's CSR arrays as spans: what entry() reads out of an index
  /// and what FromMapped wraps from an mmap'ed segment. Layouts match
  /// PerLabel exactly; offsets have num_nodes + 1 entries at build time.
  struct Entry {
    char label = '\0';
    std::span<const FactId> facts;
    std::span<const FactId> by_source;
    std::span<const int32_t> source_offset;
    std::span<const FactId> by_target;
    std::span<const int32_t> target_offset;
  };

  /// The spans of `label`'s entry; all empty when the label is absent.
  Entry entry(char label) const;

  /// Wraps pre-built per-label CSR arrays living in an external buffer
  /// (an mmap'ed segment) without copying them. `entries` must be sorted
  /// by label (as unsigned char); `mapping` keeps the buffer alive and is
  /// pinned per entry, so incremental child indexes that share an entry
  /// keep the mapping alive too.
  static LabelIndex FromMapped(const std::vector<Entry>& entries,
                               std::shared_ptr<const void> mapping);

 private:
  struct PerLabel {
    std::span<const FactId> facts;  ///< ascending live fact ids, this label
    /// CSR over source nodes: facts of node v are
    /// by_source[source_offset[v] .. source_offset[v+1]).
    std::span<const FactId> by_source;
    std::span<const int32_t> source_offset;  ///< size num_nodes + 1 at build
    /// CSR over target nodes, same layout.
    std::span<const FactId> by_target;
    std::span<const int32_t> target_offset;

    // Owned storage behind the spans for heap-built entries. Mapped
    // entries leave these empty and pin the segment via `mapping`
    // instead. The keepalive lives on the entry (not the index) because
    // incremental builds share entries across index generations.
    std::vector<FactId> facts_store;
    std::vector<FactId> by_source_store;
    std::vector<int32_t> source_offset_store;
    std::vector<FactId> by_target_store;
    std::vector<int32_t> target_offset_store;
    std::shared_ptr<const void> mapping;

    /// Points the spans at the owned stores.
    void PublishStores();
  };

  /// Builds one label's entry from its ascending live fact ids (full
  /// builds).
  static std::shared_ptr<const PerLabel> BuildEntry(const GraphDb& db,
                                                    std::vector<FactId> facts);
  /// Splices one touched label's entry from its `parent` entry (null when
  /// the label is new) and the delta's `changes` to it, ascending by id:
  /// removed parent ids, then added ids. Null when no fact is left.
  /// `patch` is scratch reused across labels.
  static std::shared_ptr<const PerLabel> SpliceEntry(
      const GraphDb& db, const PerLabel* parent,
      std::span<const std::pair<unsigned char, FactId>> changes,
      FactId first_new_fact, std::vector<std::pair<NodeId, FactId>>* patch);
  void InsertEntry(char label, std::shared_ptr<const PerLabel> entry);

  std::array<int16_t, 256> slot_;  ///< label -> per_label_ index, -1 absent
  std::vector<std::shared_ptr<const PerLabel>> per_label_;
  std::vector<char> labels_;
  int64_t num_facts_ = 0;
  int shared_labels_ = 0;
};

}  // namespace rpqres

#endif  // RPQRES_GRAPHDB_LABEL_INDEX_H_
