// GraphDb copy-on-write overlays: the storage layer under DbRegistry v3
// delta commits. Pins the id-space contract (dead ids stay allocated but
// invisible), the live views, multiplicity overrides, re-add ordering,
// Compact's renumbering, and the incremental LabelIndex's equivalence to
// full rebuilds.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "graphdb/graph_db.h"
#include "graphdb/label_index.h"
#include "graphdb/serialization.h"
#include "storage/segment.h"

namespace rpqres {
namespace {

std::vector<FactId> ToVector(std::span<const FactId> facts) {
  return std::vector<FactId>(facts.begin(), facts.end());
}

GraphDb SmallDb() {
  GraphDb db;
  NodeId u = db.AddNode("u");
  NodeId v = db.AddNode("v");
  NodeId w = db.AddNode("w");
  db.AddFact(u, 'a', v);       // 0
  db.AddFact(v, 'x', w, 3);    // 1
  db.AddFact(u, 'b', w);       // 2
  return db;
}

TEST(GraphDbOverlayTest, FlatDatabasesAreAllLive) {
  GraphDb db = SmallDb();
  EXPECT_FALSE(db.is_versioned());
  EXPECT_EQ(db.num_live_facts(), 3);
  EXPECT_EQ(db.overlay_size(), 0);
  for (FactId f = 0; f < db.num_facts(); ++f) EXPECT_TRUE(db.IsLive(f));
  LabelIndex index(db);
  EXPECT_EQ(ToVector(index.FactsFrom('a', 0)), (std::vector<FactId>{0}));
  EXPECT_EQ(ToVector(index.FactsFrom('b', 0)), (std::vector<FactId>{2}));
  EXPECT_EQ(ToVector(index.FactsInto('x', 2)), (std::vector<FactId>{1}));
  EXPECT_EQ(ToVector(index.FactsInto('b', 2)), (std::vector<FactId>{2}));
}

TEST(GraphDbOverlayTest, OverlaySharesBaseAndAppends) {
  auto base = std::make_shared<const GraphDb>(SmallDb());
  GraphDb overlay = GraphDb::MakeOverlay(base);
  EXPECT_TRUE(overlay.is_versioned());
  EXPECT_EQ(overlay.num_facts(), 3);
  EXPECT_EQ(overlay.num_nodes(), 3);

  NodeId z = overlay.AddNode("z");
  EXPECT_EQ(z, 3);
  FactId f = overlay.AddFact(2, 'a', z, 2);
  EXPECT_EQ(f, 3);  // ids continue the base's space
  EXPECT_EQ(overlay.fact(3).source, 2);
  EXPECT_EQ(overlay.multiplicity(3), 2);
  EXPECT_EQ(overlay.node_name(3), "z");
  // Base reads go through unchanged.
  EXPECT_EQ(overlay.fact(1).label, 'x');
  EXPECT_EQ(overlay.multiplicity(1), 3);
  // An index over the overlay sees base and overlay facts.
  LabelIndex index(overlay);
  EXPECT_EQ(ToVector(index.FactsFrom('a', 2)), (std::vector<FactId>{3}));
  EXPECT_EQ(ToVector(index.FactsInto('a', 3)), (std::vector<FactId>{3}));
  EXPECT_EQ(ToVector(index.FactsFrom('a', 0)), (std::vector<FactId>{0}));
  // The base itself is untouched.
  EXPECT_EQ(base->num_facts(), 3);
  EXPECT_EQ(base->num_nodes(), 3);
}

TEST(GraphDbOverlayTest, RemoveFactTombstonesWithoutRenumbering) {
  auto base = std::make_shared<const GraphDb>(SmallDb());
  GraphDb overlay = GraphDb::MakeOverlay(base);
  ASSERT_TRUE(overlay.RemoveFact(0, 'a', 1).ok());
  EXPECT_EQ(overlay.num_facts(), 3);  // id space unchanged
  EXPECT_EQ(overlay.num_live_facts(), 2);
  EXPECT_FALSE(overlay.IsLive(0));
  EXPECT_EQ(overlay.FindFact(0, 'a', 1), -1);
  {
    LabelIndex index(overlay);
    EXPECT_TRUE(index.FactsFrom('a', 0).empty());
    EXPECT_EQ(ToVector(index.FactsFrom('b', 0)), (std::vector<FactId>{2}));
  }
  // Removing it again: NotFound.
  EXPECT_EQ(overlay.RemoveFact(0, 'a', 1).code(), StatusCode::kNotFound);
  // Removing an overlay-added fact works too.
  FactId added = overlay.AddFact(1, 'c', 2);
  ASSERT_TRUE(overlay.RemoveFact(1, 'c', 2).ok());
  EXPECT_FALSE(overlay.IsLive(added));
  EXPECT_EQ(overlay.num_live_facts(), 2);
}

TEST(GraphDbOverlayTest, MultiplicityBumpOnBaseFactIsAnOverride) {
  auto base = std::make_shared<const GraphDb>(SmallDb());
  GraphDb overlay = GraphDb::MakeOverlay(base);
  FactId f = overlay.AddFact(1, 'x', 2, 4);  // existing base fact
  EXPECT_EQ(f, 1);
  EXPECT_EQ(overlay.num_facts(), 3);  // no new fact
  EXPECT_EQ(overlay.multiplicity(1), 7);
  EXPECT_EQ(base->multiplicity(1), 3);  // base untouched
  EXPECT_EQ(overlay.Cost(1, Semantics::kBag), 7);
  EXPECT_EQ(overlay.Cost(1, Semantics::kSet), 1);
}

TEST(GraphDbOverlayTest, ReAddAfterRemoveAppendsLikeARebuild) {
  auto base = std::make_shared<const GraphDb>(SmallDb());
  GraphDb overlay = GraphDb::MakeOverlay(base);
  ASSERT_TRUE(overlay.RemoveFact(0, 'a', 1).ok());
  FactId readded = overlay.AddFact(0, 'a', 1, 5);
  EXPECT_EQ(readded, 3);  // new id at the end, not a resurrection
  EXPECT_FALSE(overlay.IsLive(0));
  EXPECT_TRUE(overlay.IsLive(3));
  EXPECT_EQ(overlay.multiplicity(3), 5);

  // The from-scratch twin: remove fact 0, then append the same fact.
  GraphDb twin = SmallDb().RemoveFacts({0});
  twin.AddFact(0, 'a', 1, 5);
  EXPECT_EQ(SerializeGraphDb(overlay), SerializeGraphDb(twin));
}

TEST(GraphDbOverlayTest, ChainedOverlaysShareOneFlatBase) {
  auto base = std::make_shared<const GraphDb>(SmallDb());
  auto level1 = std::make_shared<const GraphDb>([&] {
    GraphDb overlay = GraphDb::MakeOverlay(base);
    overlay.AddFact(0, 'c', 1);
    return overlay;
  }());
  GraphDb level2 = GraphDb::MakeOverlay(level1);
  EXPECT_TRUE(level2.is_versioned());
  EXPECT_EQ(level2.base_fact_watermark(), 3);  // the flat base, not level1
  EXPECT_EQ(level2.num_facts(), 4);
  level2.AddFact(1, 'c', 0);
  EXPECT_EQ(level2.num_facts(), 5);
  EXPECT_EQ(level2.fact(3).label, 'c');  // level1's addition visible
  // Mutating level2 never touches level1.
  EXPECT_EQ(level1->num_facts(), 4);
}

TEST(GraphDbOverlayTest, CompactRenumbersLiveFactsInOrder) {
  auto base = std::make_shared<const GraphDb>(SmallDb());
  GraphDb overlay = GraphDb::MakeOverlay(base);
  ASSERT_TRUE(overlay.RemoveFact(0, 'a', 1).ok());
  overlay.AddFact(2, 'c', 0, 2);
  // A node whose only fact is tombstoned (the removal also grows the
  // tombstone bitmap past the ids of the first one).
  NodeId t = overlay.AddNode("t");
  FactId dead = overlay.AddFact(t, 'd', 2);
  ASSERT_TRUE(overlay.RemoveFact(t, 'd', 2).ok());
  EXPECT_FALSE(overlay.IsLive(dead));
  EXPECT_TRUE(overlay.IsLive(3));
  std::vector<FactId> old_id_of;
  GraphDb flat = overlay.Compact(&old_id_of);
  EXPECT_FALSE(flat.is_versioned());
  EXPECT_EQ(flat.num_facts(), 3);
  EXPECT_EQ(old_id_of, (std::vector<FactId>{1, 2, 3}));
  EXPECT_EQ(flat.fact(0).label, 'x');
  EXPECT_EQ(flat.fact(2).label, 'c');
  EXPECT_EQ(flat.multiplicity(2), 2);
  EXPECT_EQ(flat.num_nodes(), overlay.num_nodes());
  EXPECT_NE(SerializeGraphDb(overlay).find("\nnode t\n"), std::string::npos);
  EXPECT_NE(SerializeGraphDb(flat).find("\nnode t\n"), std::string::npos);
  EXPECT_EQ(SerializeGraphDb(flat), SerializeGraphDb(overlay));
}

TEST(GraphDbOverlayTest, AggregatesSkipDeadFacts) {
  auto base = std::make_shared<const GraphDb>(SmallDb());
  GraphDb overlay = GraphDb::MakeOverlay(base);
  ASSERT_TRUE(overlay.RemoveFact(1, 'x', 2).ok());  // the only x-fact
  EXPECT_EQ(overlay.Labels(), (std::vector<char>{'a', 'b'}));
  EXPECT_EQ(overlay.TotalCost(Semantics::kBag), 2);
  EXPECT_EQ(overlay.TotalCost(Semantics::kSet), 2);
  EXPECT_EQ(overlay.NumExogenous(), 0);
  EXPECT_EQ(overlay.ToString().find('x'), std::string::npos);
}

// TotalCost and NumExogenous are O(1) running totals; after every kind of
// mutation (new facts, multiplicity bumps on overlay and base facts,
// exogenous toggles, tombstones, chained overlays) they must equal a
// recount over the live facts.
TEST(GraphDbOverlayTest, RunningTotalsMatchARecountAfterEveryMutation) {
  auto expect_recount = [](const GraphDb& db) {
    Capacity bag = 0, set = 0;
    int exogenous = 0;
    for (FactId f = 0; f < db.num_facts(); ++f) {
      if (!db.IsLive(f)) continue;
      if (db.IsExogenous(f)) {
        ++exogenous;
      } else {
        bag += db.multiplicity(f);
        ++set;
      }
    }
    EXPECT_EQ(db.TotalCost(Semantics::kBag), bag);
    EXPECT_EQ(db.TotalCost(Semantics::kSet), set);
    EXPECT_EQ(db.NumExogenous(), exogenous);
  };
  GraphDb flat = SmallDb();
  flat.SetExogenous(2);
  flat.AddFact(0, 'a', 1, 4);  // bump an endogenous fact
  flat.AddFact(0, 'b', 2, 5);  // bump an exogenous fact
  expect_recount(flat);
  auto base = std::make_shared<const GraphDb>(flat);
  GraphDb overlay = GraphDb::MakeOverlay(base);
  expect_recount(overlay);
  FactId added = overlay.AddFact(2, 'c', 0, 7);
  overlay.AddFact(1, 'x', 2, 2);  // override on a base fact
  expect_recount(overlay);
  overlay.SetExogenous(added);
  expect_recount(overlay);
  overlay.SetExogenous(added, false);
  overlay.SetExogenous(added, false);  // no-op toggle
  expect_recount(overlay);
  ASSERT_TRUE(overlay.RemoveFact(1, 'x', 2).ok());  // overridden base fact
  ASSERT_TRUE(overlay.RemoveFact(0, 'b', 2).ok());  // exogenous base fact
  expect_recount(overlay);
  auto parent = std::make_shared<const GraphDb>(overlay);
  GraphDb chained = GraphDb::MakeOverlay(parent);
  ASSERT_TRUE(chained.RemoveFact(2, 'c', 0).ok());
  chained.AddFact(1, 'x', 2, 3);  // re-add after the tombstone
  expect_recount(chained);
  expect_recount(chained.Compact());
}

// --- incremental LabelIndex -------------------------------------------------

TEST(LabelIndexIncrementalTest, SharesUntouchedLabelsAndPatchesTouched) {
  auto base = std::make_shared<const GraphDb>(SmallDb());
  LabelIndex base_index(*base);
  GraphDb overlay = GraphDb::MakeOverlay(base);
  ASSERT_TRUE(overlay.RemoveFact(0, 'a', 1).ok());
  FactId added = overlay.AddFact(1, 'a', 0);

  LabelIndex incremental(overlay, base_index, /*removed=*/{0},
                         /*first_new_fact=*/3);
  EXPECT_EQ(incremental.shared_labels(), 2);  // 'b' and 'x' untouched
  EXPECT_EQ(incremental.num_facts(), 3);
  EXPECT_EQ(ToVector(incremental.Facts('a')), (std::vector<FactId>{added}));
  EXPECT_EQ(ToVector(incremental.FactsFrom('a', 1)),
            (std::vector<FactId>{added}));
  EXPECT_TRUE(incremental.FactsFrom('a', 0).empty());
  // Untouched labels answer through the shared base entry.
  EXPECT_EQ(ToVector(incremental.Facts('x')), ToVector(base_index.Facts('x')));

  // Equivalent to a full rebuild over the same overlay (same id space).
  LabelIndex full(overlay);
  EXPECT_EQ(incremental.labels(), full.labels());
  for (char label : full.labels()) {
    EXPECT_EQ(ToVector(incremental.Facts(label)), ToVector(full.Facts(label)))
        << label;
    for (NodeId v = 0; v < overlay.num_nodes(); ++v) {
      EXPECT_EQ(ToVector(incremental.FactsFrom(label, v)),
                ToVector(full.FactsFrom(label, v)));
      EXPECT_EQ(ToVector(incremental.FactsInto(label, v)),
                ToVector(full.FactsInto(label, v)));
    }
  }
}

TEST(LabelIndexIncrementalTest, LabelVanishesWhenAllFactsDie) {
  auto base = std::make_shared<const GraphDb>(SmallDb());
  LabelIndex base_index(*base);
  GraphDb overlay = GraphDb::MakeOverlay(base);
  ASSERT_TRUE(overlay.RemoveFact(1, 'x', 2).ok());
  LabelIndex incremental(overlay, base_index, /*removed=*/{1},
                         /*first_new_fact=*/3);
  EXPECT_EQ(incremental.labels(), (std::vector<char>{'a', 'b'}));
  EXPECT_TRUE(incremental.Facts('x').empty());
  EXPECT_TRUE(incremental.FactsFrom('x', 1).empty());
}

TEST(LabelIndexIncrementalTest, SharedEntriesAreSafeAtNewNodes) {
  auto base = std::make_shared<const GraphDb>(SmallDb());
  LabelIndex base_index(*base);
  GraphDb overlay = GraphDb::MakeOverlay(base);
  NodeId z = overlay.AddNode("z");
  FactId f = overlay.AddFact(z, 'a', 0);
  LabelIndex incremental(overlay, base_index, /*removed=*/{},
                         /*first_new_fact=*/3);
  // 'x' is shared from the base (built before node z existed): probing it
  // at the new node must answer "no facts", not read out of bounds.
  EXPECT_TRUE(incremental.FactsFrom('x', z).empty());
  EXPECT_TRUE(incremental.FactsInto('x', z).empty());
  EXPECT_EQ(ToVector(incremental.FactsFrom('a', z)),
            (std::vector<FactId>{f}));
}

// --- splice edge cases --------------------------------------------------------
//
// Each case applies one delta to a parent database and checks the spliced
// index against a full LabelIndex(child): a touched label's entry must be
// span-for-span equal (facts, both CSRs, both offset arrays); a label the
// delta left alone must share the parent's entry and answer identically.

// Six nodes, labels a/b/c, facts at node 0 and at the last node.
GraphDb SpliceBase() {
  GraphDb db;
  for (int v = 0; v < 6; ++v) db.AddNode();
  db.AddFact(0, 'a', 1);
  db.AddFact(1, 'a', 2);
  db.AddFact(2, 'a', 3);
  db.AddFact(0, 'a', 3);
  db.AddFact(5, 'a', 0);
  db.AddFact(4, 'a', 5);
  db.AddFact(0, 'b', 2);
  db.AddFact(3, 'b', 5);
  db.AddFact(5, 'b', 5);
  db.AddFact(1, 'c', 4);
  db.AddFact(4, 'c', 1);
  return db;
}

/// A parent version: its database and the index the registry keeps for it.
struct SpliceParent {
  std::shared_ptr<const GraphDb> db;
  LabelIndex index;
};

SpliceParent FlatParent() {
  auto db = std::make_shared<const GraphDb>(SpliceBase());
  LabelIndex index(*db);
  return {db, std::move(index)};
}

/// An overlay over an overlay: the parent is itself a delta version (one
/// node, two facts added, one removed) whose index was spliced from the
/// base's; its 'c' entry is shared from the base and ends a node early.
SpliceParent OverlayParent() {
  SpliceParent base = FlatParent();
  GraphDb mid = GraphDb::MakeOverlay(base.db);
  NodeId n6 = mid.AddNode();
  mid.AddFact(n6, 'a', 2);
  mid.AddFact(3, 'b', n6);
  FactId removed = -1;
  EXPECT_TRUE(mid.RemoveFact(2, 'a', 3, &removed).ok());
  LabelIndex index(mid, base.index, {removed}, base.db->num_facts());
  return {std::make_shared<const GraphDb>(std::move(mid)), std::move(index)};
}

/// A restored parent: the base written to a segment and mapped back, so
/// the parent entries' spans point into the file.
SpliceParent MappedParent() {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("splice_parent_" + std::to_string(::getpid()) + ".seg"))
          .string();
  EXPECT_TRUE(storage::WriteSegment(path, SpliceBase(), {}).ok());
  Result<storage::LoadedSegment> loaded = storage::ReadSegment(path);
  std::remove(path.c_str());  // the mapping outlives the name
  EXPECT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_TRUE(loaded->db.is_mapped());
  return {std::make_shared<const GraphDb>(std::move(loaded->db)),
          std::move(loaded->label_index)};
}

/// A delta under construction: the child overlay plus the ids it
/// tombstoned, as DeltaBatch records them.
struct Delta {
  GraphDb db;
  std::vector<FactId> removed;

  void Remove(NodeId source, char label, NodeId target) {
    FactId id = -1;
    ASSERT_TRUE(db.RemoveFact(source, label, target, &id).ok())
        << source << " -" << label << "-> " << target;
    removed.push_back(id);
  }
  /// Removes the lowest live fact id matching `pick`.
  void RemoveFirst(const std::function<bool(const Fact&)>& pick) {
    for (FactId f = 0; f < db.num_facts(); ++f) {
      if (!db.IsLive(f) || !pick(db.fact(f))) continue;
      const Fact fact = db.fact(f);
      Remove(fact.source, fact.label, fact.target);
      return;
    }
    ADD_FAILURE() << "no live fact to remove";
  }
};

/// Applies `edit` to a child of `parent`, splices, and compares with a
/// full build. Returns the spliced index for case-specific checks.
LabelIndex SpliceAndCompare(const SpliceParent& parent,
                            const std::function<void(Delta*)>& edit) {
  Delta delta{GraphDb::MakeOverlay(parent.db), {}};
  edit(&delta);
  LabelIndex spliced(delta.db, parent.index, delta.removed,
                     parent.db->num_facts());
  LabelIndex full(delta.db);
  EXPECT_EQ(spliced.labels(), full.labels());
  EXPECT_EQ(spliced.num_facts(), full.num_facts());
  for (char label : full.labels()) {
    const LabelIndex::Entry got = spliced.entry(label);
    const LabelIndex::Entry want = full.entry(label);
    const bool shared =
        got.facts.data() == parent.index.entry(label).facts.data();
    EXPECT_EQ(ToVector(got.facts), ToVector(want.facts)) << label;
    if (shared) {
      // A shared entry keeps its own node horizon; compare per node.
      for (NodeId v = 0; v < delta.db.num_nodes(); ++v) {
        EXPECT_EQ(ToVector(spliced.FactsFrom(label, v)),
                  ToVector(full.FactsFrom(label, v)))
            << label << " from " << v;
        EXPECT_EQ(ToVector(spliced.FactsInto(label, v)),
                  ToVector(full.FactsInto(label, v)))
            << label << " into " << v;
      }
      continue;
    }
    EXPECT_EQ(ToVector(got.by_source), ToVector(want.by_source)) << label;
    EXPECT_EQ(ToVector(got.source_offset), ToVector(want.source_offset))
        << label;
    EXPECT_EQ(ToVector(got.by_target), ToVector(want.by_target)) << label;
    EXPECT_EQ(ToVector(got.target_offset), ToVector(want.target_offset))
        << label;
  }
  return spliced;
}

bool Shares(const LabelIndex& child, const SpliceParent& parent, char label) {
  return !child.Facts(label).empty() &&
         child.Facts(label).data() == parent.index.Facts(label).data();
}

class LabelIndexSpliceTest
    : public ::testing::TestWithParam<SpliceParent (*)()> {};

TEST_P(LabelIndexSpliceTest, NodesBeyondTheParentHorizon) {
  SpliceParent parent = GetParam()();
  LabelIndex spliced = SpliceAndCompare(parent, [](Delta* d) {
    NodeId z = d->db.AddNode();
    NodeId z2 = d->db.AddNode();
    d->db.AddFact(z, 'a', 0);
    d->db.AddFact(3, 'a', z2);
    d->db.AddFact(z2, 'c', 1);  // 'c': an entry built for fewer nodes
  });
  EXPECT_EQ(spliced.entry('a').source_offset.size(),
            static_cast<size_t>(parent.db->num_nodes() + 3));
}

TEST_P(LabelIndexSpliceTest, LabelEmptiedByRemovals) {
  SpliceParent parent = GetParam()();
  LabelIndex spliced = SpliceAndCompare(parent, [](Delta* d) {
    d->Remove(1, 'c', 4);
    d->Remove(4, 'c', 1);
  });
  EXPECT_TRUE(spliced.Facts('c').empty());
  EXPECT_TRUE(Shares(spliced, parent, 'a'));
}

TEST_P(LabelIndexSpliceTest, LabelNewInTheDelta) {
  SpliceParent parent = GetParam()();
  LabelIndex spliced = SpliceAndCompare(parent, [](Delta* d) {
    d->db.AddFact(2, 'd', 3);
    d->db.AddFact(0, 'd', 2);
  });
  EXPECT_EQ(spliced.Facts('d').size(), 2u);
}

TEST_P(LabelIndexSpliceTest, AddThenRemoveInOneBatch) {
  SpliceParent parent = GetParam()();
  LabelIndex spliced = SpliceAndCompare(parent, [](Delta* d) {
    d->db.AddFact(1, 'b', 3);
    d->Remove(1, 'b', 3);
    d->db.AddFact(2, 'f', 2);  // a label that never becomes live
    d->Remove(2, 'f', 2);
  });
  // Nothing live changed: every entry is the parent's.
  EXPECT_TRUE(Shares(spliced, parent, 'b'));
  EXPECT_TRUE(spliced.Facts('f').empty());
  EXPECT_EQ(static_cast<size_t>(spliced.shared_labels()),
            parent.index.labels().size());
}

TEST_P(LabelIndexSpliceTest, RemoveThenReAddABaseFact) {
  SpliceParent parent = GetParam()();
  SpliceAndCompare(parent, [](Delta* d) {
    d->Remove(0, 'a', 1);
    d->db.AddFact(0, 'a', 1);  // a new id past every parent id
  });
}

TEST_P(LabelIndexSpliceTest, RemovalsAtNodeZeroAndTheLastNode) {
  SpliceParent parent = GetParam()();
  const NodeId last = parent.db->num_nodes() - 1;
  SpliceAndCompare(parent, [last](Delta* d) {
    d->RemoveFirst([](const Fact& f) { return f.source == 0; });
    d->RemoveFirst([](const Fact& f) { return f.target == 0; });
    d->RemoveFirst([last](const Fact& f) { return f.source == last; });
    d->RemoveFirst([last](const Fact& f) { return f.target == last; });
  });
}

TEST_P(LabelIndexSpliceTest, MultiplicityBumpSharesTheParentEntry) {
  SpliceParent parent = GetParam()();
  LabelIndex spliced = SpliceAndCompare(
      parent, [](Delta* d) { d->db.AddFact(0, 'a', 1, /*multiplicity=*/4); });
  EXPECT_TRUE(Shares(spliced, parent, 'a'));
  EXPECT_EQ(static_cast<size_t>(spliced.shared_labels()),
            parent.index.labels().size());
}

TEST_P(LabelIndexSpliceTest, EveryCaseInOneBatch) {
  SpliceParent parent = GetParam()();
  const NodeId last = parent.db->num_nodes() - 1;
  SpliceAndCompare(parent, [last](Delta* d) {
    d->RemoveFirst([](const Fact& f) { return f.source == 0; });
    d->RemoveFirst([last](const Fact& f) { return f.target == last; });
    NodeId z = d->db.AddNode();
    d->db.AddFact(z, 'a', 0);
    d->db.AddFact(z, 'c', z);
    d->Remove(1, 'c', 4);
    d->Remove(4, 'c', 1);
    d->db.AddFact(2, 'd', 3);
    d->db.AddFact(1, 'b', 3);
    d->Remove(1, 'b', 3);
    d->Remove(1, 'a', 2);
    d->db.AddFact(1, 'a', 2);
    d->db.AddFact(5, 'a', 0, /*multiplicity=*/2);
  });
}

INSTANTIATE_TEST_SUITE_P(
    Parents, LabelIndexSpliceTest,
    ::testing::Values(&FlatParent, &OverlayParent, &MappedParent),
    [](const ::testing::TestParamInfo<SpliceParent (*)()>& info) {
      return std::string(info.index == 0   ? "Flat"
                         : info.index == 1 ? "OverlayOverOverlay"
                                           : "Mapped");
    });

}  // namespace
}  // namespace rpqres
