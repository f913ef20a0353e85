// Unit tests for the storage layer's two file formats: mmap-able base
// segments (storage/segment.h) and per-lineage delta journals
// (storage/journal.h). Round trips, checksum/corruption detection, and
// the torn-tail rule — the registry-level crash-recovery sweep lives in
// storage_recovery_test.cc.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "graphdb/graph_db.h"
#include "graphdb/label_index.h"
#include "graphdb/serialization.h"
#include "storage/journal.h"
#include "storage/segment.h"
#include "storage/xxhash64.h"

namespace rpqres {
namespace storage {
namespace {

std::string TempPath(const std::string& stem) {
  return (std::filesystem::temp_directory_path() /
          (stem + "_" + std::to_string(::getpid())))
      .string();
}

GraphDb SampleDb() {
  GraphDb db;
  NodeId a = db.AddNode("alpha");
  NodeId b = db.AddNode("beta");
  NodeId c = db.AddNode();  // generated name
  NodeId d = db.AddNode("delta");
  db.AddFact(a, 'x', b, 3);
  db.AddFact(b, 'y', c);
  db.AddFact(c, 'x', a, 7);
  FactId f = db.AddFact(c, 'z', d);
  db.AddFact(d, 'y', a, 2);
  db.SetExogenous(f);
  return db;
}

std::vector<FactId> ToVector(std::span<const FactId> span) {
  return std::vector<FactId>(span.begin(), span.end());
}

TEST(SegmentTest, RoundTripsDbAndIndex) {
  const std::string path = TempPath("seg_roundtrip");
  GraphDb db = SampleDb();
  SegmentMeta meta;
  meta.lineage = 42;
  meta.version = 7;
  meta.snapshot_id = 99;
  meta.name = "sample";
  int64_t bytes = 0;
  ASSERT_TRUE(WriteSegment(path, db, meta, &bytes).ok());
  EXPECT_GT(bytes, 0);

  Result<LoadedSegment> loaded = ReadSegment(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->meta.lineage, 42u);
  EXPECT_EQ(loaded->meta.version, 7u);
  EXPECT_EQ(loaded->meta.snapshot_id, 99u);
  EXPECT_EQ(loaded->meta.name, "sample");
  EXPECT_EQ(loaded->file_bytes, bytes);
  EXPECT_TRUE(loaded->db.is_mapped());

  // Content equality, down to node names and multiplicities.
  EXPECT_EQ(SerializeGraphDb(loaded->db), SerializeGraphDb(db));
  ASSERT_EQ(loaded->db.num_nodes(), db.num_nodes());
  // An index built over the mapped fact arrays has the same per-node facts.
  const LabelIndex mapped_index(loaded->db);
  const LabelIndex heap_index(db);
  ASSERT_EQ(mapped_index.labels(), heap_index.labels());
  for (NodeId v = 0; v < db.num_nodes(); ++v) {
    EXPECT_EQ(loaded->db.node_name(v), db.node_name(v));
    for (char label : heap_index.labels()) {
      EXPECT_EQ(ToVector(mapped_index.FactsFrom(label, v)),
                ToVector(heap_index.FactsFrom(label, v)));
      EXPECT_EQ(ToVector(mapped_index.FactsInto(label, v)),
                ToVector(heap_index.FactsInto(label, v)));
    }
  }
  ASSERT_EQ(loaded->db.num_facts(), db.num_facts());
  for (FactId f = 0; f < db.num_facts(); ++f) {
    EXPECT_EQ(loaded->db.fact(f).source, db.fact(f).source);
    EXPECT_EQ(loaded->db.fact(f).label, db.fact(f).label);
    EXPECT_EQ(loaded->db.fact(f).target, db.fact(f).target);
    EXPECT_EQ(loaded->db.multiplicity(f), db.multiplicity(f));
    EXPECT_EQ(loaded->db.IsExogenous(f), db.IsExogenous(f));
  }
  EXPECT_EQ(loaded->db.FindFact(2, 'x', 0), db.FindFact(2, 'x', 0));
  EXPECT_EQ(loaded->db.FindFact(0, 'q', 1), db.FindFact(0, 'q', 1));

  // The mapped label index matches a full rebuild span for span.
  LabelIndex rebuilt(db);
  ASSERT_EQ(loaded->label_index.labels(), rebuilt.labels());
  for (char label : rebuilt.labels()) {
    EXPECT_EQ(ToVector(loaded->label_index.Facts(label)),
              ToVector(rebuilt.Facts(label)));
    for (NodeId v = 0; v < db.num_nodes(); ++v) {
      EXPECT_EQ(ToVector(loaded->label_index.FactsFrom(label, v)),
                ToVector(rebuilt.FactsFrom(label, v)));
      EXPECT_EQ(ToVector(loaded->label_index.FactsInto(label, v)),
                ToVector(rebuilt.FactsInto(label, v)));
    }
  }
  std::filesystem::remove(path);
}

TEST(SegmentTest, MappedDbIsImmutableButCopyable) {
  const std::string path = TempPath("seg_immutable");
  GraphDb db = SampleDb();
  SegmentMeta meta;
  meta.lineage = 1;
  ASSERT_TRUE(WriteSegment(path, db, meta).ok());
  Result<LoadedSegment> loaded = ReadSegment(path);
  ASSERT_TRUE(loaded.ok());
  // An overlay over a mapped base is the normal delta-commit path.
  auto base = std::make_shared<GraphDb>(loaded->db);
  GraphDb overlay =
      GraphDb::MakeOverlay(std::shared_ptr<const GraphDb>(base, base.get()));
  NodeId n = overlay.AddNode("extra");
  overlay.AddFact(0, 'w', n);
  EXPECT_EQ(overlay.num_facts(), db.num_facts() + 1);
  EXPECT_EQ(overlay.num_nodes(), db.num_nodes() + 1);
  std::filesystem::remove(path);
}

TEST(SegmentTest, RejectsNonFlatDatabases) {
  const std::string path = TempPath("seg_nonflat");
  auto base = std::make_shared<GraphDb>(SampleDb());
  GraphDb overlay =
      GraphDb::MakeOverlay(std::shared_ptr<const GraphDb>(base, base.get()));
  SegmentMeta meta;
  Status status = WriteSegment(path, overlay, meta);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(SegmentTest, DetectsCorruptionAnywhere) {
  const std::string path = TempPath("seg_corrupt");
  GraphDb db = SampleDb();
  SegmentMeta meta;
  meta.lineage = 3;
  int64_t bytes = 0;
  ASSERT_TRUE(WriteSegment(path, db, meta, &bytes).ok());
  std::string file;
  {
    std::ifstream in(path, std::ios::binary);
    file.assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
  }
  ASSERT_EQ(static_cast<int64_t>(file.size()), bytes);
  // Flip one byte at a spread of offsets: header, table, and sections.
  for (size_t offset : {size_t{0}, size_t{8}, size_t{70},
                        file.size() / 2, file.size() - 1}) {
    std::string mutated = file;
    mutated[offset] ^= 0x40;
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(mutated.data(), static_cast<std::streamsize>(mutated.size()));
    }
    Result<LoadedSegment> loaded = ReadSegment(path);
    EXPECT_FALSE(loaded.ok()) << "byte " << offset << " flip went unnoticed";
    if (!loaded.ok()) {
      EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss)
          << loaded.status().ToString();
    }
  }
  // Truncation at any point is also data loss (or NotFound for empty).
  for (size_t keep : {size_t{0}, size_t{13}, size_t{64}, file.size() - 7}) {
    std::string truncated = file.substr(0, keep);
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(truncated.data(),
                static_cast<std::streamsize>(truncated.size()));
    }
    Result<LoadedSegment> loaded = ReadSegment(path);
    EXPECT_FALSE(loaded.ok()) << "truncation to " << keep << " loaded";
  }
  std::filesystem::remove(path);
}

TEST(SegmentTest, MissingFileIsNotDataLoss) {
  Result<LoadedSegment> loaded = ReadSegment(TempPath("seg_never_written"));
  EXPECT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().code(), StatusCode::kDataLoss);
}

// Every fact section of a database without facts is empty; writing one
// must not hand a null buffer to memcpy.
TEST(SegmentTest, EmptyDatabaseRoundTrips) {
  const std::string path = TempPath("seg_empty");
  GraphDb db;
  db.AddNode("left");
  db.AddNode("right");
  SegmentMeta meta;
  meta.lineage = 5;
  meta.name = "empty";
  ASSERT_TRUE(WriteSegment(path, db, meta).ok());
  Result<LoadedSegment> loaded = ReadSegment(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->db.num_nodes(), 2);
  EXPECT_EQ(loaded->db.num_facts(), 0);
  EXPECT_EQ(loaded->db.node_name(0), "left");
  EXPECT_EQ(loaded->db.node_name(1), "right");
  EXPECT_TRUE(loaded->label_index.labels().empty());
  EXPECT_EQ(SerializeGraphDb(loaded->db), SerializeGraphDb(db));
  std::filesystem::remove(path);
}

// The segment format is the on-disk contract: one fixed database must
// keep producing the same bytes. The database has several labels,
// exogenous facts, multiplicities above 1 and a node without facts.
TEST(SegmentTest, FormatIsPinned) {
  const std::string path = TempPath("seg_pinned");
  GraphDb db;
  NodeId a = db.AddNode("a");
  NodeId b = db.AddNode("b");
  NodeId c = db.AddNode("c");
  db.AddNode("isolated");
  NodeId e = db.AddNode("e");
  db.AddFact(a, 'r', b, 4);
  db.AddFact(b, 's', c);
  db.AddFact(c, 'r', a, 2);
  db.SetExogenous(db.AddFact(a, 't', e));
  db.AddFact(e, 's', b, 9);
  db.AddFact(b, 'r', e);
  db.SetExogenous(db.AddFact(c, 'u', c, 3));
  db.AddFact(e, 't', a);
  SegmentMeta meta;
  meta.lineage = 11;
  meta.version = 2;
  meta.snapshot_id = 17;
  meta.name = "pinned";
  ASSERT_TRUE(WriteSegment(path, db, meta).ok());
  std::string file;
  {
    std::ifstream in(path, std::ios::binary);
    file.assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
  }
  EXPECT_EQ(file.size(), size_t{1920});
  EXPECT_EQ(XxHash64(file.data(), file.size()), uint64_t{0x5b6881a455e88f41});
  std::filesystem::remove(path);
}

TEST(JournalTest, AppendsAndReadsGroups) {
  const std::string path = TempPath("journal_roundtrip");
  std::filesystem::remove(path);
  Result<JournalWriter> writer = JournalWriter::Open(path, 5);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();

  std::vector<JournalOp> group;
  JournalOp begin;
  begin.type = JournalOp::Type::kBegin;
  begin.version = 1;
  group.push_back(begin);
  JournalOp add_node;
  add_node.type = JournalOp::Type::kAddNode;
  add_node.name = "fresh";
  group.push_back(add_node);
  JournalOp add_fact;
  add_fact.type = JournalOp::Type::kAddFact;
  add_fact.source = 0;
  add_fact.target = 1;
  add_fact.label = 'q';
  add_fact.multiplicity = 4;
  group.push_back(add_fact);
  JournalOp remove_fact;
  remove_fact.type = JournalOp::Type::kRemoveFact;
  remove_fact.source = 1;
  remove_fact.target = 2;
  remove_fact.label = 'r';
  group.push_back(remove_fact);
  JournalOp commit;
  commit.type = JournalOp::Type::kCommit;
  commit.version = 2;
  commit.snapshot_id = 17;
  group.push_back(commit);
  ASSERT_TRUE(writer->Append(group).ok());

  JournalOp drop;
  drop.type = JournalOp::Type::kDropVersion;
  drop.version = 1;
  ASSERT_TRUE(writer->Append({drop}).ok());
  EXPECT_EQ(writer->records(), 6);

  Result<JournalContents> contents = ReadJournal(path, 5);
  ASSERT_TRUE(contents.ok()) << contents.status().ToString();
  EXPECT_EQ(contents->lineage, 5u);
  EXPECT_EQ(contents->records, 6);
  ASSERT_EQ(contents->groups.size(), 2u);
  const JournalGroup& g = contents->groups[0];
  EXPECT_FALSE(g.is_drop);
  EXPECT_EQ(g.parent_version, 1u);
  EXPECT_EQ(g.commit_version, 2u);
  EXPECT_EQ(g.snapshot_id, 17u);
  ASSERT_EQ(g.ops.size(), 3u);
  EXPECT_EQ(g.ops[0].type, JournalOp::Type::kAddNode);
  EXPECT_EQ(g.ops[0].name, "fresh");
  EXPECT_EQ(g.ops[1].type, JournalOp::Type::kAddFact);
  EXPECT_EQ(g.ops[1].source, 0);
  EXPECT_EQ(g.ops[1].target, 1);
  EXPECT_EQ(g.ops[1].label, 'q');
  EXPECT_EQ(g.ops[1].multiplicity, 4);
  EXPECT_EQ(g.ops[2].type, JournalOp::Type::kRemoveFact);
  EXPECT_TRUE(contents->groups[1].is_drop);
  EXPECT_EQ(contents->groups[1].drop_version, 1u);
  std::filesystem::remove(path);
}

TEST(JournalTest, LineageMismatchIsDataLoss) {
  const std::string path = TempPath("journal_lineage");
  std::filesystem::remove(path);
  ASSERT_TRUE(JournalWriter::Open(path, 5).ok());
  Result<JournalContents> contents = ReadJournal(path, 6);
  EXPECT_FALSE(contents.ok());
  EXPECT_EQ(contents.status().code(), StatusCode::kDataLoss);
  Result<JournalWriter> writer = JournalWriter::Open(path, 6);
  EXPECT_FALSE(writer.ok());
  std::filesystem::remove(path);
}

TEST(JournalTest, TornTailRollsBackToLastCommit) {
  const std::string path = TempPath("journal_torn");
  std::filesystem::remove(path);
  Result<JournalWriter> writer = JournalWriter::Open(path, 9);
  ASSERT_TRUE(writer.ok());
  auto make_group = [](uint32_t parent, uint32_t version) {
    std::vector<JournalOp> group;
    JournalOp begin;
    begin.type = JournalOp::Type::kBegin;
    begin.version = parent;
    group.push_back(begin);
    JournalOp add;
    add.type = JournalOp::Type::kAddFact;
    add.source = 0;
    add.target = 1;
    add.label = 'a';
    group.push_back(add);
    JournalOp commit;
    commit.type = JournalOp::Type::kCommit;
    commit.version = version;
    commit.snapshot_id = version;
    group.push_back(commit);
    return group;
  };
  ASSERT_TRUE(writer->Append(make_group(1, 2)).ok());
  const int64_t after_first = writer->bytes();
  ASSERT_TRUE(writer->Append(make_group(2, 3)).ok());
  const int64_t full = writer->bytes();

  std::string file;
  {
    std::ifstream in(path, std::ios::binary);
    file.assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
  }
  ASSERT_EQ(static_cast<int64_t>(file.size()), full);
  // Truncating anywhere inside the second group rolls back to the first:
  // its Commit record is gone, so none of it counts.
  for (int64_t keep = after_first; keep < full; ++keep) {
    std::string truncated = file.substr(0, static_cast<size_t>(keep));
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(truncated.data(),
                static_cast<std::streamsize>(truncated.size()));
    }
    Result<JournalContents> contents = ReadJournal(path, 9);
    ASSERT_TRUE(contents.ok()) << contents.status().ToString();
    EXPECT_EQ(contents->valid_bytes, after_first) << "keep=" << keep;
    ASSERT_EQ(contents->groups.size(), 1u) << "keep=" << keep;
    EXPECT_EQ(contents->groups[0].commit_version, 2u);
  }
  // A corrupt byte inside the second group has the same effect.
  {
    std::string mutated = file;
    mutated[static_cast<size_t>(after_first) + 14] ^= 0x01;
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(mutated.data(), static_cast<std::streamsize>(mutated.size()));
  }
  Result<JournalContents> contents = ReadJournal(path, 9);
  ASSERT_TRUE(contents.ok());
  EXPECT_EQ(contents->valid_bytes, after_first);
  ASSERT_EQ(contents->groups.size(), 1u);

  // Reopening at valid_bytes chops the tail and appending works again.
  Result<JournalWriter> reopened =
      JournalWriter::Open(path, 9, contents->valid_bytes, contents->records);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened->bytes(), after_first);
  ASSERT_TRUE(reopened->Append(make_group(2, 3)).ok());
  Result<JournalContents> reread = ReadJournal(path, 9);
  ASSERT_TRUE(reread.ok());
  EXPECT_EQ(reread->groups.size(), 2u);
  std::filesystem::remove(path);
}

TEST(JournalTest, ResetTruncatesToHeader) {
  const std::string path = TempPath("journal_reset");
  std::filesystem::remove(path);
  Result<JournalWriter> writer = JournalWriter::Open(path, 4);
  ASSERT_TRUE(writer.ok());
  JournalOp drop;
  drop.type = JournalOp::Type::kDropVersion;
  drop.version = 1;
  ASSERT_TRUE(writer->Append({drop}).ok());
  ASSERT_TRUE(writer->Reset().ok());
  EXPECT_EQ(writer->records(), 0);
  Result<JournalContents> contents = ReadJournal(path, 4);
  ASSERT_TRUE(contents.ok());
  EXPECT_TRUE(contents->groups.empty());
  std::filesystem::remove(path);
}

TEST(XxHashTest, MatchesReferenceVectors) {
  // Reference values from the canonical xxHash implementation.
  EXPECT_EQ(XxHash64(nullptr, 0), 0xef46db3751d8e999ULL);
  const char kAbc[] = "abc";
  EXPECT_EQ(XxHash64(kAbc, 3), 0x44bc2cf5ad770999ULL);
  const char kLong[] = "xxhash is a fast non-cryptographic hash";
  EXPECT_NE(XxHash64(kLong, sizeof(kLong) - 1),
            XxHash64(kLong, sizeof(kLong) - 2));
}

}  // namespace
}  // namespace storage
}  // namespace rpqres
