// rpqres — storage/segment: the on-disk snapshot segment format.
//
// One segment file holds one *flat* database snapshot — the node table,
// name dictionary, dense fact arrays, and the per-(label, node) CSR
// spans of its LabelIndex — in exactly the little-endian layouts the
// in-memory flat structures use, in the spirit of RDF-3X's paged fact /
// dictionary segments. Format v1 also carries a per-node CSR of all
// facts (by source and by target); it is kept for the format only —
// written, size- and checksum-validated, never mapped — and can go with
// a format version that still restores v1 files. Because the byte layout matches the memory
// layout, SegmentReader can mmap the file and hand the arrays to
// GraphDb::FromMappedFlat / LabelIndex::FromMapped with zero parse and
// no copy of the fact arrays; only the node-name dictionary is
// materialized.
//
// File layout (all integers little-endian):
//
//   [0,  64)  header: magic "RPQSEG01", format version, section count,
//             lineage / version / snapshot id, node and fact counts,
//             XXH64 of the section table, XXH64 of the header itself.
//   [64, ..)  section table: one 32-byte entry per section
//             {kind, offset, size, XXH64 checksum}.
//   ...       sections, each 64-byte aligned, zero-padded between.
//
// Torn or corrupt files are detected by the checksums and reported as
// kDataLoss; a segment is only ever published via temp file + fsync +
// atomic rename, so a crash mid-write leaves the previous segment (or
// nothing) in place, never a half-written one.

#ifndef RPQRES_STORAGE_SEGMENT_H_
#define RPQRES_STORAGE_SEGMENT_H_

#include <cstdint>
#include <string>

#include "graphdb/graph_db.h"
#include "graphdb/label_index.h"
#include "util/status.h"

namespace rpqres {
namespace storage {

/// Registry identity of the snapshot a segment stores.
struct SegmentMeta {
  uint64_t lineage = 0;
  uint32_t version = 1;
  uint64_t snapshot_id = 0;
  std::string name;  ///< lineage display name ("" when unnamed)
};

/// A segment opened by ReadSegment: a mapped GraphDb + LabelIndex view
/// over the file's arrays (both keep the mapping alive), plus the
/// snapshot identity and the mapped size.
struct LoadedSegment {
  GraphDb db;
  LabelIndex label_index;
  SegmentMeta meta;
  int64_t file_bytes = 0;
};

/// Serializes the flat, all-live database `db` (and the per-label CSR
/// arrays equivalent to its LabelIndex) to `path` via temp file + fsync +
/// atomic rename. `db` must not be versioned or mapped-overlay state —
/// compact first. On success `*bytes_written` (optional) receives the
/// final file size.
Status WriteSegment(const std::string& path, const GraphDb& db,
                    const SegmentMeta& meta, int64_t* bytes_written = nullptr);

/// The same, writing the entries of `index`, which must be a full
/// LabelIndex(db) (a DbRegistry snapshot's index of a flat database is
/// one), so the file is byte-identical and the writer builds no index.
Status WriteSegment(const std::string& path, const GraphDb& db,
                    const LabelIndex& index, const SegmentMeta& meta,
                    int64_t* bytes_written = nullptr);

/// Maps the segment at `path` and returns a zero-copy view of it.
/// Validates magic, format version, section table, and every section
/// checksum; corruption or truncation yields kDataLoss.
Result<LoadedSegment> ReadSegment(const std::string& path);

}  // namespace storage
}  // namespace rpqres

#endif  // RPQRES_STORAGE_SEGMENT_H_
