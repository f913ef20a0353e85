// rpqres — obs/slow_query_log: bounded ring buffer of slow requests.
//
// A request lands here when its wall time crosses the engine's
// slow-query threshold OR it ends DeadlineExceeded/Cancelled — exactly
// the requests an operator needs the full span tree for. The ring keeps
// the most recent `capacity` records under a mutex; pushing happens only
// on the slow path, so the cost never touches healthy requests.

#ifndef RPQRES_OBS_SLOW_QUERY_LOG_H_
#define RPQRES_OBS_SLOW_QUERY_LOG_H_

#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "util/sync.h"
#include "util/thread_annotations.h"

namespace rpqres::obs {

/// Everything retained about one slow request. Plain strings and
/// integers so obs stays independent of engine types.
struct SlowQueryRecord {
  uint64_t sequence = 0;  ///< monotone, assigned by the log
  std::string regex;
  std::string semantics;   ///< "bag" | "set"
  std::string status;      ///< "ok" | "error" | "deadline_exceeded" | "cancelled"
  std::string algorithm;   ///< solver that ran (may be empty on error)
  uint64_t lineage = 0;    ///< registry lineage id (0 = unregistered db)
  uint64_t version = 0;
  int64_t compile_micros = 0;
  int64_t solve_micros = 0;
  int64_t total_micros = 0;
  int64_t network_vertices = 0;
  int64_t network_edges = 0;
  uint64_t search_nodes = 0;
  int spans_dropped = 0;
  std::vector<TraceSpan> spans;  ///< copy of the request's span tree
};

/// Fixed-capacity ring of SlowQueryRecords, oldest evicted first.
class SlowQueryLog {
 public:
  explicit SlowQueryLog(size_t capacity) : capacity_(capacity) {
    ring_.reserve(capacity_);
  }

  /// Stores `record` (assigning its sequence), evicting the oldest entry
  /// once the ring is full. No-op when capacity is 0.
  void Push(SlowQueryRecord record) RPQRES_EXCLUDES(mu_);

  /// All retained records, oldest first.
  std::vector<SlowQueryRecord> Dump() const RPQRES_EXCLUDES(mu_);

  size_t size() const RPQRES_EXCLUDES(mu_);
  size_t capacity() const { return capacity_; }
  /// Total records ever pushed, including those the ring evicted.
  uint64_t total_recorded() const RPQRES_EXCLUDES(mu_);

  void Clear() RPQRES_EXCLUDES(mu_);

 private:
  mutable rpqres::Mutex mu_;
  const size_t capacity_;
  uint64_t next_sequence_ RPQRES_GUARDED_BY(mu_) = 1;
  std::vector<SlowQueryRecord> ring_ RPQRES_GUARDED_BY(mu_);
  /// Next overwrite position once the ring is full.
  size_t head_ RPQRES_GUARDED_BY(mu_) = 0;
};

}  // namespace rpqres::obs

#endif  // RPQRES_OBS_SLOW_QUERY_LOG_H_
