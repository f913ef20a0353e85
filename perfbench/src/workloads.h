// perfbench — the workloads and their shared op machinery.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>

#include "common.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Directory holding expected.txt (the benchmark's own directory).
  std::string data_dir;
  /// Scratch directory for storage, spans and diagnostics.
  std::string work_dir;
  /// Recompute the expected answers of `workload` into expected.txt.
  bool write_expected = false;
};

/// Stored answers, keyed by (workload, "lineage|regex|semantics"). The
/// corpora are fixed, and commits only touch noise labels no query reads,
/// so one answer per key holds at every version of every run.
class Expected {
 public:
  bool Load(const std::string& path);
  bool Save(const std::string& path) const;
  /// Returns false when the key is absent.
  bool Get(const std::string& workload, const std::string& key,
           int64_t* value) const;
  void Set(const std::string& workload, const std::string& key, int64_t value);
  void Clear(const std::string& workload);

 private:
  std::map<std::string, std::map<std::string, int64_t>> values_;
};

/// Runs the workload named in `options` and fills `report`. Returns the
/// process exit code.
int RunWorkload(const Options& options, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
