// perfbench — shared measurement machinery: allocation counters, the
// drift probe, calibrated sample series, benchmark-owned spans, and the
// metric sink that prints the final result line.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "util/rng.h"

namespace perfbench {

// ---------------------------------------------------------------------------
// Allocation counters (alloc_counter.cc overrides global operator new).
// ---------------------------------------------------------------------------

/// Heap allocations made by the calling thread since it started.
int64_t AllocsThisThread();

/// Peak resident set size of this process, in MB (getrusage ru_maxrss).
double PeakRssMb();

/// CPU time the hypervisor gave other guests while this machine's vCPUs
/// wanted to run (the "steal" column of /proc/stat), in seconds summed
/// over all vCPUs; 0 where the kernel does not report it.
double StealSeconds();

// ---------------------------------------------------------------------------
// Clock helpers.
// ---------------------------------------------------------------------------

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double MicrosBetween(int64_t start_ns, int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) / 1000.0;
}

// ---------------------------------------------------------------------------
// Drift calibration.
//
// The probe is a warmed pointer chase over a 64 KB ring. It calls no
// library code, so its time moves only with the machine (frequency, cache
// pressure from neighbours), never with the program under test. A sample
// is always the wall time the caller waited; calibrated, it is scaled by
// kNominalProbeNs / (mean of the probes before and after its window).
// ---------------------------------------------------------------------------

/// Nanoseconds per chase step on the reference machine (see NOTES.md).
inline constexpr double kNominalProbeNs = 4.0;

/// CPU time of the calling thread, in ns (a diagnostic only: it sees no
/// work on other threads and no waiting).
int64_t ThreadCpuNs();

class DriftProbe {
 public:
  DriftProbe();
  /// ns per step on the calling thread: median of five warmed chases.
  double Measure();

 private:
  double ChaseOnce(int steps);
  std::vector<uint64_t> ring_;
  uint64_t sink_ = 0;
};

/// A series of timed samples collected between drift probes.
class Series {
 public:
  /// `value` is the wall time the caller waited. `cpu`, where given, is
  /// the calling thread's CPU time over the same call, in the same unit;
  /// it is kept for the diagnostics and never gated.
  void Add(double value, double cpu = -1) {
    pending_.push_back(value);
    if (cpu >= 0) cpu_.push_back(cpu);
  }
  /// Moves pending samples into the series, calibrated with `factor`, and
  /// closes the window they belong to.
  void Close(double factor);
  const std::vector<double>& raw() const { return raw_; }
  const std::vector<double>& calibrated() const { return calibrated_; }
  const std::vector<double>& cpu() const { return cpu_; }
  /// Samples per closed window.
  const std::vector<size_t>& window_sizes() const { return window_sizes_; }
  size_t size() const { return raw_.size(); }

 private:
  std::vector<double> pending_;
  std::vector<size_t> window_sizes_;
  std::vector<double> raw_;
  std::vector<double> calibrated_;
  std::vector<double> cpu_;
};

/// Runs the probe at window boundaries and closes every attached series
/// with the window's factor. Also keeps each window's wall time for
/// throughput metrics.
class Calibrator {
 public:
  explicit Calibrator(DriftProbe* probe) : probe_(probe) {}
  void Attach(Series* series) { series_.push_back(series); }
  /// Probes and opens the first window.
  void Start();
  /// Ends the current window: probes, closes the series, and opens the
  /// next window. Time spent probing is excluded from the window's wall.
  void Window();
  const std::vector<double>& probes() const { return probes_; }
  /// Samples of `counted` per second of wall time: {raw, calibrated}, the
  /// median over `stretches` equal runs of consecutive windows. The
  /// calibrated rate scales each window's wall time with its factor.
  std::pair<double, double> MedianRate(const Series& counted, int stretches) const;

 private:
  DriftProbe* probe_;
  std::vector<Series*> series_;
  std::vector<double> probes_;
  int64_t window_start_ns_ = 0;
  std::vector<double> window_wall_s_;
  std::vector<double> window_factors_;
};

double Percentile(std::vector<double> values, double pct);
/// Robust percentile: `values` (in time order) is cut into equal
/// contiguous segments, as many as `max_segments` while each keeps at
/// least `min_per_segment` samples; the result is the median of the
/// segments' percentiles, so one noisy stretch of a run moves it little.
double SegmentedPercentile(const std::vector<double>& values, double pct,
                           int max_segments, size_t min_per_segment);
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

// ---------------------------------------------------------------------------
// Benchmark-owned spans (traced run only).
// ---------------------------------------------------------------------------

/// Time the engine spent on one request: the top-level spans of its
/// trace context (the request itself plus the plan lookup beside it).
double EngineMicros(const rpqres::obs::TraceContext& trace);

/// One recorded span: name, start, end, parent span and request id.
struct SpanRecord {
  int name = 0;        ///< index into SpanStore::names()
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;  ///< index into SpanStore::spans(), -1 for roots
  int64_t request = 0;
};

/// In-memory span store, written out once when the run ends.
class SpanStore {
 public:
  int NameId(const std::string& name);
  int64_t Add(int name, int64_t start_ns, int64_t end_ns, int64_t parent,
              int64_t request);
  /// Imports the spans of one library trace context as children of
  /// `parent`, given the context's epoch on the steady clock.
  void Import(const rpqres::obs::TraceContext& trace, int64_t epoch_ns,
              int64_t parent, int64_t request);
  /// Self time per span name (duration minus the time its children
  /// cover), summed over every span whose root has name `root_name`.
  std::map<std::string, double> SelfMicrosByName(
      const std::string& root_name, int64_t* roots) const;
  /// Writes "request,parent,name,start_ns,end_ns" lines.
  bool WriteCsv(const std::string& path) const;

 private:
  std::vector<std::string> names_;
  std::map<std::string, int> ids_;
  /// NameId of each library span kind, filled on first use.
  std::vector<int> kind_ids_;
  std::vector<SpanRecord> spans_;
};

// ---------------------------------------------------------------------------
// Result sink.
// ---------------------------------------------------------------------------

/// One run's outputs: the gated metrics for the final line, plus
/// diagnostics (raw values, probe times, checksums) written alongside.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  void Diagnostic(const std::string& name, double value);
  void Note(const std::string& name, const std::string& value);
  /// Records a time metric. Both forms go to the diagnostics; the gated
  /// metric uses the calibrated value iff `calibrate`.
  void TimeMetric(const std::string& name, double raw, double calibrated,
                  const std::string& unit, bool calibrate);

  void Attempt(int64_t n = 1) { attempted_ += n; }
  void Fail(const std::string& what);
  /// A verification mismatch: counted as failed and makes the run exit
  /// non-zero.
  void Mismatch(const std::string& what);

  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }
  bool mismatched() const { return mismatches_ > 0; }

  std::string ResultLine() const;
  std::string DiagnosticsJson() const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
  std::vector<std::pair<std::string, double>> diagnostics_;
  std::vector<std::pair<std::string, std::string>> notes_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  int64_t mismatches_ = 0;
  int64_t failure_lines_ = 0;
};

std::string JsonNumber(double value);
std::string JsonString(const std::string& value);

/// Mixes a run seed with a stream tag, so independent draws of one run
/// never share an Rng stream.
uint64_t MixSeed(uint64_t seed, uint64_t tag);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
