#include "common.h"

#include <time.h>
#include <unistd.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <sstream>

namespace perfbench {

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KB
}

int64_t ThreadCpuNs() {
  struct timespec ts {};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

double StealSeconds() {
  FILE* stat = std::fopen("/proc/stat", "r");
  if (stat == nullptr) return 0;
  unsigned long long v[8] = {};
  const int n = std::fscanf(stat, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                            &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]);
  std::fclose(stat);
  if (n < 8) return 0;
  return static_cast<double>(v[7]) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

uint64_t MixSeed(uint64_t seed, uint64_t tag) {
  rpqres::Rng rng(seed ^ (tag * 0x9e3779b97f4a7c15ULL));
  return rng.Next();
}

// ---------------------------------------------------------------------------
// Drift probe.
// ---------------------------------------------------------------------------

namespace {
constexpr int kRingSlots = 64 * 1024 / sizeof(uint64_t);
constexpr int kChaseSteps = 100'000;
constexpr int kChaseReps = 5;
}  // namespace

DriftProbe::DriftProbe() : ring_(kRingSlots) {
  // One random cycle through every slot (Sattolo), so the chase visits the
  // whole ring in an order the prefetcher cannot follow.
  std::vector<uint64_t> order(kRingSlots);
  std::iota(order.begin(), order.end(), 0);
  rpqres::Rng rng(0x5eed);
  for (int i = kRingSlots - 1; i > 0; --i) {
    std::swap(order[i], order[rng.NextBelow(static_cast<uint64_t>(i))]);
  }
  for (int i = 0; i < kRingSlots; ++i) {
    ring_[order[i]] = order[(i + 1) % kRingSlots];
  }
}

double DriftProbe::ChaseOnce(int steps) {
  uint64_t index = sink_ % kRingSlots;
  const int64_t start = NowNs();
  for (int i = 0; i < steps; ++i) index = ring_[index];
  const int64_t end = NowNs();
  sink_ += index;
  return static_cast<double>(end - start) / steps;
}

double DriftProbe::Measure() {
  ChaseOnce(kRingSlots);  // warm the ring into cache
  std::vector<double> reps;
  for (int rep = 0; rep < kChaseReps; ++rep) reps.push_back(ChaseOnce(kChaseSteps));
  return Median(reps);
}

void Series::Close(double factor) {
  for (double value : pending_) {
    raw_.push_back(value);
    calibrated_.push_back(value * factor);
  }
  window_sizes_.push_back(pending_.size());
  pending_.clear();
}

void Calibrator::Start() {
  probes_.push_back(probe_->Measure());
  window_start_ns_ = NowNs();
}

void Calibrator::Window() {
  const int64_t end = NowNs();
  const double before = probes_.back();
  probes_.push_back(probe_->Measure());
  const double factor = kNominalProbeNs / ((before + probes_.back()) / 2.0);
  window_wall_s_.push_back(static_cast<double>(end - window_start_ns_) / 1e9);
  window_factors_.push_back(factor);
  for (Series* series : series_) series->Close(factor);
  window_start_ns_ = NowNs();
}

std::pair<double, double> Calibrator::MedianRate(const Series& counted,
                                                 int stretches) const {
  const size_t windows = std::min(counted.window_sizes().size(), window_wall_s_.size());
  const size_t groups = std::clamp<size_t>(static_cast<size_t>(stretches), 1,
                                           std::max<size_t>(1, windows));
  std::vector<double> raw, calibrated;
  for (size_t g = 0; g < groups; ++g) {
    double samples = 0, wall_s = 0, calibrated_s = 0;
    for (size_t w = windows * g / groups; w < windows * (g + 1) / groups; ++w) {
      samples += static_cast<double>(counted.window_sizes()[w]);
      wall_s += window_wall_s_[w];
      calibrated_s += window_wall_s_[w] * window_factors_[w];
    }
    if (samples == 0 || wall_s <= 0) continue;
    raw.push_back(samples / wall_s);
    calibrated.push_back(samples / calibrated_s);
  }
  return {Median(raw), Median(calibrated)};
}

double Percentile(std::vector<double> values, double pct) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = pct / 100.0 * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(values.size() - 1, lo + 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double SegmentedPercentile(const std::vector<double>& values, double pct,
                           int max_segments, size_t min_per_segment) {
  const size_t segments = std::clamp<size_t>(
      values.size() / std::max<size_t>(1, min_per_segment), 1,
      static_cast<size_t>(max_segments));
  std::vector<double> per_segment;
  for (size_t k = 0; k < segments; ++k) {
    const size_t begin = values.size() * k / segments;
    const size_t end = values.size() * (k + 1) / segments;
    per_segment.push_back(Percentile(
        std::vector<double>(values.begin() + begin, values.begin() + end), pct));
  }
  return Median(per_segment);
}

double Median(std::vector<double> values) { return Percentile(std::move(values), 50); }

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

// ---------------------------------------------------------------------------
// Spans.
// ---------------------------------------------------------------------------

double EngineMicros(const rpqres::obs::TraceContext& trace) {
  double micros = 0;
  for (int i = 0; i < trace.size(); ++i) {
    const rpqres::obs::TraceSpan& span = trace.spans()[i];
    if (span.depth == 0 && span.duration_ns > 0) micros += span.duration_ns / 1000.0;
  }
  return micros;
}

int SpanStore::NameId(const std::string& name) {
  auto it = ids_.find(name);
  if (it != ids_.end()) return it->second;
  const int id = static_cast<int>(names_.size());
  names_.push_back(name);
  ids_.emplace(name, id);
  return id;
}

int64_t SpanStore::Add(int name, int64_t start_ns, int64_t end_ns,
                       int64_t parent, int64_t request) {
  spans_.push_back(SpanRecord{name, start_ns, end_ns, parent, request});
  return static_cast<int64_t>(spans_.size()) - 1;
}

void SpanStore::Import(const rpqres::obs::TraceContext& trace, int64_t epoch_ns,
                       int64_t parent, int64_t request) {
  // Library spans carry a nesting depth; the innermost open span of the
  // next shallower depth is the parent.
  std::vector<int64_t> open(rpqres::obs::TraceContext::kMaxDepth + 1, parent);
  for (int i = 0; i < trace.size(); ++i) {
    const rpqres::obs::TraceSpan& span = trace.spans()[i];
    if (span.duration_ns < 0) continue;
    const int depth = std::min<int>(span.depth, rpqres::obs::TraceContext::kMaxDepth - 1);
    const size_t kind = static_cast<size_t>(span.kind);
    if (kind >= kind_ids_.size()) kind_ids_.resize(kind + 1, -1);
    if (kind_ids_[kind] < 0) {
      kind_ids_[kind] = NameId(std::string(rpqres::obs::SpanKindName(span.kind)));
    }
    const int name = kind_ids_[kind];
    const int64_t start = epoch_ns + span.start_ns;
    const int64_t id = Add(name, start, start + span.duration_ns,
                           open[depth], request);
    open[depth + 1] = id;
    for (int d = depth + 2; d <= rpqres::obs::TraceContext::kMaxDepth; ++d) {
      open[d] = id;
    }
  }
}

std::map<std::string, double> SpanStore::SelfMicrosByName(
    const std::string& root_name, int64_t* roots) const {
  // Child time per span, then self = duration - child time, clamped at 0
  // (backfilled library spans can overhang their parent by a rounding
  // step). Spans are appended parent-first, so one pass suffices.
  std::vector<double> child_ns(spans_.size(), 0);
  std::vector<int64_t> root_of(spans_.size(), -1);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& span = spans_[i];
    if (span.parent < 0) {
      root_of[i] = static_cast<int64_t>(i);
    } else {
      root_of[i] = root_of[span.parent];
      child_ns[span.parent] += static_cast<double>(span.end_ns - span.start_ns);
    }
  }
  auto root_id = ids_.find(root_name);
  std::map<std::string, double> self;
  *roots = 0;
  if (root_id == ids_.end()) return self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const int64_t root = root_of[i];
    if (root < 0 || spans_[root].name != root_id->second) continue;
    if (spans_[i].parent < 0) ++*roots;
    const double duration = static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
    self[names_[spans_[i].name]] += std::max(0.0, duration - child_ns[i]) / 1000.0;
  }
  return self;
}

bool SpanStore::WriteCsv(const std::string& path) const {
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "request,parent,name,start_ns,end_ns\n");
  for (const SpanRecord& span : spans_) {
    std::fprintf(out, "%lld,%lld,%s,%lld,%lld\n",
                 static_cast<long long>(span.request),
                 static_cast<long long>(span.parent), names_[span.name].c_str(),
                 static_cast<long long>(span.start_ns),
                 static_cast<long long>(span.end_ns));
  }
  return std::fclose(out) == 0;
}

// ---------------------------------------------------------------------------
// Report.
// ---------------------------------------------------------------------------

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.10g", value);
  return buffer;
}

std::string JsonString(const std::string& value) {
  std::string out = "\"";
  for (char c : value) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buffer[8];
      std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
      out += buffer;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, {value, unit}});
}

void Report::Diagnostic(const std::string& name, double value) {
  diagnostics_.push_back({name, value});
}

void Report::Note(const std::string& name, const std::string& value) {
  notes_.push_back({name, value});
}

void Report::TimeMetric(const std::string& name, double raw, double calibrated,
                        const std::string& unit, bool calibrate) {
  Diagnostic(name + ".raw", raw);
  Diagnostic(name + ".calibrated", calibrated);
  Metric(name, calibrate ? calibrated : raw, unit);
}

void Report::Fail(const std::string& what) {
  ++failed_;
  if (++failure_lines_ <= 20) std::fprintf(stderr, "failed: %s\n", what.c_str());
}

void Report::Mismatch(const std::string& what) {
  ++mismatches_;
  Fail("MISMATCH " + what);
}

std::string Report::ResultLine() const {
  std::ostringstream out;
  out << "{\"correct\": " << (mismatches_ == 0 ? "true" : "false")
      << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    if (i > 0) out << ", ";
    out << JsonString(metrics_[i].first) << ": {\"value\": "
        << JsonNumber(metrics_[i].second.first)
        << ", \"unit\": " << JsonString(metrics_[i].second.second) << "}";
  }
  out << "}}";
  return out.str();
}

std::string Report::DiagnosticsJson() const {
  std::ostringstream out;
  out << "{\n";
  for (const auto& [key, value] : notes_) {
    out << "  " << JsonString(key) << ": " << JsonString(value) << ",\n";
  }
  for (const auto& [key, value] : diagnostics_) {
    out << "  " << JsonString(key) << ": " << JsonNumber(value) << ",\n";
  }
  out << "  \"attempted\": " << attempted_ << ",\n  \"failed\": " << failed_
      << "\n}\n";
  return out.str();
}

}  // namespace perfbench
