// perfbench — the repository's steady benchmark program.
//
//   perfbench --workload <solve_mix|commit_durable|adhoc_cold>
//             --seed <n> --seconds <s> --trace <0|1>
//             --data-dir <dir with expected.txt> --work-dir <scratch dir>
//   perfbench --workload <name> --write-expected --data-dir ... --work-dir ...
//
// Prints one JSON result line last on stdout; diagnostics (raw and
// calibrated values, probe times, machine fingerprint) go to
// <work-dir>/<workload>-<seed>[-trace].json. Exit codes: 0 ok, 1 a
// set-up or storage error, 2 bad arguments, 3 a verification mismatch.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "common.h"
#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> --data-dir <dir> --work-dir <dir> "
               "[--write-expected]\n");
  return 2;
}

bool KnownWorkload(const std::string& name) {
  return name == "solve_mix" || name == "commit_durable" || name == "adhoc_cold";
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string { return i + 1 < argc ? argv[++i] : ""; };
    if (arg == "--workload") {
      options.workload = value();
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::atoi(value().c_str());
    } else if (arg == "--trace") {
      options.trace = value() == "1";
    } else if (arg == "--data-dir") {
      options.data_dir = value();
    } else if (arg == "--work-dir") {
      options.work_dir = value();
    } else if (arg == "--write-expected") {
      options.write_expected = true;
    } else {
      return Usage();
    }
  }
  if (!KnownWorkload(options.workload) || options.seconds < 1 ||
      options.data_dir.empty() || options.work_dir.empty()) {
    return Usage();
  }

  perfbench::Report report;
  report.Note("workload", options.workload);
  report.Note("seed", std::to_string(options.seed));
  report.Note("trace", options.trace ? "1" : "0");
  report.Note("fingerprint.compiler", PERFBENCH_COMPILER);
  report.Note("fingerprint.build_type", PERFBENCH_BUILD_TYPE);
  report.Diagnostic("fingerprint.nproc", std::thread::hardware_concurrency());
  report.Diagnostic("fingerprint.nominal_probe_ns", perfbench::kNominalProbeNs);

  const int code = perfbench::RunWorkload(options, &report);
  if (options.write_expected) return code;

  const std::string diagnostics = options.work_dir + "/" + options.workload + "-" +
                                  std::to_string(options.seed) +
                                  (options.trace ? "-trace" : "") + ".json";
  std::ofstream(diagnostics) << report.DiagnosticsJson();
  if (code != 0) {
    std::fprintf(stderr, "perfbench: %s failed (exit %d); diagnostics in %s\n",
                 options.workload.c_str(), code, diagnostics.c_str());
    return code;
  }
  std::printf("%s\n", report.ResultLine().c_str());
  return 0;
}
