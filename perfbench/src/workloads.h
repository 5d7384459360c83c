// The benchmark's four workloads. Each one generates its input from the
// seed, times a closed loop over the library for a fixed number of seconds,
// checks every release against the oracle, and returns its metrics.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// records_per_s of an untraced run of the same workload, to report the
  /// tracing overhead against; 0 when none is known.
  double baseline_records_per_s = 0;
  /// Directory for the span file and scratch snapshots.
  std::string out_dir = ".";
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;  ///< failed output checks; empty = correct
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
};

/// Names of the workloads RunWorkload accepts.
const std::vector<std::string>& WorkloadNames();

/// Runs one workload; false if the name is unknown or set-up fails.
bool RunWorkload(const Options& options, RunResult* result);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
