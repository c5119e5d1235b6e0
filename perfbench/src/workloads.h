// The four workloads and the traced layer probes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for cache segments, tables, sockets and traces
  /// (relative to the working directory, which is the checkout root).
  std::string work_dir = ".bench_work";
  /// Directory holding tests/data (the design-study fixture and golden).
  std::string root = ".";
  std::string commit = "unknown";
  /// Shrink stream sizes and set-up repetitions (self-tests only).
  bool tiny = false;
};

const std::vector<std::string>& workload_names();
/// Metric names a run reports with --trace 0 / --trace 1.
const std::vector<std::string>& end_to_end_metric_names();
const std::vector<std::string>& per_layer_metric_names();

/// Run one workload.  Never throws for a failed check: failures land in
/// Result::failed with a description.
Result run_workload(const Options& options);

}  // namespace perfbench
