// Measurement plumbing shared by the workloads: clocks, percentiles,
// in-memory span tracing with self-time, process counters, the host block
// and the result object a run prints last.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the monotonic clock.
double now_s();

/// Linear-interpolation percentile (the "closest ranks" rule numpy uses by
/// default) of `values`, `p` in [0, 100].  Empty input gives 0.
double percentile(std::vector<double> values, double p);
double median(std::vector<double> values);

/// FNV-1a 64 over a byte string (response fingerprints in the checks).
std::uint64_t fnv1a(const std::string& bytes);

/// Peak resident set of this process in MB since the last
/// reset_peak_rss() (VmHWM; getrusage when /proc is not readable).
double peak_rss_mb();
/// Trim the heap and restart the peak-resident-set mark at the current
/// resident set, so the next peak_rss_mb() covers only what ran in
/// between.  The mark reset is a no-op where the kernel does not allow it.
void reset_peak_rss();
/// User + system CPU seconds of this process so far (getrusage).
double cpu_seconds();

/// True when `name` matches [A-Za-z0-9_.-]+ and starts with a letter or
/// digit (the BENCHMARK.json metric-name rule).
bool valid_metric_name(const std::string& name);

// --- tracing -----------------------------------------------------------

/// One finished span: [start, end] in ns since the tracer epoch, the index
/// of the enclosing span on the same thread (-1 at the root) and the
/// request id it belongs to.
struct SpanRecord {
  const char* name = "";
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int64_t parent = -1;
  std::uint64_t request_id = 0;
  std::uint32_t thread = 0;
};

/// Process-wide span recorder.  Spans stay in per-thread buffers in memory
/// while the run goes on; collect() gathers them afterwards.  Disabled
/// (every Span is a no-op) unless enable() was called.
class Tracer {
 public:
  static void enable(bool on);
  static bool enabled();
  /// All spans recorded so far, thread by thread (parent indices refer to
  /// positions inside the same thread's block and are rebased here).
  static std::vector<SpanRecord> collect();
  static void clear();
};

/// RAII span around one call into a layer.  `name` must be a string
/// literal (it is stored by pointer).
class Span {
 public:
  explicit Span(const char* name, std::uint64_t request_id = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::int64_t index_ = -1;
};

/// Self time of every span (duration minus the time its child spans
/// cover), grouped by span name, in seconds.
std::map<std::string, std::vector<double>> self_times_s(
    const std::vector<SpanRecord>& spans);

/// Write spans as JSONL (one object per span) to `path`.
void write_spans(const std::string& path, const std::vector<SpanRecord>& spans);

// --- results -----------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
  /// Number of samples behind the value (1 for a count or a single timing).
  std::size_t samples = 1;
  /// What the value was measured on (shown in the report, not the result).
  std::string note;
};

struct Result {
  std::string workload;
  std::uint64_t seed = 0;
  bool traced = false;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> mismatches;  ///< first few failure descriptions
  std::map<std::string, Metric> metrics;
  std::map<std::string, std::string> inputs;  ///< generated input properties
  /// Metrics that the benchmark cannot measure from outside the library,
  /// with the reason.
  std::map<std::string, std::string> unmeasurable;

  void set(const std::string& name, double value, const std::string& unit,
           std::size_t samples = 1, const std::string& note = "");
  /// Record one failed operation (counted against `attempted`).
  void fail(const std::string& what);
};

/// The full report (host block: nproc, CPU model, compiler, build type and
/// the source revision; inputs, every metric with unit, sample count and
/// note, the unmeasurable list, mismatches) as one JSON object.
std::string report_json(const Result& result, const std::string& commit);

/// A run's last line: {"correct","attempted","failed","metrics"}.
std::string result_line(const Result& result);

std::string json_escape(const std::string& s);

}  // namespace perfbench
