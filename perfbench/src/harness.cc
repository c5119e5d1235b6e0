#include "harness.h"

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void reset_peak_rss() {
  // Return freed heap to the kernel first, so the new mark starts from the
  // live data rather than from whatever earlier operations left cached in
  // the allocator.  Writing 5 to clear_refs resets the mark (Linux >= 4.0).
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

bool valid_metric_name(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  if (!std::isalnum(static_cast<unsigned char>(name[0]))) return false;
  return std::all_of(name.begin(), name.end(), [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == '.' || c == '-';
  });
}

// --- tracing -----------------------------------------------------------

namespace {

struct ThreadBuffer {
  std::uint32_t thread = 0;
  std::vector<SpanRecord> spans;
  std::vector<std::int64_t> open;  ///< stack of open span indices
};

std::atomic<bool> g_enabled{false};
std::mutex g_buffers_mutex;
std::vector<std::shared_ptr<ThreadBuffer>> g_buffers;
const auto g_epoch = std::chrono::steady_clock::now();

std::uint64_t since_epoch_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - g_epoch)
          .count());
}

ThreadBuffer& local_buffer() {
  thread_local std::shared_ptr<ThreadBuffer> buffer = [] {
    auto b = std::make_shared<ThreadBuffer>();
    std::lock_guard lock(g_buffers_mutex);
    b->thread = static_cast<std::uint32_t>(g_buffers.size());
    g_buffers.push_back(b);
    return b;
  }();
  return *buffer;
}

}  // namespace

void Tracer::enable(bool on) { g_enabled.store(on); }
bool Tracer::enabled() { return g_enabled.load(std::memory_order_relaxed); }

std::vector<SpanRecord> Tracer::collect() {
  std::lock_guard lock(g_buffers_mutex);
  std::vector<SpanRecord> out;
  for (const auto& buffer : g_buffers) {
    const auto base = static_cast<std::int64_t>(out.size());
    for (SpanRecord span : buffer->spans) {
      if (span.parent >= 0) span.parent += base;
      out.push_back(span);
    }
  }
  return out;
}

void Tracer::clear() {
  std::lock_guard lock(g_buffers_mutex);
  for (const auto& buffer : g_buffers) {
    buffer->spans.clear();
    buffer->open.clear();
  }
}

Span::Span(const char* name, std::uint64_t request_id) {
  if (!Tracer::enabled()) return;
  ThreadBuffer& buffer = local_buffer();
  SpanRecord record;
  record.name = name;
  record.parent = buffer.open.empty() ? -1 : buffer.open.back();
  record.request_id = request_id;
  record.thread = buffer.thread;
  index_ = static_cast<std::int64_t>(buffer.spans.size());
  buffer.open.push_back(index_);
  record.start_ns = since_epoch_ns();
  buffer.spans.push_back(record);
}

Span::~Span() {
  if (index_ < 0) return;
  const std::uint64_t end = since_epoch_ns();
  ThreadBuffer& buffer = local_buffer();
  buffer.spans[static_cast<std::size_t>(index_)].end_ns = end;
  buffer.open.pop_back();
}

std::map<std::string, std::vector<double>> self_times_s(
    const std::vector<SpanRecord>& spans) {
  // Children of one span run on its thread strictly inside it, one after
  // another, so the time they cover is the sum of their durations.
  std::vector<std::uint64_t> child_ns(spans.size(), 0);
  for (const auto& span : spans) {
    if (span.parent >= 0) {
      child_ns[static_cast<std::size_t>(span.parent)] +=
          span.end_ns - span.start_ns;
    }
  }
  std::map<std::string, std::vector<double>> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::uint64_t total = spans[i].end_ns - spans[i].start_ns;
    const std::uint64_t self = total > child_ns[i] ? total - child_ns[i] : 0;
    out[spans[i].name].push_back(static_cast<double>(self) * 1e-9);
  }
  return out;
}

void write_spans(const std::string& path,
                 const std::vector<SpanRecord>& spans) {
  std::ofstream out(path, std::ios::binary);
  for (const auto& s : spans) {
    out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent
        << ",\"request_id\":" << s.request_id << ",\"thread\":" << s.thread
        << "}\n";
  }
}

// --- results -----------------------------------------------------------

void Result::set(const std::string& name, double value,
                 const std::string& unit, std::size_t samples,
                 const std::string& note) {
  metrics[name] = Metric{value, unit, samples, note};
}

void Result::fail(const std::string& what) {
  ++failed;
  if (mismatches.size() < 8) mismatches.push_back(what);
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

std::string number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        auto model = line.substr(colon + 1);
        model.erase(0, model.find_first_not_of(' '));
        return model;
      }
    }
  }
  return "unknown";
}

std::string host_json(const std::string& commit) {
  std::ostringstream out;
  out << "{\"nproc\":" << std::thread::hardware_concurrency()
      << ",\"cpu\":\"" << json_escape(cpu_model()) << "\",\"compiler\":\""
      << json_escape(PERFBENCH_COMPILER) << "\",\"build_type\":\""
      << json_escape(PERFBENCH_BUILD_TYPE) << "\",\"commit\":\""
      << json_escape(commit) << "\"}";
  return out.str();
}

}  // namespace

std::string report_json(const Result& result, const std::string& commit) {
  std::ostringstream out;
  out << "{\"report\":{\"workload\":\"" << result.workload
      << "\",\"seed\":" << result.seed
      << ",\"trace\":" << (result.traced ? 1 : 0)
      << ",\"host\":" << host_json(commit) << ",\"inputs\":{";
  bool first = true;
  for (const auto& [k, v] : result.inputs) {
    out << (first ? "" : ",") << "\"" << json_escape(k) << "\":\""
        << json_escape(v) << "\"";
    first = false;
  }
  out << "},\"failed_share\":"
      << number(result.attempted == 0
                    ? 0.0
                    : static_cast<double>(result.failed) /
                          static_cast<double>(result.attempted))
      << ",\"attempted\":" << result.attempted
      << ",\"failed\":" << result.failed << ",\"metrics\":{";
  first = true;
  for (const auto& [name, m] : result.metrics) {
    out << (first ? "" : ",") << "\"" << name << "\":{\"value\":"
        << number(m.value) << ",\"unit\":\"" << m.unit
        << "\",\"samples\":" << m.samples;
    if (!m.note.empty()) out << ",\"note\":\"" << json_escape(m.note) << "\"";
    out << "}";
    first = false;
  }
  out << "},\"unmeasurable\":{";
  first = true;
  for (const auto& [name, why] : result.unmeasurable) {
    out << (first ? "" : ",") << "\"" << name << "\":\"" << json_escape(why)
        << "\"";
    first = false;
  }
  out << "},\"mismatches\":[";
  for (std::size_t i = 0; i < result.mismatches.size(); ++i) {
    out << (i ? "," : "") << "\"" << json_escape(result.mismatches[i])
        << "\"";
  }
  out << "]}}";
  return out.str();
}

std::string result_line(const Result& result) {
  std::ostringstream out;
  out << "{\"correct\":" << (result.failed == 0 ? "true" : "false")
      << ",\"attempted\":" << std::max<std::uint64_t>(result.attempted, 1)
      << ",\"failed\":" << result.failed << ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, m] : result.metrics) {
    out << (first ? "" : ",") << "\"" << name << "\":{\"value\":"
        << number(m.value) << ",\"unit\":\"" << m.unit << "\"}";
    first = false;
  }
  out << "}}";
  return out.str();
}

}  // namespace perfbench
