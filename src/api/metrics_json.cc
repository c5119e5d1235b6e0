#include "api/metrics_json.h"

#include <cstdint>
#include <string>
#include <string_view>

#include "util/json.h"

namespace nanocache::api {

namespace {

double ns_to_ms(std::uint64_t ns) { return static_cast<double>(ns) / 1e6; }

/// Append `"name":raw` to an object under construction in `out`, after a
/// comma unless it is the object's first member.
void append_field(std::string& out, std::string_view name,
                  const std::string& raw) {
  if (out.back() != '{') out += ',';
  out += json::quote(name);
  out += ':';
  out += raw;
}

/// Append `"name":{"member":render(value),...}` for an ordered map.
template <typename Map, typename Render>
void append_object(std::string& out, std::string_view name,
                   const Map& members, Render render) {
  append_field(out, name, "{");
  for (const auto& [member, value] : members) {
    append_field(out, member, render(value));
  }
  out += '}';
}

std::string histogram_json(const metrics::HistogramSnapshot& h) {
  std::string out = "{";
  append_field(out, "count", std::to_string(h.count));
  append_field(out, "sum", std::to_string(h.sum));
  append_field(out, "buckets", "[");
  bool first = true;
  for (std::size_t b = 0; b < metrics::Histogram::kBuckets; ++b) {
    if (h.buckets[b] == 0) continue;  // omit empty buckets
    if (!first) out += ',';
    first = false;
    out += '{';
    append_field(out, "le",
                 b + 1 < metrics::Histogram::kBuckets
                     ? std::to_string(metrics::Histogram::bucket_bound(b))
                     : json::quote("+inf"));
    append_field(out, "count", std::to_string(h.buckets[b]));
    out += '}';
  }
  out += "]}";
  return out;
}

std::string phase_json(const metrics::PhaseSnapshot& p) {
  std::string out = "{";
  append_field(out, "count", std::to_string(p.count));
  append_field(out, "total_ms", json::format_double(ns_to_ms(p.total_ns)));
  append_field(out, "max_ms", json::format_double(ns_to_ms(p.max_ns)));
  out += '}';
  return out;
}

std::string span_json(const metrics::SpanRecord& s) {
  std::string out = "{";
  append_field(out, "name", json::quote(s.name));
  append_field(out, "parent", json::quote(s.parent));
  append_field(out, "depth", std::to_string(s.depth));
  append_field(out, "thread", std::to_string(s.thread_id));
  append_field(out, "start_ms", json::format_double(ns_to_ms(s.start_ns)));
  append_field(out, "duration_ms",
               json::format_double(ns_to_ms(s.duration_ns)));
  out += '}';
  return out;
}

std::string batch_json(const BatchStats& stats) {
  std::string out = "{";
  append_field(out, "requests", std::to_string(stats.requests));
  append_field(out, "unique_requests", std::to_string(stats.unique_requests));
  append_field(out, "request_hits", std::to_string(stats.request_hits));
  append_field(out, "memo_hits", std::to_string(stats.memo_hits));
  append_field(out, "memo_misses", std::to_string(stats.memo_misses));
  const double dedup_ratio =
      stats.requests == 0
          ? 0.0
          : static_cast<double>(stats.request_hits) /
                static_cast<double>(stats.requests);
  append_field(out, "dedup_ratio", json::format_double(dedup_ratio));
  append_field(out, "hit_rate", json::format_double(stats.hit_rate()));
  out += '}';
  return out;
}

}  // namespace

std::string metrics_to_json(const metrics::MetricsSnapshot& snapshot,
                            const std::vector<metrics::SpanRecord>& spans,
                            const BatchStats* batch) {
  const auto integer = [](const auto& v) { return std::to_string(v); };
  std::string out = "{";
  append_field(out, "schema_version", "1");
  append_object(out, "counters", snapshot.counters, integer);
  append_object(out, "gauges", snapshot.gauges, integer);
  append_object(out, "histograms", snapshot.histograms, histogram_json);
  append_object(out, "phases", snapshot.phases, phase_json);
  append_field(out, "spans", "[");
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (i > 0) out += ',';
    out += span_json(spans[i]);
  }
  out += ']';
  if (batch != nullptr) append_field(out, "batch", batch_json(*batch));
  out += '}';
  return out;
}

std::string current_metrics_json(const BatchStats* batch) {
  return metrics_to_json(metrics::Registry::instance().snapshot(),
                         metrics::recent_spans(), batch);
}

std::string metrics_response_line(const std::string& id,
                                  const BatchStats* batch) {
  // Mirrors response_to_json's envelope key order (schema_version, id,
  // kind, ok, result) so server clients parse one uniform shape.
  std::string out = "{";
  append_field(out, "schema_version", std::to_string(kSchemaVersion));
  if (!id.empty()) append_field(out, "id", json::quote(id));
  append_field(out, "kind", json::quote("metrics"));
  append_field(out, "ok", "true");
  append_field(out, "result", current_metrics_json(batch));
  out += '}';
  return out;
}

}  // namespace nanocache::api
