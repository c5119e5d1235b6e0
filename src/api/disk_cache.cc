#include "api/disk_cache.h"

#include <utility>

#include "util/error.h"
#include "util/metrics.h"

namespace nanocache::api {

namespace {

struct DiskCounters {
  metrics::Counter& hits;
  metrics::Counter& misses;
  metrics::Counter& stores;
  metrics::Counter& corrupt;
  metrics::Counter& resets;
};

/// Process-wide observability counters; per-instance counts stay the
/// source of BatchStats.
DiskCounters& disk_counters() {
  static auto& registry = metrics::Registry::instance();
  static DiskCounters counters{
      registry.counter("api.disk.hits"), registry.counter("api.disk.misses"),
      registry.counter("api.disk.stores"),
      registry.counter("api.disk.corrupt_lines"),
      registry.counter("api.disk.segment_resets")};
  return counters;
}

void count_write_error() {
  metrics::Registry::instance().counter("api.disk.write_errors").add(1);
}

const segment::Format kFormat{"nanocache", "nanocache_cache",
                               {"key", "response"}};

}  // namespace

std::unique_ptr<DiskCache> DiskCache::open(const std::string& dir,
                                           const std::string& fingerprint) {
  NC_REQUIRE(!dir.empty(), "disk cache directory must be non-empty");
  auto cache = std::unique_ptr<DiskCache>(new DiskCache());
  cache->path_ = segment::path(dir, kFormat, fingerprint);
  auto& entries = cache->entries_;
  const auto read = segment::read(
      cache->path_, kFormat, fingerprint, [&entries](auto& values) {
        entries.emplace(std::move(values[0]), std::move(values[1]));
      });
  disk_counters().corrupt.add(read.corrupt_lines);
  if (read.state == segment::State::kOk) {
    // Opening the appender is the appendability probe: a read-only segment
    // surfaces here, not mid-batch.
    cache->appender_ = segment::Appender::open(cache->path_, kFormat);
  } else {
    // Missing, empty, or answering for another configuration (or garbage):
    // start the segment over.
    if (read.state == segment::State::kMismatch) disk_counters().resets.add(1);
    cache->appender_ =
        segment::Appender::create(cache->path_, kFormat, fingerprint);
  }
  return cache;
}

std::optional<std::string> DiskCache::lookup(const std::string& key) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++misses_;
    disk_counters().misses.add(1);
    return std::nullopt;
  }
  ++hits_;
  disk_counters().hits.add(1);
  return it->second;
}

void DiskCache::store(const std::string& key,
                      const std::string& response_json) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto [it, inserted] = entries_.emplace(key, response_json);
  if (!inserted) return;  // racing duplicate: first store wins
  disk_counters().stores.add(1);
  if (appender_ != nullptr && !appender_->append({key, response_json})) {
    // Persistence failed mid-run (disk full).  The in-memory copy keeps
    // serving this run; stop appending rather than failing requests that
    // already computed fine.
    appender_.reset();
    count_write_error();
  }
}

std::size_t DiskCache::flush() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (appender_ != nullptr && !appender_->sync()) count_write_error();
  return entries_.size();
}

std::size_t DiskCache::hits() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return hits_;
}
std::size_t DiskCache::misses() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return misses_;
}

}  // namespace nanocache::api
