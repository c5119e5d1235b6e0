// Content-keyed memoization cache for the batched evaluation service.
//
// Keys are canonical strings describing a sub-evaluation's full structural
// identity (model identity + knobs + grid fingerprint + scheme + target
// bits), so two requests that would run the same computation share one
// result.  Values are immutable shared_ptrs: a hit hands back the exact
// object the miss path stored, which makes the "hit is bitwise-equal to
// miss" guarantee trivial.
//
// Concurrency: the entry map is lock-striped into kShards shards selected
// by the canonical-key hash, so concurrent lookups on distinct keys almost
// never contend.  The compute callback runs OUTSIDE
// any lock so slow model evaluations don't serialize the pool.  A key is
// computed once: a thread asking for a key another thread is computing
// waits for that result (and counts a hit) instead of computing it again.
// Waiting cannot deadlock, because a computation never needs its own key.
// If the computation throws, one waiter takes the key over and computes.
// Hit/miss counters are relaxed per-shard atomics folded into one Stats
// snapshot — they feed reporting, never results.
// A snapshot taken concurrently with lookups is approximately consistent
// (each shard's pair is read without stopping traffic); every completed
// lookup is counted exactly once.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>

namespace nanocache::api {

class MemoCache {
 public:
  /// Snapshot of the cache's counters summed across shards.
  struct Stats {
    std::size_t hits = 0;
    std::size_t misses = 0;
    std::size_t entries = 0;
  };

  /// Lock stripes; a power of two so the key hash masks cleanly.
  static constexpr std::size_t kShards = 16;

  /// Return the cached value for `key`, or run `compute`, publish its
  /// result, and return it.  `T` must match the type stored under `key`;
  /// callers namespace keys with a type tag prefix ("eval|", "opt|", ...)
  /// so a collision across types is impossible by construction.
  template <typename T>
  std::shared_ptr<const T> get_or_compute(
      const std::string& key,
      const std::function<std::shared_ptr<const T>()>& compute) {
    if (auto hit = lookup(key)) {
      return std::static_pointer_cast<const T>(hit);
    }
    std::shared_ptr<const T> fresh;
    try {
      fresh = compute();
    } catch (...) {
      abandon(key);
      throw;
    }
    return std::static_pointer_cast<const T>(publish(key, std::move(fresh)));
  }

  Stats stats() const;
  std::size_t hits() const { return stats().hits; }
  std::size_t misses() const { return stats().misses; }
  std::size_t entries() const { return stats().entries; }

 private:
  /// One lock stripe.  Cache-line aligned so one shard's mutex traffic
  /// never invalidates a neighbour's counters.
  struct alignas(64) Shard {
    std::mutex mutex;
    std::condition_variable published;  ///< an in-flight key settled
    std::unordered_map<std::string, std::shared_ptr<const void>> entries;
    std::unordered_set<std::string> in_flight;  ///< keys being computed
    std::atomic<std::size_t> hits{0};
    std::atomic<std::size_t> misses{0};
  };

  Shard& shard_for(const std::string& key) const {
    return shards_[std::hash<std::string>{}(key) & (kShards - 1)];
  }

  /// The stored value on hit, waiting first while another thread computes
  /// `key`; nullptr on miss (miss counter bumped), after which the caller
  /// owns the computation and must publish() or abandon() the key.
  std::shared_ptr<const void> lookup(const std::string& key);

  /// Store the value of a key the caller computed, wake its waiters, and
  /// return the stored entry.
  std::shared_ptr<const void> publish(const std::string& key,
                                      std::shared_ptr<const void> value);

  /// Release a key whose computation failed, waking its waiters.
  void abandon(const std::string& key);

  mutable std::array<Shard, kShards> shards_;
};

}  // namespace nanocache::api
