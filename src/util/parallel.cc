#include "util/parallel.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <limits>
#include <mutex>
#include <string>
#include <thread>

#include "util/error.h"
#include "util/metrics.h"

namespace nanocache::par {

namespace {

std::atomic<int> g_default_threads{0};  // 0 = unset, fall through to env/hw
/// Pool worker index of the current thread (0 = a caller thread), for the
/// per-worker chunk-claim counters.
thread_local int tl_worker_id = 0;

metrics::Counter& worker_chunk_counter() {
  // One counter per worker identity.  Worker ids are dense and small
  // (<= kMaxThreads), so the name set is bounded; the reference is cached
  // per thread so steady state is one atomic add per claim.
  thread_local metrics::Counter* counter =
      &metrics::Registry::instance().counter(
          "parallel.worker." + std::to_string(tl_worker_id) +
          ".chunks_claimed");
  return *counter;
}

int env_threads() {
  const char* s = std::getenv("NANOCACHE_THREADS");
  if (s == nullptr || *s == '\0') return 0;
  char* end = nullptr;
  const long v = std::strtol(s, &end, 10);
  NC_REQUIRE(end != s && *end == '\0',
             "NANOCACHE_THREADS must be an integer thread count, got '" +
                 std::string(s) + "'");
  NC_REQUIRE(v >= 1 && v <= 1024,
             "NANOCACHE_THREADS must be in [1, 1024], got '" + std::string(s) +
                 "'");
  return static_cast<int>(v);
}

/// One fork-join region: threads claim chunks from `next` until the range
/// drains or a chunk fails.
///
/// Error determinism: `error_bound` is the lowest failing index recorded so
/// far (SIZE_MAX while none).  Threads stop claiming chunks that start at
/// or above the bound and break out of a running chunk when they reach it.
/// A chunk's indices all lie below the start of every later chunk, so a
/// chunk can only be cancelled at indices the serial loop would never have
/// reached — the chunk containing the globally lowest failing index always
/// runs up to and records it, and the propagated error is byte-identical
/// to the serial run at any thread count.
struct Region {
  std::size_t n = 0;
  std::size_t chunk = 1;
  std::size_t num_chunks = 0;
  detail::RawBody invoke = nullptr;
  void* ctx = nullptr;
  /// The region whose chunk was running on the opening thread (nullptr for
  /// a region opened outside the pool's work).  Outlives this region: the
  /// parent's chunk cannot finish before this region drains.
  const Region* parent = nullptr;
  /// Threads allowed in besides the opener, and threads in besides the
  /// opener right now (guarded by Pool::mutex_).
  int helper_cap = 0;
  int helpers = 0;

  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> error_bound{
      std::numeric_limits<std::size_t>::max()};
  std::mutex error_mutex;
  std::exception_ptr error;
  std::size_t error_index = std::numeric_limits<std::size_t>::max();

  /// Chunks are left to claim (a hint: claims race with this read).
  bool claimable() const {
    const std::size_t c = next.load(std::memory_order_relaxed);
    return c < num_chunks &&
           c * chunk < error_bound.load(std::memory_order_relaxed);
  }

  bool descends_from(const Region* ancestor) const {
    for (const Region* r = parent; r != nullptr; r = r->parent) {
      if (r == ancestor) return true;
    }
    return false;
  }

  void record_failure(std::size_t i) {
    {
      std::lock_guard<std::mutex> lock(error_mutex);
      if (i < error_index) {
        error_index = i;
        error = std::current_exception();
      }
    }
    std::size_t cur = error_bound.load(std::memory_order_relaxed);
    while (i < cur && !error_bound.compare_exchange_weak(
                          cur, i, std::memory_order_relaxed)) {
    }
  }

  void run_chunks() {
    auto& chunks_claimed = worker_chunk_counter();
    for (;;) {
      const std::size_t c = next.fetch_add(1, std::memory_order_relaxed);
      if (c >= num_chunks) return;
      const std::size_t lo = c * chunk;
      // Every index of this chunk is at or above an already-recorded
      // failure: the serial loop would have stopped before reaching it.
      if (lo >= error_bound.load(std::memory_order_relaxed)) return;
      chunks_claimed.add(1);
      const std::size_t hi = lo + chunk < n ? lo + chunk : n;
      for (std::size_t i = lo; i < hi; ++i) {
        if (i >= error_bound.load(std::memory_order_relaxed)) break;
        try {
          invoke(ctx, i);
        } catch (...) {
          record_failure(i);
          // Every unclaimed chunk starts above i; nothing left to do.
          return;
        }
      }
    }
  }
};

/// The region whose chunk the current thread is running, if any: the
/// parent of every region this thread opens.
thread_local const Region* tl_region = nullptr;

void run_in(Region& region) {
  const Region* outer = tl_region;
  tl_region = &region;
  region.run_chunks();
  tl_region = outer;
}

/// Persistent worker pool shared by every open region.  A region is open
/// from the moment its opener publishes it until the opener has claimed
/// its last chunk; idle workers join the most recently opened region that
/// still has chunks and room, so nested work runs depth-first.  The opener
/// then waits for the chunks other threads claimed, and while it waits it
/// helps only regions opened beneath its own — work its region cannot
/// finish without — so a wait never stalls on unrelated work and the
/// help-while-waiting recursion is bounded by the nesting depth.
class Pool {
 public:
  static Pool& instance() {
    static Pool pool;
    return pool;
  }

  void run(Region& region, int threads) {
    region.parent = tl_region;
    region.helper_cap = threads - 1;
    ensure_workers(threads - 1);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      open_.push_back(&region);
    }
    cv_.notify_all();
    run_in(region);
    std::unique_lock<std::mutex> lock(mutex_);
    open_.erase(std::find(open_.begin(), open_.end(), &region));
    while (region.helpers > 0) {
      if (!help(lock, &region)) cv_.wait(lock);
    }
  }

  ~Pool() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      shutdown_ = true;
    }
    cv_.notify_all();
    for (auto& w : workers_) w.join();
  }

 private:
  Pool() = default;

  void ensure_workers(int needed) {
    std::lock_guard<std::mutex> lock(mutex_);
    while (static_cast<int>(workers_.size()) < needed) {
      const int worker_id = static_cast<int>(workers_.size()) + 1;
      workers_.emplace_back([this, worker_id] {
        tl_worker_id = worker_id;
        worker_loop();
      });
    }
  }

  /// Join the newest open region with chunks left and room for a helper
  /// (restricted to descendants of `ancestor` when set), run chunks until
  /// it drains, and leave.  Called and returns with `lock` held; false
  /// when there was nothing to join.
  bool help(std::unique_lock<std::mutex>& lock, const Region* ancestor) {
    Region* region = nullptr;
    for (auto it = open_.rbegin(); it != open_.rend(); ++it) {
      Region* r = *it;
      if (r->helpers < r->helper_cap && r->claimable() &&
          (ancestor == nullptr || r->descends_from(ancestor))) {
        region = r;
        break;
      }
    }
    if (region == nullptr) return false;
    ++region->helpers;
    lock.unlock();
    run_in(*region);
    lock.lock();
    // The last helper out releases a waiting opener.
    if (--region->helpers == 0) cv_.notify_all();
    return true;
  }

  void worker_loop() {
    std::unique_lock<std::mutex> lock(mutex_);
    while (!shutdown_) {
      if (!help(lock, nullptr)) cv_.wait(lock);
    }
  }

  std::mutex mutex_;
  /// Signalled when a region opens and when a region's last helper leaves;
  /// idle workers and waiting openers both sleep on it.
  std::condition_variable cv_;
  std::vector<std::thread> workers_;
  std::vector<Region*> open_;  ///< open regions, oldest first (mutex_)
  bool shutdown_ = false;
};

constexpr int kMaxThreads = 64;

}  // namespace

int hardware_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

void set_default_threads(int n) {
  NC_REQUIRE(n >= 0, "thread count must be >= 0 (0 restores the default)");
  g_default_threads.store(n > kMaxThreads ? kMaxThreads : n,
                          std::memory_order_relaxed);
}

int default_threads() {
  const int n = g_default_threads.load(std::memory_order_relaxed);
  if (n > 0) return n;
  const int e = env_threads();
  if (e > 0) return e > kMaxThreads ? kMaxThreads : e;
  return hardware_threads();
}

namespace detail {

bool use_serial(std::size_t n, int& threads, std::uint64_t cost_hint_ns) {
  if (threads == 0) threads = default_threads();
  NC_REQUIRE(threads >= 1, "parallel_for thread count must be >= 1");
  if (threads > kMaxThreads) threads = kMaxThreads;
  // Serial paths: single thread requested, a degenerate range, or an
  // estimated total cost too small to amortize a pool round trip.
  if (threads == 1 || n == 1) return true;
  return cost_hint_ns > 0 && n <= kSerialFallbackNs / cost_hint_ns;
}

void count_serial_region() {
  static auto& serial_regions =
      metrics::Registry::instance().counter("parallel.serial_regions");
  serial_regions.add(1);
}

void run_region(std::size_t n, RawBody invoke, void* ctx, int threads,
                std::size_t chunk_size) {
  Region region;
  region.n = n;
  if (chunk_size == 0) {
    // ~4 chunks per thread for balance without excessive claim traffic.
    chunk_size = n / (static_cast<std::size_t>(threads) * 4);
    if (chunk_size == 0) chunk_size = 1;
  }
  region.chunk = chunk_size;
  region.num_chunks = (n + chunk_size - 1) / chunk_size;
  region.invoke = invoke;
  region.ctx = ctx;

  if (region.num_chunks < 2) {
    count_serial_region();
    for (std::size_t i = 0; i < n; ++i) invoke(ctx, i);
    return;
  }

  const int workers =
      region.num_chunks < static_cast<std::size_t>(threads)
          ? static_cast<int>(region.num_chunks)
          : threads;
  {
    auto& registry = metrics::Registry::instance();
    static auto& regions = registry.counter("parallel.regions");
    static auto& fanout = registry.histogram("parallel.region_fanout");
    static auto& peak_fanout = registry.gauge("parallel.peak_fanout");
    regions.add(1);
    fanout.observe(static_cast<std::uint64_t>(workers));
    peak_fanout.record_max(workers);
  }
  Pool::instance().run(region, workers);
  if (region.error) std::rethrow_exception(region.error);
}

}  // namespace detail

}  // namespace nanocache::par
