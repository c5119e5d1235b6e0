// Parallel execution engine for the exploration sweeps.
//
// The paper's experiments are embarrassingly parallel enumerations
// (Section 4 scheme grids, Section 5 size sweeps and menu tuples), so the
// engine is a chunked fork-join pool: `parallel_for` splits an index range
// into contiguous chunks which threads claim from an atomic counter
// (chunked self-scheduling, the cheap cousin of work stealing).  The
// calling thread always participates, so `threads == 1` degrades to a
// plain serial loop with zero pool traffic.
//
// Determinism contract (what the reduction helpers guarantee):
//  * `parallel_map` writes result i from task i — output order is index
//    order regardless of thread count or chunk schedule.
//  * `parallel_reduce` chunks the range as a function of the range size
//    ONLY (never the thread count) and merges per-chunk partials in chunk
//    index order, so even non-associative merges (floating-point sums,
//    first-wins argmin) produce bit-identical results at any thread count.
//
// Nesting and concurrency: every parallel call opens a region in the one
// process-wide pool, wherever it is issued — a user thread, a server
// worker, or a task already running inside another region.  Idle pool
// workers join the most recently opened region that has chunks left, so a
// lone heavy task inside a batch spreads over the cores the rest of the
// batch left idle.  The opener runs its own chunks, then waits only for the
// chunks other threads already claimed, helping meanwhile with regions
// opened beneath its own; that always progresses, never deadlocks — as
// long as no caller holds a lock across a parallel call that a task of the
// region also takes.  A task may run on any thread, so thread-local state
// installed by a caller is not visible inside its tasks.
//
// Error contract: the exception at the LOWEST failing index is captured
// via std::exception_ptr and rethrown on the calling thread after the
// region drains — exactly the error a serial loop would have hit first, so
// typed nanocache::Error values cross the pool with their ErrorCategory
// intact and the propagated error is byte-identical at any thread count.
// Work at indices above an already-recorded failure is cancelled (the
// serial loop would never have reached it); work below always runs to the
// failure, which is what makes the lowest-index guarantee exact rather
// than best-effort.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

namespace nanocache::par {

/// Hardware concurrency, never less than 1.
int hardware_threads();

/// Set the process-wide default thread count used when a call site passes
/// `threads == 0`.  `n == 0` restores the built-in default (the
/// NANOCACHE_THREADS environment variable if set, else hardware
/// concurrency).  Throws Error(kConfig) for negative counts.
void set_default_threads(int n);

/// The resolved process-wide default thread count (>= 1).  Throws
/// Error(kConfig) when NANOCACHE_THREADS is set but malformed or outside
/// [1, 1024] — a bad explicit setting is surfaced, never silently replaced
/// by hardware concurrency.  (Counts above the pool's internal cap of 64
/// are valid and clamp to it.)
int default_threads();

/// Estimated total serial cost (ns) below which forking a region costs
/// more than it saves: regions with a non-zero cost hint whose estimated
/// total falls under this threshold run serially.  ~3 ms comfortably
/// covers pool wake/drain latency plus cross-core cache traffic.
inline constexpr std::uint64_t kSerialFallbackNs = 3'000'000;

namespace detail {

/// Type-erased region body: `invoke(ctx, i)` runs index i.  A raw function
/// pointer + context pointer instead of std::function keeps the per-index
/// dispatch to one indirect call with no allocation or virtual-table hop.
using RawBody = void (*)(void*, std::size_t);

/// Resolves `threads` in place (0 -> default_threads(), clamped to the
/// pool cap) and decides whether the region must run serially: single
/// thread, degenerate range, or an estimated total cost
/// (n * cost_hint_ns) under kSerialFallbackNs.
bool use_serial(std::size_t n, int& threads, std::uint64_t cost_hint_ns);

/// Bumps the parallel.serial_regions counter (cached reference inside).
void count_serial_region();

/// Parallel path: chunk [0, n) and run it on the pool.  Rethrows the
/// lowest-index failure.  May still fall back to a serial loop when the
/// chunking degenerates to a single chunk.
void run_region(std::size_t n, RawBody invoke, void* ctx, int threads,
                std::size_t chunk_size);

/// Chunk size for parallel_reduce: a function of the range size only, so
/// partial-result boundaries (and therefore merged results) are identical
/// at every thread count.
inline std::size_t reduce_chunk(std::size_t n) {
  const std::size_t chunk = (n + 255) / 256;  // at most 256 chunks
  return chunk == 0 ? 1 : chunk;
}

}  // namespace detail

/// Run `body(i)` for every i in [0, n), distributing contiguous chunks
/// over `threads` threads (0 = default_threads()).  `chunk_size == 0`
/// picks a balanced chunk automatically.  Runs serially when n < 2,
/// threads == 1, or `cost_hint_ns` (estimated serial cost per index,
/// 0 = unknown) says the whole region is cheaper than a pool round trip —
/// the serial fallback never changes results, only scheduling (see the
/// determinism contract above).  Called from inside another region's task,
/// it opens a nested region in the same pool.  `body` is invoked through a per-region function pointer, not a
/// std::function, so lambdas run with zero per-index type-erasure cost.
template <typename Body>
void parallel_for(std::size_t n, Body&& body, int threads = 0,
                  std::size_t chunk_size = 0, std::uint64_t cost_hint_ns = 0) {
  if (n == 0) return;
  if (detail::use_serial(n, threads, cost_hint_ns)) {
    detail::count_serial_region();
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }
  using B = std::remove_reference_t<Body>;
  detail::run_region(
      n,
      [](void* ctx, std::size_t i) { (*static_cast<B*>(ctx))(i); },
      const_cast<void*>(
          static_cast<const void*>(std::addressof(body))),
      threads, chunk_size);
}

/// Map [0, n) through `fn`, returning results in index order.  The result
/// type must be default-constructible.
template <typename Fn>
auto parallel_map(std::size_t n, Fn&& fn, int threads = 0,
                  std::size_t chunk_size = 0, std::uint64_t cost_hint_ns = 0)
    -> std::vector<decltype(fn(std::size_t{}))> {
  std::vector<decltype(fn(std::size_t{}))> out(n);
  parallel_for(
      n, [&](std::size_t i) { out[i] = fn(i); }, threads, chunk_size,
      cost_hint_ns);
  return out;
}

/// Deterministic reduction: accumulate indices into per-chunk copies of
/// `identity` via `accumulate(acc, i)`, then fold the per-chunk partials
/// with `merge(into, from)` in chunk index order.  Chunk boundaries depend
/// only on `n`, so the result is bit-identical at any thread count even
/// for non-associative merges.
template <typename T, typename Accumulate, typename Merge>
T parallel_reduce(std::size_t n, T identity, Accumulate&& accumulate,
                  Merge&& merge, int threads = 0,
                  std::uint64_t cost_hint_ns = 0) {
  if (n == 0) return identity;
  const std::size_t chunk = detail::reduce_chunk(n);
  const std::size_t num_chunks = (n + chunk - 1) / chunk;
  std::vector<T> partials(num_chunks, identity);
  parallel_for(
      num_chunks,
      [&](std::size_t c) {
        const std::size_t lo = c * chunk;
        const std::size_t hi = lo + chunk < n ? lo + chunk : n;
        T& acc = partials[c];
        for (std::size_t i = lo; i < hi; ++i) accumulate(acc, i);
      },
      threads, /*chunk_size=*/1,
      // A chunk task costs `chunk` per-index units; the fallback compares
      // num_chunks * (chunk * hint) ~= n * hint, as intended.
      cost_hint_ns == 0 ? 0 : cost_hint_ns * chunk);
  T result = std::move(partials[0]);
  for (std::size_t c = 1; c < num_chunks; ++c) {
    merge(result, std::move(partials[c]));
  }
  return result;
}

}  // namespace nanocache::par
