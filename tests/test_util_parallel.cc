// The parallel engine's contracts: index coverage, deterministic
// reductions, typed-error propagation, degenerate ranges, and nested and
// concurrent regions sharing the one pool.
#include "util/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "util/error.h"
#include "util/metrics.h"

namespace nanocache {
namespace {

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  for (int threads : {1, 2, 4, 8}) {
    std::vector<std::atomic<int>> hits(1000);
    par::parallel_for(
        hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); }, threads);
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ParallelFor, EmptyRangeIsANoOp) {
  bool called = false;
  par::parallel_for(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelFor, ChunkLargerThanRangeRunsSerially) {
  std::vector<int> hits(5, 0);  // plain ints: serial path, no races
  par::parallel_for(
      hits.size(), [&](std::size_t i) { hits[i] += 1; },
      /*threads=*/8, /*chunk_size=*/100);
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ParallelFor, SingleThreadRunsInCallingThread) {
  const auto caller = std::this_thread::get_id();
  par::parallel_for(
      100, [&](std::size_t) { EXPECT_EQ(std::this_thread::get_id(), caller); },
      /*threads=*/1);
}

TEST(ParallelFor, PropagatesTypedErrorWithCategory) {
  const auto run = [] {
    par::parallel_for(
        500,
        [](std::size_t i) {
          if (i == 137) {
            throw Error(ErrorCategory::kNumericDomain, "poisoned index");
          }
        },
        /*threads=*/4);
  };
  try {
    run();
    FAIL() << "expected Error to cross the pool";
  } catch (const Error& e) {
    EXPECT_EQ(e.category(), ErrorCategory::kNumericDomain);
    EXPECT_NE(std::string(e.what()).find("poisoned index"), std::string::npos);
  }
}

TEST(ParallelFor, LowestFailingIndexWinsWhenChunksRace) {
  // Two failing indices; the reported error must be the lower one whenever
  // both chunks ran.  With chunk_size=1 and the failure at index 0, chunk 0
  // always runs (some thread claims it first), so index 0 must win.
  try {
    par::parallel_for(
        64,
        [](std::size_t i) {
          if (i == 0) throw Error(ErrorCategory::kConfig, "first");
          if (i == 63) throw Error(ErrorCategory::kInternal, "last");
        },
        /*threads=*/4, /*chunk_size=*/1);
    FAIL() << "expected an error";
  } catch (const Error& e) {
    EXPECT_EQ(e.category(), ErrorCategory::kConfig);
  }
}

TEST(ParallelFor, NestedRegionRunsOnIdleWorkers) {
  // Outer task 0 opens a nested region while tasks 1..3 finish at once.
  // Index 0 of the nested region waits until another thread has run one
  // of its indices, which only an idle worker joining the region can do.
  std::atomic<int> others{0};
  std::vector<std::size_t> squares;
  par::parallel_for(
      4,
      [&](std::size_t outer) {
        if (outer != 0) return;
        const auto opener = std::this_thread::get_id();
        squares = par::parallel_map(
            64,
            [&](std::size_t i) {
              if (std::this_thread::get_id() != opener) {
                others.fetch_add(1);
              } else if (i == 0) {
                const auto deadline =
                    std::chrono::steady_clock::now() + std::chrono::seconds(5);
                while (others.load() == 0 &&
                       std::chrono::steady_clock::now() < deadline) {
                  std::this_thread::yield();
                }
              }
              return i * i;
            },
            /*threads=*/4, /*chunk_size=*/1);
      },
      /*threads=*/4, /*chunk_size=*/1);
  EXPECT_GT(others.load(), 0);
  ASSERT_EQ(squares.size(), 64u);
  for (std::size_t i = 0; i < squares.size(); ++i) EXPECT_EQ(squares[i], i * i);
}

TEST(ParallelFor, ThreeLevelNestingCompletes) {
  std::vector<std::atomic<int>> hits(4 * 5 * 6);
  par::parallel_for(
      4,
      [&](std::size_t a) {
        par::parallel_for(
            5,
            [&](std::size_t b) {
              par::parallel_for(
                  6, [&](std::size_t c) { hits[(a * 5 + b) * 6 + c] += 1; },
                  /*threads=*/4, /*chunk_size=*/1);
            },
            /*threads=*/4, /*chunk_size=*/1);
      },
      /*threads=*/4, /*chunk_size=*/1);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, NestedErrorSurfacesLowestIndex) {
  // Outer task 3's nested region fails at 17 and 60; outer task 5 fails
  // too.  The serial loop would hit task 3's nested index 17 first.
  for (const int threads : {1, 2, 4, 8}) {
    try {
      par::parallel_for(
          8,
          [](std::size_t outer) {
            if (outer == 5) throw Error(ErrorCategory::kInternal, "outer 5");
            if (outer != 3) return;
            par::parallel_for(
                100,
                [](std::size_t i) {
                  if (i == 17 || i == 60) {
                    throw Error(ErrorCategory::kNumericDomain,
                                "inner " + std::to_string(i));
                  }
                },
                /*threads=*/4, /*chunk_size=*/1);
          },
          threads, /*chunk_size=*/1);
      FAIL() << "expected an error";
    } catch (const Error& e) {
      EXPECT_STREQ(e.what(), "[numeric-domain] inner 17")
          << "threads=" << threads;
    }
  }
}

TEST(ParallelMap, ResultsInIndexOrder) {
  for (int threads : {1, 3, 8}) {
    const auto out = par::parallel_map(
        257, [](std::size_t i) { return i * i; }, threads);
    ASSERT_EQ(out.size(), 257u);
    for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
  }
}

TEST(ParallelReduce, FloatingPointSumIsBitIdenticalAcrossThreadCounts) {
  // A sum whose value depends on association order: harmonic-ish terms of
  // wildly varying magnitude.  Identical bits at every thread count is the
  // determinism contract, not just approximate equality.
  const std::size_t n = 10'000;
  const auto sum_at = [&](int threads) {
    return par::parallel_reduce(
        n, 0.0,
        [](double& acc, std::size_t i) {
          acc += std::exp2(static_cast<double>(i % 64)) /
                 (static_cast<double>(i) + 1.0);
        },
        [](double& into, double from) { into += from; }, threads);
  };
  const double base = sum_at(1);
  for (int threads : {2, 4, 8}) {
    EXPECT_EQ(base, sum_at(threads)) << "threads=" << threads;
  }
}

TEST(ParallelReduce, FirstWinsArgminMatchesSerialScan) {
  // Many duplicate minima; first-wins is order-sensitive, so this passes
  // only if partials merge in chunk index order.
  const std::size_t n = 5'000;
  const auto value = [](std::size_t i) {
    return static_cast<double>((i * 7919) % 100);
  };
  struct Best {
    double v = 1e300;
    std::size_t idx = 0;
  };
  const auto argmin_at = [&](int threads) {
    return par::parallel_reduce(
        n, Best{},
        [&](Best& acc, std::size_t i) {
          if (value(i) < acc.v) acc = Best{value(i), i};
        },
        [](Best& into, Best from) {
          if (from.v < into.v) into = from;  // strict: earlier chunk wins ties
        },
        threads);
  };
  Best serial;
  for (std::size_t i = 0; i < n; ++i) {
    if (value(i) < serial.v) serial = Best{value(i), i};
  }
  for (int threads : {1, 2, 4, 8}) {
    const auto b = argmin_at(threads);
    EXPECT_EQ(b.idx, serial.idx) << "threads=" << threads;
    EXPECT_EQ(b.v, serial.v) << "threads=" << threads;
  }
}

TEST(ParallelReduce, ConcurrentCallersAreBitIdenticalToSerial) {
  // Four user threads open regions in the one pool at the same time; each
  // non-associative fold must still match its serial value bit for bit.
  const auto sum = [](std::size_t n, int threads) {
    return par::parallel_reduce(
        n, 0.0,
        [](double& acc, std::size_t i) {
          acc += std::sin(static_cast<double>(i)) * 1e-3;
        },
        [](double& into, double from) { into += from; }, threads);
  };
  std::vector<double> serial;
  for (std::size_t t = 0; t < 4; ++t) serial.push_back(sum(5'000 + t, 1));
  std::vector<std::vector<double>> got(4);
  std::vector<std::thread> callers;
  for (std::size_t t = 0; t < 4; ++t) {
    callers.emplace_back([&, t] {
      for (int rep = 0; rep < 20; ++rep) got[t].push_back(sum(5'000 + t, 4));
    });
  }
  for (auto& c : callers) c.join();
  for (std::size_t t = 0; t < 4; ++t) {
    for (const double v : got[t]) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(v),
                std::bit_cast<std::uint64_t>(serial[t]))
          << "caller " << t;
    }
  }
}

TEST(ParallelReduce, EmptyRangeReturnsIdentity) {
  const int r = par::parallel_reduce(
      0, 42, [](int&, std::size_t) { FAIL(); }, [](int&, int) { FAIL(); });
  EXPECT_EQ(r, 42);
}

TEST(Defaults, SetDefaultThreadsRoundTrips) {
  par::set_default_threads(3);
  EXPECT_EQ(par::default_threads(), 3);
  par::set_default_threads(0);  // restore
  EXPECT_GE(par::default_threads(), 1);
  EXPECT_THROW(par::set_default_threads(-1), Error);
}

TEST(Defaults, HardwareThreadsIsPositive) {
  EXPECT_GE(par::hardware_threads(), 1);
}

TEST(ParallelFor, PropagatedErrorIsThreadCountInvariant) {
  // Several failing indices scattered through the range: whatever the
  // thread count or chunking, the error that surfaces must be the one the
  // serial loop would hit first — the batch byte-identity contract depends
  // on it.
  const auto body = [](std::size_t i) {
    if (i == 5 || i == 100 || i == 900) {
      throw Error(ErrorCategory::kNumericDomain,
                  "boom at " + std::to_string(i));
    }
  };
  for (const int threads : {1, 2, 8}) {
    for (const std::size_t chunk : {std::size_t{0}, std::size_t{1},
                                    std::size_t{7}}) {
      try {
        par::parallel_for(1000, body, threads, chunk);
        FAIL() << "expected an error";
      } catch (const Error& e) {
        EXPECT_STREQ(e.what(), "[numeric-domain] boom at 5")
            << "threads=" << threads << " chunk=" << chunk;
      }
    }
  }
}

// --- Cost-hinted serial fallback (tiny regions skip the pool) -------------

std::uint64_t serial_regions() {
  return metrics::Registry::instance()
      .counter("parallel.serial_regions")
      .value();
}

TEST(CostHint, TinyRegionsRunSerially) {
  const auto before = serial_regions();
  std::vector<int> hits(64, 0);  // plain ints: only race-free if serial
  par::parallel_for(
      hits.size(), [&](std::size_t i) { hits[i] += 1; },
      /*threads=*/4, /*chunk_size=*/0, /*cost_hint_ns=*/100);
  // 64 x 100 ns estimated is far under the 3 ms pool round-trip threshold.
  EXPECT_EQ(serial_regions(), before + 1);
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(CostHint, ExpensiveRegionsStayParallel) {
  const auto before = serial_regions();
  std::vector<std::atomic<int>> hits(64);
  par::parallel_for(
      hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); },
      /*threads=*/4, /*chunk_size=*/0, /*cost_hint_ns=*/1'000'000);
  EXPECT_EQ(serial_regions(), before);
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(CostHint, ZeroHintMeansUnknownAndStaysParallel) {
  const auto before = serial_regions();
  std::vector<std::atomic<int>> hits(64);
  par::parallel_for(
      hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); },
      /*threads=*/4);
  EXPECT_EQ(serial_regions(), before);
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(CostHint, FallbackDoesNotChangeResults) {
  // A non-associative floating-point fold: any reordering would show up in
  // the low bits.  The serial fallback walks the same chunk boundaries in
  // the same order, so the result must be bit-identical at every hint.
  const auto run = [](std::uint64_t hint) {
    return par::parallel_reduce(
        10'000, 0.0,
        [](double& acc, std::size_t i) {
          acc += std::sin(static_cast<double>(i)) * 1e-3;
        },
        [](double& into, double from) { into += from; },
        /*threads=*/4, hint);
  };
  const double baseline = run(0);               // unknown cost: pool
  const double serial = run(1);                 // tiny: serial fallback
  const double parallel = run(100'000'000);     // huge: pool
  EXPECT_EQ(std::bit_cast<std::uint64_t>(serial),
            std::bit_cast<std::uint64_t>(baseline));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(parallel),
            std::bit_cast<std::uint64_t>(baseline));
}

/// setenv/unsetenv wrapper restoring NANOCACHE_THREADS afterwards.
class EnvThreadsGuard {
 public:
  EnvThreadsGuard() {
    const char* prev = std::getenv("NANOCACHE_THREADS");
    if (prev != nullptr) saved_ = prev;
  }
  ~EnvThreadsGuard() {
    if (saved_.has_value()) {
      ::setenv("NANOCACHE_THREADS", saved_->c_str(), 1);
    } else {
      ::unsetenv("NANOCACHE_THREADS");
    }
  }

 private:
  std::optional<std::string> saved_;
};

TEST(Defaults, EnvThreadsStrictParsing) {
  EnvThreadsGuard guard;
  par::set_default_threads(0);  // make the env variable the source

  // An empty variable counts as unset (shell convention), so it is absent
  // from this list.
  for (const char* bad : {"abc", "0", "-4", "2000", "8 ", "8x"}) {
    ::setenv("NANOCACHE_THREADS", bad, 1);
    try {
      par::default_threads();
      FAIL() << "expected Error(kConfig) for NANOCACHE_THREADS='" << bad
             << "'";
    } catch (const Error& e) {
      EXPECT_EQ(e.category(), ErrorCategory::kConfig) << bad;
    }
  }

  ::setenv("NANOCACHE_THREADS", "8", 1);
  EXPECT_EQ(par::default_threads(), 8);
  // The upper bound of the accepted range is valid but capped to the
  // pool's worker limit, never an error.
  ::setenv("NANOCACHE_THREADS", "1024", 1);
  EXPECT_GE(par::default_threads(), 1);
  EXPECT_LE(par::default_threads(), 1024);

  ::unsetenv("NANOCACHE_THREADS");
  EXPECT_GE(par::default_threads(), 1);
}

}  // namespace
}  // namespace nanocache
