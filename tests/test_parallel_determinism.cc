// Thread-count invariance of the optimizers and reports: every result the
// library computes must be identical at --threads 1 and --threads 8, down
// to the exact bytes of the rendered tables.  This is the regression gate
// for the deterministic-reduction contract (index-order merges, grid-index
// argmin tie-breaking, order-independent degradation logs).
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/explorer.h"
#include "core/report.h"
#include "opt/schemes.h"
#include "opt/tuple_menu.h"
#include "util/parallel.h"

namespace nanocache {
namespace {

/// Run `fn` under a fixed pool default thread count, restoring afterwards.
template <typename Fn>
auto with_threads(int threads, Fn&& fn) {
  par::set_default_threads(threads);
  auto result = fn();
  par::set_default_threads(0);
  return result;
}

std::string render(const TextTable& t) {
  std::ostringstream os;
  os << t;
  return os.str();
}

TEST(ParallelDeterminism, SingleCacheOptimaIdenticalAcrossThreadCounts) {
  core::Explorer explorer;
  const auto& m = explorer.l1_model(16 * 1024);
  const auto eval = opt::structural_evaluator(m);
  const auto grid = explorer.config().grid;
  const auto ladder = explorer.delay_ladder(16 * 1024, 5);
  for (const auto scheme :
       {opt::Scheme::kPerComponent, opt::Scheme::kArrayPeriphery,
        opt::Scheme::kUniform}) {
    for (const double target : ladder) {
      const auto solve = [&] {
        return opt::optimize_single_cache(eval, grid, scheme, target);
      };
      const auto serial = with_threads(1, solve);
      const auto parallel = with_threads(8, solve);
      ASSERT_EQ(serial.has_value(), parallel.has_value());
      if (!serial) continue;
      // Exact equality: same leakage bits AND the same knob assignment —
      // argmin ties must break by grid index, not worker arrival order.
      EXPECT_EQ(serial->leakage_w, parallel->leakage_w);
      EXPECT_EQ(serial->access_time_s, parallel->access_time_s);
      for (auto kind : cachemodel::kAllComponents) {
        EXPECT_EQ(serial->assignment.get(kind).vth_v,
                  parallel->assignment.get(kind).vth_v);
        EXPECT_EQ(serial->assignment.get(kind).tox_a,
                  parallel->assignment.get(kind).tox_a);
      }
    }
  }
}

TEST(ParallelDeterminism, SchemeComparisonReportBytesIdentical) {
  const auto run = [](int threads) {
    return with_threads(threads, [] {
      core::Explorer explorer;
      const auto size = explorer.config().l1_size_bytes;
      const auto ladder = explorer.delay_ladder(size, 7);
      return render(
          core::scheme_long_table(explorer.scheme_comparison(size, ladder)));
    });
  };
  EXPECT_EQ(run(1), run(8));
}

TEST(ParallelDeterminism, TupleMenuDesignsIdenticalAcrossThreadCounts) {
  core::Explorer explorer;
  const auto system = explorer.default_system();
  const opt::TupleMenuSolver solver(system, explorer.config().grid);
  const opt::MenuSpec spec{2, 2};
  const auto solve_at = [&](int threads) {
    return with_threads(threads, [&] { return solver.solve(spec); });
  };
  const auto serial_front = solve_at(1);
  const auto parallel_front = solve_at(8);
  const auto serial = serial_front.frontier();
  const auto parallel = parallel_front.frontier();
  ASSERT_EQ(serial.size(), parallel.size());
  ASSERT_FALSE(serial.empty());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].amat_s, parallel[i].amat_s);
    EXPECT_EQ(serial[i].energy_j, parallel[i].energy_j);
    EXPECT_EQ(serial[i].leakage_w, parallel[i].leakage_w);
  }

  const auto best_serial = serial_front.best_at(1.7e-9);
  const auto best_parallel = parallel_front.best_at(1.7e-9);
  ASSERT_EQ(best_serial.has_value(), best_parallel.has_value());
  if (best_serial) {
    EXPECT_EQ(best_serial->energy_j, best_parallel->energy_j);
    EXPECT_EQ(best_serial->amat_s, best_parallel->amat_s);
  }
}

TEST(ParallelDeterminism, SizeSweepAndFig1ReportsBytesIdentical) {
  const auto run = [](int threads) {
    return with_threads(threads, [] {
      core::Explorer explorer;
      std::ostringstream os;
      os << core::fig1_long_table(
                explorer.fig1_fixed_knob(explorer.config().l1_size_bytes))
         << core::size_sweep_table(
                explorer.l2_size_sweep(opt::Scheme::kUniform,
                                       explorer.l2_squeeze_target_s()),
                "l2_uniform")
         << core::size_sweep_table(
                explorer.l1_size_sweep(explorer.l2_squeeze_target_s(1.25)),
                "l1");
      return os.str();
    });
  };
  EXPECT_EQ(run(1), run(8));
}

TEST(ParallelDeterminism, FittedPathDegradationLogIdentical) {
  // A grid reaching past the fitted (Vth, Tox) domain makes sweep tasks on
  // every worker record out-of-domain events concurrently; the log keeps
  // the least reason per (cache, cause) in key order, so it (and its
  // rendering) is thread-count invariant.
  const auto run = [](int threads) {
    return with_threads(threads, [] {
      core::ExperimentConfig config;
      config.use_fitted_models = true;
      config.grid = opt::KnobGrid{
          {0.20, 0.25, 0.30, 0.35, 0.40, 0.45, 0.50, 0.55, 0.60},
          {10.0, 11.0, 12.0, 13.0, 14.0, 15.0}};
      core::Explorer explorer(config);
      const auto size = explorer.config().l1_size_bytes;
      const auto ladder = explorer.delay_ladder(size, 5);
      std::ostringstream os;
      os << core::scheme_long_table(explorer.scheme_comparison(size, ladder));
      EXPECT_FALSE(explorer.degradation_events().empty());
      os << render(core::degradation_table(explorer));
      return os.str();
    });
  };
  const std::string serial = run(1);
  for (const int threads : {2, 4, 8}) {
    EXPECT_EQ(serial, run(threads)) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace nanocache
