// Differential tests for the enlarged v3 design space: the dominance-pruned
// engine must stay byte-identical to the exhaustive reference across the
// associativity x banks x node grid, with and without power gating, at every
// thread count.  This extends the fixed-organization suite in
// test_opt_pruned.cc to the axes the v3 API exposes.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "cachemodel/cache_model.h"
#include "cachemodel/organization.h"
#include "opt/pruned.h"
#include "opt/schemes.h"
#include "tech/params.h"
#include "util/parallel.h"

namespace nanocache::opt {
namespace {

using cachemodel::CacheModel;

/// One sampled point of the enlarged space.  The full cross product is
/// 5 assoc x 4 banks x 5 nodes x 3 schemes x ladder; sampling keeps the
/// suite fast while still covering every axis value at least once.
struct SpacePoint {
  int node_nm;
  int associativity;  // -1 = fully associative
  std::uint32_t banks;
};

const std::vector<SpacePoint>& sampled_points() {
  static const std::vector<SpacePoint> points = {
      {65, 1, 1}, {65, 4, 2}, {90, 2, 1}, {45, 8, 4},
      {32, 2, 8}, {22, 4, 1}, {65, -1, 1},
  };
  return points;
}

/// Per-node grid, mirroring what api::Service builds for node explorers:
/// the paper's Vth ladder crossed with the node's own oxide window.
KnobGrid node_grid(const tech::TechnologyParams& params) {
  KnobGrid grid = KnobGrid::paper_default();
  grid.tox_values = tech::node_tox_grid(params);
  return grid;
}

std::unique_ptr<CacheModel> build_cache(const SpacePoint& p) {
  const auto params = tech::node_params(p.node_nm);
  tech::DeviceModel dev(params);
  return std::make_unique<CacheModel>(
      cachemodel::extended_organization(16 * 1024, false, p.associativity,
                                        p.banks, dev),
      tech::DeviceModel(params));
}

/// Targets spanning infeasible through unconstrained, anchored to the
/// point's own feasibility bound so every node/organization gets both
/// regimes.
std::vector<double> targets_around(const ComponentEvaluator& eval,
                                   const KnobGrid& grid, Scheme scheme,
                                   const OptSpace& space) {
  const double floor_s = min_access_time(eval, grid, scheme, space);
  return {0.8 * floor_s, 1.05 * floor_s, 1.3 * floor_s, 2.0 * floor_s};
}

void expect_identical(const OptOutcome<SchemeResult>& pruned,
                      const OptOutcome<SchemeResult>& exhaustive,
                      const std::string& context) {
  ASSERT_EQ(pruned.has_value(), exhaustive.has_value()) << context;
  if (!pruned.has_value()) {
    EXPECT_EQ(pruned.why().describe(), exhaustive.why().describe()) << context;
    return;
  }
  // Bitwise equality (EXPECT_EQ, not NEAR): same argmin, same tie-breaks,
  // same floating-point association.
  EXPECT_EQ(pruned->leakage_w, exhaustive->leakage_w) << context;
  EXPECT_EQ(pruned->access_time_s, exhaustive->access_time_s) << context;
  EXPECT_EQ(pruned->dynamic_energy_j, exhaustive->dynamic_energy_j) << context;
  EXPECT_TRUE(pruned->assignment == exhaustive->assignment) << context;
}

void run_differential(const ComponentEvaluator& eval, const KnobGrid& grid,
                      const OptSpace& space, const std::string& label) {
  for (const Scheme scheme :
       {Scheme::kPerComponent, Scheme::kArrayPeriphery, Scheme::kUniform}) {
    for (const double target : targets_around(eval, grid, scheme, space)) {
      const auto pruned =
          optimize_single_cache(eval, grid, scheme, target, space);
      const auto exhaustive =
          optimize_exhaustive(eval, grid, scheme, target, space);
      expect_identical(pruned, exhaustive,
                       label + " scheme=" + scheme_name(scheme) +
                           " target=" + std::to_string(target));
    }
  }
}

std::string point_label(const SpacePoint& p) {
  return "node=" + std::to_string(p.node_nm) +
         " assoc=" + std::to_string(p.associativity) +
         " banks=" + std::to_string(p.banks);
}

TEST(DesignSpaceSearch, PrunedMatchesExhaustiveAcrossTheSampledGrid) {
  for (const auto& p : sampled_points()) {
    const auto cache = build_cache(p);
    run_differential(structural_evaluator(*cache),
                     node_grid(tech::node_params(p.node_nm)),
                     OptSpace::extended(), point_label(p));
  }
}

TEST(DesignSpaceSearch, PrunedMatchesExhaustiveWithPowerGating) {
  // Gating doubles every option table; the dominance argument must still
  // hold.  Covered on the base space and on an extended point.
  OptSpace gated_base = OptSpace::base();
  gated_base.gating.enabled = true;
  tech::DeviceModel dev(tech::bptm65());
  const CacheModel fixed(cachemodel::l1_organization(16 * 1024, dev),
                         tech::DeviceModel(dev.params()));
  run_differential(structural_evaluator(fixed), KnobGrid::paper_default(),
                   gated_base, "gated/base");

  OptSpace gated_ext = OptSpace::extended();
  gated_ext.gating.enabled = true;
  const SpacePoint p{45, 4, 2};
  const auto cache = build_cache(p);
  run_differential(structural_evaluator(*cache),
                   node_grid(tech::node_params(p.node_nm)), gated_ext,
                   "gated/" + point_label(p));
}

TEST(DesignSpaceSearch, PrunedMatchesExhaustiveAtEveryThreadCount) {
  const SpacePoint p{32, 4, 2};
  const auto cache = build_cache(p);
  const auto eval = structural_evaluator(*cache);
  const auto grid = node_grid(tech::node_params(p.node_nm));
  const int before = par::default_threads();
  for (const int threads : {1, 8}) {
    par::set_default_threads(threads);
    run_differential(eval, grid, OptSpace::extended(),
                     "threads=" + std::to_string(threads));
  }
  par::set_default_threads(before);
}

TEST(DesignSpaceSearch, GatingNeverIncreasesOptimalLeakage) {
  // With the budget already folded into the constraint, enabling gating
  // only adds options; the optimum can only improve or stay put.
  tech::DeviceModel dev(tech::bptm65());
  const CacheModel fixed(cachemodel::l1_organization(16 * 1024, dev),
                         tech::DeviceModel(dev.params()));
  const auto eval = structural_evaluator(fixed);
  const auto grid = KnobGrid::paper_default();
  OptSpace gated = OptSpace::base();
  gated.gating.enabled = true;
  for (const Scheme scheme :
       {Scheme::kPerComponent, Scheme::kArrayPeriphery, Scheme::kUniform}) {
    for (const double target : targets_around(eval, grid, scheme,
                                              OptSpace::base())) {
      const auto plain = optimize_single_cache(eval, grid, scheme, target);
      const auto with_sleep =
          optimize_single_cache(eval, grid, scheme, target, gated);
      if (!plain.has_value()) continue;
      ASSERT_TRUE(with_sleep.has_value());
      EXPECT_LE(with_sleep->leakage_w, plain->leakage_w)
          << scheme_name(scheme) << " target=" << target;
    }
  }
}

}  // namespace
}  // namespace nanocache::opt
