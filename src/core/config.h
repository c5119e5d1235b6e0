// Experiment configuration shared by benches, examples and tests: the
// defaults the paper's evaluation uses (16 KB L1, megabyte-class L2,
// SPEC-like miss curves, DATE'05 knob grid).
#pragma once

#include <cstdint>
#include <vector>

#include "energy/memory_system.h"
#include "opt/grid.h"
#include "sim/missmodel.h"
#include "tech/params.h"

namespace nanocache::core {

/// What the Explorer does when its fitted path degrades — the fit's R^2
/// drops below the configured floor, or an evaluation asks for knobs
/// outside the fitted (Vth, Tox) domain.
enum class DegradationPolicy {
  kFallbackToStructural,  ///< use the structural model and record the event
  kStrict,                ///< throw nanocache::Error(kNumericDomain)
};

struct ExperimentConfig {
  // Cache sizes.
  std::uint64_t l1_size_bytes = 16 * 1024;
  std::uint64_t l2_size_bytes = 1024 * 1024;
  std::vector<std::uint64_t> l1_size_sweep = {4096, 8192, 16384, 32768,
                                              65536};
  std::vector<std::uint64_t> l2_size_sweep = {256 * 1024, 512 * 1024,
                                              1024 * 1024, 2048 * 1024,
                                              4096 * 1024};

  /// "Default Vth and Tox" assigned to the fixed L1 in the Section 5 L2
  /// study: mid-grid values.
  tech::DeviceKnobs default_knobs{0.35, 12.0};

  opt::KnobGrid grid = opt::KnobGrid::paper_default();
  energy::MainMemoryParams memory{};

  /// Technology the cache models are built in.  Replace for ablations
  /// (gate-leakage magnitude, temperature, area-scaling on/off, ...).
  tech::TechnologyParams technology = tech::bptm65();

  /// When true, the Explorer's optimizers consume the paper's fitted
  /// closed forms (Eqs. 1-2, fitted per cache) instead of the structural
  /// model — the exact pipeline the paper ran.  Defaults to the structural
  /// model, which is strictly more accurate; the integration tests assert
  /// that the headline claims hold on both paths.
  bool use_fitted_models = false;

  /// Minimum acceptable worst-case R^2 across a cache's eight component
  /// fits.  Below the floor, the closed forms no longer track the
  /// structural model and the fitted path degrades per
  /// `degradation_policy`.  The healthy 65 nm fits score well above this.
  double fitted_r2_floor = 0.80;

  /// Policy for fitted-path degradation events (see DegradationPolicy).
  DegradationPolicy degradation_policy =
      DegradationPolicy::kFallbackToStructural;

  /// AMAT targets for the Figure 2 sweep, seconds (paper x-axis:
  /// 1300-2100 pS).
  std::vector<double> amat_targets_s() const;

  /// Default AMAT constraint for the Section 5 table experiments; sits
  /// where mid-size L2s can run conservative knobs while the extremes are
  /// squeezed (the regime Section 5 explores).
  double amat_target_s = 1.72e-9;

  /// Miss-rate curves standing in for the paper's benchmark suite.
  sim::MissCurves miss_curves = sim::default_miss_curves();

  void validate() const;
};

}  // namespace nanocache::core
