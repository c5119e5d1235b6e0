// The (Tox, Vth) tuple problem (paper Section 5, Figure 2): given a process
// menu with at most `num_tox` distinct oxide thicknesses and `num_vth`
// distinct threshold voltages, assign a menu pair to each of the eight
// cache components (4 per level) of an L1+L2+memory system so total energy
// per access is minimized subject to an AMAT constraint.
//
// Solved exactly per menu by an uncapped Pareto-filtered DP over
// (AMAT-weighted delay, leakage, weighted dynamic energy); menus are
// enumerated exhaustively over grid subsets.
//
// One `solve` per spec enumerates every menu once and keeps only the weak
// (AMAT, energy) front of all designs: a design survives iff no design has
// AMAT <= its AMAT and strictly lower energy.  The minimum AMAT, the
// first-enumerated minimum-energy design at any target and the Pareto
// frontier all lie on that set, so `MenuFront` answers every query exactly
// as a scan over all designs would.
//
// A spec is seeded by its sub-spec (max(1, tox-1), max(1, vth-1)), solved
// the same way down to 1x1: each sub-spec design is a real design of the
// spec, so its Pareto frontier is an incumbent staircase.  Every DP drops a
// product state whose completion lower bound (the partial sums plus the
// per-component minima of the remaining options, rounded the way the
// designs are) is strictly beaten by an incumbent; no design such a state
// could complete is on the weak front, so the front, its order and its menu
// labels are unchanged (docs/MODELING.md §10a).
#pragma once

#include <optional>
#include <vector>

#include "energy/memory_system.h"
#include "opt/options.h"

namespace nanocache::opt {

/// Menu cardinality: the paper sweeps {1,2,3} x {1,2,3}.
struct MenuSpec {
  int num_tox = 2;
  int num_vth = 2;
};

/// One optimized system design.
struct SystemDesignPoint {
  double amat_s = 0.0;
  double energy_j = 0.0;        ///< total energy per access
  double leakage_w = 0.0;
  cachemodel::ComponentAssignment l1;
  cachemodel::ComponentAssignment l2;
  std::vector<double> tox_menu;
  std::vector<double> vth_menu;
};

/// The weak (AMAT, energy) front of every design a menu spec admits, in
/// enumeration order, and the three queries answered from it.
class MenuFront {
 public:
  explicit MenuFront(std::vector<SystemDesignPoint> designs)
      : designs_(std::move(designs)) {}

  /// Fastest achievable AMAT for the spec (feasibility bound).
  double min_amat_s() const;

  /// Minimum-energy design meeting `amat_target_s` (the first enumerated
  /// on ties); nullopt if infeasible.
  std::optional<SystemDesignPoint> best_at(double amat_target_s) const;

  /// Energy/AMAT Pareto frontier (best menu chosen per point), thinned to
  /// at most `max_points` when `max_points` >= 2.
  std::vector<SystemDesignPoint> frontier(std::size_t max_points = 96) const;

 private:
  std::vector<SystemDesignPoint> designs_;
};

class TupleMenuSolver {
 public:
  /// `system` supplies the two cache models and the miss statistics;
  /// evaluators default to the structural models of each level.
  TupleMenuSolver(const energy::MemorySystemModel& system, KnobGrid grid);

  /// Enumerate every menu of the spec's cardinality once, after the seed
  /// chain of sub-specs (menus fan out over the pool; output is identical
  /// at any thread count).
  MenuFront solve(const MenuSpec& spec) const;

 private:
  const energy::MemorySystemModel& system_;
  KnobGrid grid_;
};

}  // namespace nanocache::opt
