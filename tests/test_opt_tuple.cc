// Tests for the (Tox, Vth) tuple-menu solver: feasibility, constraint
// satisfaction, monotonicity in menu cardinality, agreement with a
// brute-force assignment search on a tiny instance, and the Figure 2
// orderings, and a full-enumeration differential check of the pruned
// solve.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <numeric>

#include "energy/memory_system.h"
#include "opt/tuple_menu.h"
#include "util/error.h"
#include "util/metrics.h"
#include "util/parallel.h"

namespace nanocache::opt {
namespace {

using cachemodel::CacheModel;
using cachemodel::ComponentKind;
using cachemodel::kAllComponents;

struct SystemFixture {
  SystemFixture() {
    tech::DeviceModel dev(tech::bptm65());
    l1 = std::make_unique<CacheModel>(
        cachemodel::l1_organization(16 * 1024, dev),
        tech::DeviceModel(dev.params()));
    l2 = std::make_unique<CacheModel>(
        cachemodel::l2_organization(512 * 1024, dev),
        tech::DeviceModel(dev.params()));
    system = std::make_unique<energy::MemorySystemModel>(
        *l1, *l2, energy::MissRates{0.0318, 0.189},
        energy::MainMemoryParams{});
  }
  std::unique_ptr<CacheModel> l1;
  std::unique_ptr<CacheModel> l2;
  std::unique_ptr<energy::MemorySystemModel> system;
};

SystemFixture& fixture() {
  static SystemFixture f;
  return f;
}

TEST(TupleSolver, FrontierIsSortedAndNonDominated) {
  const TupleMenuSolver solver(*fixture().system, KnobGrid::paper_default());
  const auto front = solver.solve({2, 2}).frontier(64);
  ASSERT_GT(front.size(), 5u);
  for (std::size_t i = 1; i < front.size(); ++i) {
    EXPECT_GT(front[i].amat_s, front[i - 1].amat_s);
    EXPECT_LT(front[i].energy_j, front[i - 1].energy_j);
  }
}

TEST(TupleSolver, BestAtRespectsConstraint) {
  const TupleMenuSolver solver(*fixture().system, KnobGrid::paper_default());
  const auto front = solver.solve({2, 2});
  const double min_amat = front.min_amat_s();
  const auto r = front.best_at(min_amat * 1.2);
  ASSERT_TRUE(r.has_value());
  EXPECT_LE(r->amat_s, min_amat * 1.2 * (1 + 1e-12));
  EXPECT_FALSE(front.best_at(min_amat * 0.5).has_value());
  EXPECT_THROW(front.best_at(-1.0), Error);
}

TEST(TupleSolver, DesignRespectsMenuCardinality) {
  const TupleMenuSolver solver(*fixture().system, KnobGrid::paper_default());
  const auto front = solver.solve({2, 2});
  const auto r = front.best_at(front.min_amat_s() * 1.25);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->tox_menu.size(), 2u);
  EXPECT_EQ(r->vth_menu.size(), 2u);
  // Every assigned knob pair must come from the menu.
  auto in_menu = [&](const tech::DeviceKnobs& k) {
    bool vth_ok = false;
    bool tox_ok = false;
    for (double v : r->vth_menu) vth_ok |= (v == k.vth_v);
    for (double t2 : r->tox_menu) tox_ok |= (t2 == k.tox_a);
    return vth_ok && tox_ok;
  };
  for (ComponentKind kind : kAllComponents) {
    EXPECT_TRUE(in_menu(r->l1.get(kind)));
    EXPECT_TRUE(in_menu(r->l2.get(kind)));
  }
}

TEST(TupleSolver, MoreMenuFreedomNeverHurts) {
  const TupleMenuSolver solver(*fixture().system, KnobGrid::paper_default());
  const auto f11 = solver.solve({1, 1});
  const double t = f11.min_amat_s() * 1.1;
  const auto e11 = f11.best_at(t);
  const auto e22 = solver.solve({2, 2}).best_at(t);
  const auto e33 = solver.solve({3, 3}).best_at(t);
  ASSERT_TRUE(e11 && e22 && e33);
  // Supersets of menus can only improve the optimum: every smaller-menu
  // design is a design of the larger spec, and the DP is exact.
  EXPECT_LE(e22->energy_j, e11->energy_j);
  EXPECT_LE(e33->energy_j, e22->energy_j);
}

TEST(TupleSolver, EnergyMatchesSystemEvaluation) {
  // The DP's weighted sums must agree with the full MemorySystemModel
  // evaluation of the returned assignment (nominal coupling).
  const auto& f = fixture();
  const TupleMenuSolver solver(*f.system, KnobGrid::paper_default());
  const auto front = solver.solve({2, 2});
  const auto r = front.best_at(front.min_amat_s() * 1.3);
  ASSERT_TRUE(r.has_value());
  const auto m = f.system->evaluate(r->l1, r->l2);
  EXPECT_NEAR(m.amat_s, r->amat_s, r->amat_s * 1e-9);
  EXPECT_NEAR(m.total_energy_j, r->energy_j, r->energy_j * 1e-9);
  EXPECT_NEAR(m.leakage_w, r->leakage_w, r->leakage_w * 1e-9);
}

TEST(TupleSolver, MatchesBruteForceOnTinyInstance) {
  // 1 Tox x 2 Vth menu, fixed menu values: per-component choice is binary,
  // so the full 2^8 assignment space is enumerable.
  const auto& f = fixture();
  KnobGrid tiny;
  tiny.vth_values = {0.30, 0.45};
  tiny.tox_values = {12.0};
  const TupleMenuSolver solver(*f.system, tiny);
  const auto front = solver.solve({1, 2});
  const double target = front.min_amat_s() * 1.15;
  const auto fast = front.best_at(target);
  ASSERT_TRUE(fast.has_value());

  const auto pairs = menu_pairs({0.30, 0.45}, {12.0});
  double best_energy = 1e9;
  for (int mask = 0; mask < 256; ++mask) {
    cachemodel::ComponentAssignment a1;
    cachemodel::ComponentAssignment a2;
    for (int c = 0; c < 4; ++c) {
      a1.set(static_cast<ComponentKind>(c), pairs[(mask >> c) & 1]);
      a2.set(static_cast<ComponentKind>(c), pairs[(mask >> (4 + c)) & 1]);
    }
    const auto m = f.system->evaluate(a1, a2);
    if (m.amat_s <= target && m.total_energy_j < best_energy) {
      best_energy = m.total_energy_j;
    }
  }
  EXPECT_NEAR(fast->energy_j, best_energy, best_energy * 1e-6);
}

/// One fully enumerated design: its totals and the index of its menu.
struct BruteDesign {
  double amat_s;
  double energy_j;
  std::size_t menu;
};

/// Totals of one assignment (pair index per system component), summed in
/// the solver's order: components 0..7 left to right from zero, L2 delay
/// and dynamic energy weighted by the L1 miss rate.
std::pair<double, double> brute_totals(
    const energy::MemorySystemModel& system,
    const std::array<cachemodel::ComponentMetrics, 8>& metrics) {
  const double ml1 = system.miss().l1;
  double wdelay = 0.0;
  double leakage = 0.0;
  double wdyn = 0.0;
  for (std::size_t c = 0; c < 8; ++c) {
    const auto& m = metrics[c];
    wdelay += c < 4 ? m.delay_s : m.delay_s * ml1;
    leakage += m.leakage_w;
    wdyn += c < 4 ? m.dynamic_energy_j : m.dynamic_energy_j * ml1;
  }
  const double amat = wdelay + system.memory_amat_term_s();
  const double leak = leakage + system.memory().background_power_w;
  return {amat, wdyn + system.memory_dynamic_energy_j() + leak * amat};
}

cachemodel::ComponentMetrics component_of(
    const energy::MemorySystemModel& system, std::size_t c,
    const tech::DeviceKnobs& knobs) {
  const auto kind = static_cast<ComponentKind>(c % 4);
  return c < 4 ? system.l1().component(kind, knobs)
               : system.l2().component(kind, knobs);
}

TEST(TupleSolver, PrunedSolveMatchesFullEnumeration) {
  // 3 Vth x 2 Tox, spec 2x2: 3 menus of 4^8 designs each, every one
  // enumerated.  The solve (seeded by 1x1, bound-pruned, uncapped DP) must
  // answer min-AMAT, best-at (energy and menu) and the full frontier
  // (AMAT, energy, menu) exactly as a scan over all designs, at 1 and 8
  // threads.
  const auto& f = fixture();
  KnobGrid grid;
  grid.vth_values = {0.25, 0.35, 0.45};
  grid.tox_values = {11.0, 13.0};
  const auto tox_menus = choose_subsets(grid.tox_values, 2);
  const auto vth_menus = choose_subsets(grid.vth_values, 2);

  std::vector<BruteDesign> all;
  std::vector<std::pair<std::vector<double>, std::vector<double>>> labels;
  for (const auto& tox_menu : tox_menus) {
    for (const auto& vth_menu : vth_menus) {
      const auto pairs = menu_pairs(vth_menu, tox_menu);
      std::vector<std::array<cachemodel::ComponentMetrics, 8>> table(
          pairs.size());
      for (std::size_t p = 0; p < pairs.size(); ++p) {
        for (std::size_t c = 0; c < 8; ++c) {
          table[p][c] = component_of(*f.system, c, pairs[p]);
        }
      }
      const std::size_t menu = labels.size();
      labels.emplace_back(tox_menu, vth_menu);
      std::array<cachemodel::ComponentMetrics, 8> metrics;
      for (std::size_t code = 0; code < (std::size_t{1} << 16); ++code) {
        for (std::size_t c = 0; c < 8; ++c) {
          metrics[c] = table[(code >> (2 * c)) & 3][c];
        }
        const auto [amat, energy] = brute_totals(*f.system, metrics);
        all.push_back({amat, energy, menu});
      }
    }
  }
  ASSERT_EQ(all.size(), 3u * 65536u);

  double min_amat = all.front().amat_s;
  double max_amat = all.front().amat_s;
  for (const auto& d : all) {
    min_amat = std::min(min_amat, d.amat_s);
    max_amat = std::max(max_amat, d.amat_s);
  }
  // Strict (AMAT, energy) frontier, first enumerated on exact ties.
  std::vector<std::size_t> order(all.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     if (all[a].amat_s != all[b].amat_s) {
                       return all[a].amat_s < all[b].amat_s;
                     }
                     return all[a].energy_j < all[b].energy_j;
                   });
  std::vector<BruteDesign> frontier;
  for (const std::size_t i : order) {
    if (frontier.empty() || all[i].energy_j < frontier.back().energy_j) {
      frontier.push_back(all[i]);
    }
  }
  ASSERT_GT(frontier.size(), 20u);
  std::vector<double> targets;
  for (int i = 0; i <= 24; ++i) {
    targets.push_back(min_amat * 0.99 + (max_amat - min_amat * 0.99) * i / 24);
  }
  for (std::size_t i = 0; i < frontier.size(); i += 5) {
    targets.push_back(frontier[i].amat_s);
  }

  auto& pruned =
      metrics::Registry::instance().counter("opt.menu_states_pruned");
  for (const int threads : {1, 8}) {
    par::set_default_threads(threads);
    const auto pruned0 = pruned.value();
    const auto front = TupleMenuSolver(*f.system, grid).solve({2, 2});
    par::set_default_threads(0);
    EXPECT_GT(pruned.value(), pruned0) << "the 1x1 seed pruned nothing";
    EXPECT_EQ(front.min_amat_s(), min_amat) << threads;

    for (const double target : targets) {
      const BruteDesign* best = nullptr;
      for (const auto& d : all) {
        if (d.amat_s > target) continue;
        if (best == nullptr || d.energy_j < best->energy_j) best = &d;
      }
      const auto got = front.best_at(target);
      ASSERT_EQ(got.has_value(), best != nullptr) << threads << " " << target;
      if (best == nullptr) continue;
      EXPECT_EQ(got->energy_j, best->energy_j) << threads << " " << target;
      EXPECT_EQ(got->tox_menu, labels[best->menu].first) << target;
      EXPECT_EQ(got->vth_menu, labels[best->menu].second) << target;
    }

    const auto got = front.frontier(0);
    ASSERT_EQ(got.size(), frontier.size()) << threads;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].amat_s, frontier[i].amat_s) << threads << " " << i;
      EXPECT_EQ(got[i].energy_j, frontier[i].energy_j) << threads << " " << i;
      EXPECT_EQ(got[i].tox_menu, labels[frontier[i].menu].first) << i;
      EXPECT_EQ(got[i].vth_menu, labels[frontier[i].menu].second) << i;
      // The stored assignment re-sums to the stored totals.
      std::array<cachemodel::ComponentMetrics, 8> metrics;
      for (std::size_t c = 0; c < 8; ++c) {
        const auto kind = static_cast<ComponentKind>(c % 4);
        metrics[c] = component_of(*f.system, c,
                                  c < 4 ? got[i].l1.get(kind)
                                        : got[i].l2.get(kind));
      }
      const auto [amat, energy] = brute_totals(*f.system, metrics);
      EXPECT_EQ(amat, got[i].amat_s) << i;
      EXPECT_EQ(energy, got[i].energy_j) << i;
    }
  }
}

TEST(TupleSolver, Figure2HeadlineOrderings) {
  // The claims the paper draws from Figure 2, evaluated at a mid target.
  const TupleMenuSolver solver(*fixture().system, KnobGrid::paper_default());
  const double t = solver.solve({3, 3}).min_amat_s() * 1.45;
  const auto e22 = solver.solve({2, 2}).best_at(t);
  const auto e23 = solver.solve({2, 3}).best_at(t);
  const auto e12 = solver.solve({1, 2}).best_at(t);
  const auto e21 = solver.solve({2, 1}).best_at(t);
  ASSERT_TRUE(e22 && e23 && e12 && e21);
  // 2 Tox + 3 Vth at least as good as 2+2; 2+2 within a few percent.
  EXPECT_LE(e23->energy_j, e22->energy_j * 1.02);
  EXPECT_LE(e22->energy_j, e23->energy_j * 1.06);
  // Vth is the stronger knob: 1 Tox + 2 Vth beats 2 Tox + 1 Vth here.
  EXPECT_LT(e12->energy_j, e21->energy_j);
}

TEST(TupleSolver, RejectsBadSpecs) {
  const TupleMenuSolver solver(*fixture().system, KnobGrid::paper_default());
  EXPECT_THROW(solver.solve({0, 2}), Error);
  EXPECT_THROW(solver.solve({2, 9}), Error);  // exceeds grid size
}

}  // namespace
}  // namespace nanocache::opt
