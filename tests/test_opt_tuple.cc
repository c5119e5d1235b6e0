// Tests for the (Tox, Vth) tuple-menu solver: feasibility, constraint
// satisfaction, monotonicity in menu cardinality, agreement with a
// brute-force assignment search on a tiny instance, and the Figure 2
// orderings.
#include <gtest/gtest.h>

#include <memory>

#include "energy/memory_system.h"
#include "opt/tuple_menu.h"
#include "util/error.h"

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
  // Supersets of menus can only improve the optimum (DP is exact up to the
  // documented thinning; allow a hair of slack for it).
  EXPECT_LE(e22->energy_j, e11->energy_j * 1.02);
  EXPECT_LE(e33->energy_j, e22->energy_j * 1.02);
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
