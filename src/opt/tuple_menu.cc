#include "opt/tuple_menu.h"

#include <algorithm>
#include <array>
#include <limits>
#include <numeric>

#include "opt/pareto.h"
#include "opt/pruned.h"
#include "util/error.h"
#include "util/metrics.h"
#include "util/parallel.h"
#include "util/trace_span.h"

namespace nanocache::opt {

using cachemodel::ComponentAssignment;
using cachemodel::ComponentKind;
using cachemodel::kAllComponents;
using cachemodel::kNumComponents;

namespace {

constexpr std::size_t kSystemComponents = 2 * kNumComponents;  // L1 + L2

/// DP state across the eight system components.
struct SysCombo {
  double wdelay_s = 0.0;   ///< AMAT-weighted delay sum
  double leakage_w = 0.0;
  double wdyn_j = 0.0;     ///< access-weighted dynamic energy
  std::array<std::uint16_t, kSystemComponents> choice{};
};

/// Strict-only weak-dominance pre-filter on one weighted option table:
/// drop an option iff another is <= in all three objectives and strictly
/// better in at least one.  Exact full ties are kept and survivor order is
/// preserved, so the DP's stable first-wins representative choice — and
/// with it every materialized design — is untouched (docs/MODELING.md §10).
std::vector<ComponentOption> prefilter_options(
    std::vector<ComponentOption> table) {
  std::vector<ComponentOption> kept;
  kept.reserve(table.size());
  for (std::size_t i = 0; i < table.size(); ++i) {
    bool dominated = false;
    for (std::size_t j = 0; j < table.size() && !dominated; ++j) {
      if (j == i) continue;
      const auto& a = table[j];
      const auto& b = table[i];
      dominated = a.delay_s <= b.delay_s && a.leakage_w <= b.leakage_w &&
                  a.dynamic_j <= b.dynamic_j &&
                  (a.delay_s < b.delay_s || a.leakage_w < b.leakage_w ||
                   a.dynamic_j < b.dynamic_j);
    }
    if (!dominated) kept.push_back(table[i]);
  }
  return kept;
}

/// The weak (AMAT, energy) front of `designs`, in input order: a design is
/// kept iff no design before it in the stable (AMAT, energy, input) order
/// has strictly lower energy (docs/MODELING.md §10a).
std::vector<SystemDesignPoint> weak_front(
    std::vector<SystemDesignPoint> designs) {
  std::vector<std::size_t> order(designs.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     const auto& x = designs[a];
                     const auto& y = designs[b];
                     if (x.amat_s != y.amat_s) return x.amat_s < y.amat_s;
                     return x.energy_j < y.energy_j;
                   });
  std::vector<bool> keep(designs.size(), false);
  double best_energy = std::numeric_limits<double>::infinity();
  for (const std::size_t i : order) {
    if (designs[i].energy_j <= best_energy) {
      best_energy = designs[i].energy_j;
      keep[i] = true;
    }
  }
  std::vector<SystemDesignPoint> kept;
  for (std::size_t i = 0; i < designs.size(); ++i) {
    if (keep[i]) kept.push_back(std::move(designs[i]));
  }
  return kept;
}

}  // namespace

double MenuFront::min_amat_s() const {
  double best = std::numeric_limits<double>::infinity();
  for (const auto& d : designs_) best = std::min(best, d.amat_s);
  return best;
}

std::optional<SystemDesignPoint> MenuFront::best_at(
    double amat_target_s) const {
  NC_REQUIRE(amat_target_s > 0.0, "AMAT target must be positive");
  const SystemDesignPoint* best = nullptr;
  for (const auto& d : designs_) {
    if (d.amat_s > amat_target_s) continue;
    if (best == nullptr || d.energy_j < best->energy_j) best = &d;
  }
  if (best == nullptr) return std::nullopt;
  return *best;
}

std::vector<SystemDesignPoint> MenuFront::frontier(
    std::size_t max_points) const {
  auto front = pareto_min2(
      designs_, [](const SystemDesignPoint& d) { return d.amat_s; },
      [](const SystemDesignPoint& d) { return d.energy_j; });
  thin_to(front, max_points);
  return front;
}

TupleMenuSolver::TupleMenuSolver(const energy::MemorySystemModel& system,
                                 KnobGrid grid)
    : system_(system), grid_(std::move(grid)) {
  grid_.validate();
}

std::vector<SystemDesignPoint> TupleMenuSolver::menu_front(
    const std::vector<double>& vth_menu,
    const std::vector<double>& tox_menu) const {
  const auto pairs = menu_pairs(vth_menu, tox_menu);
  const double ml1 = system_.miss().l1;

  // Per-system-component option tables with AMAT weights:
  // L1 components contribute delay/dynamic at weight 1, L2 at weight mL1.
  std::array<std::vector<ComponentOption>, kSystemComponents> options;
  const auto l1_eval =
      [this](ComponentKind kind, const tech::DeviceKnobs& k) {
        return system_.l1().component(kind, k);
      };
  const auto l2_eval =
      [this](ComponentKind kind, const tech::DeviceKnobs& k) {
        return system_.l2().component(kind, k);
      };
  std::array<std::size_t, kSystemComponents> full_n{};
  for (ComponentKind kind : kAllComponents) {
    const auto i = static_cast<std::size_t>(kind);
    options[i] = component_options(l1_eval, kind, pairs);
    options[kNumComponents + i] = component_options(l2_eval, kind, pairs);
    for (auto& o : options[kNumComponents + i]) {
      o.delay_s *= ml1;
      o.dynamic_j *= ml1;
    }
  }
  // Dominance-prune each weighted table before the DP forms products.
  for (std::size_t i = 0; i < kSystemComponents; ++i) {
    full_n[i] = options[i].size();
    options[i] = prefilter_options(std::move(options[i]));
  }

  // Pareto-DP over the eight components.
  std::vector<SysCombo> combos{SysCombo{}};
  for (std::size_t ci = 0; ci < kSystemComponents; ++ci) {
    detail::count_combos_evaluated(combos.size() * options[ci].size());
    detail::count_combos_skipped(combos.size() *
                                 (full_n[ci] - options[ci].size()));
    std::vector<SysCombo> next;
    next.reserve(combos.size() * options[ci].size());
    for (const auto& c : combos) {
      for (std::size_t oi = 0; oi < options[ci].size(); ++oi) {
        SysCombo n = c;
        n.wdelay_s += options[ci][oi].delay_s;
        n.leakage_w += options[ci][oi].leakage_w;
        n.wdyn_j += options[ci][oi].dynamic_j;
        n.choice[ci] = static_cast<std::uint16_t>(oi);
        next.push_back(n);
      }
    }
    next = pareto_min3(
        std::move(next), [](const SysCombo& c) { return c.wdelay_s; },
        [](const SysCombo& c) { return c.leakage_w; },
        [](const SysCombo& c) { return c.wdyn_j; });
    thin_to(next, state_cap_);
    combos = std::move(next);
  }

  static auto& designs_formed =
      metrics::Registry::instance().counter("opt.designs_considered");
  designs_formed.add(combos.size());

  // Design points (energy uses the achieved AMAT), reduced to the menu's
  // weak front before the menus — the only heap members — are attached.
  const double mem_amat = system_.memory_amat_term_s();
  const double mem_dyn = system_.memory_dynamic_energy_j();
  const double mem_background = system_.memory().background_power_w;
  std::vector<SystemDesignPoint> designs;
  designs.reserve(combos.size());
  for (const auto& c : combos) {
    SystemDesignPoint d;
    d.amat_s = c.wdelay_s + mem_amat;
    d.leakage_w = c.leakage_w + mem_background;
    d.energy_j = c.wdyn_j + mem_dyn + d.leakage_w * d.amat_s;
    for (std::size_t i = 0; i < kNumComponents; ++i) {
      d.l1.set(static_cast<ComponentKind>(i), options[i][c.choice[i]].knobs);
      d.l2.set(static_cast<ComponentKind>(i),
               options[kNumComponents + i][c.choice[kNumComponents + i]].knobs);
    }
    designs.push_back(std::move(d));
  }
  designs = weak_front(std::move(designs));
  for (auto& d : designs) {
    d.tox_menu = tox_menu;
    d.vth_menu = vth_menu;
  }
  return designs;
}

MenuFront TupleMenuSolver::solve(const MenuSpec& spec) const {
  NC_REQUIRE(spec.num_tox >= 1 && spec.num_vth >= 1,
             "menu cardinalities must be >= 1");
  const auto tox_menus = choose_subsets(grid_.tox_values, spec.num_tox);
  const auto vth_menus = choose_subsets(grid_.vth_values, spec.num_vth);
  // The menu enumeration is the hot axis of the Figure 2 sweep: every menu
  // runs an independent Pareto-DP and weak-front reduction, so fan the
  // (tox, vth) menu cross product over the pool and concatenate per-menu
  // fronts in enumeration order — identical output at any thread count.
  const std::size_t nv = vth_menus.size();
  metrics::TraceSpan span("opt.tuple_menu.solve");
  static auto& menus =
      metrics::Registry::instance().counter("opt.menus_enumerated");
  menus.add(tox_menus.size() * nv);
  auto per_menu = par::parallel_map(
      tox_menus.size() * nv, [&](std::size_t i) {
        return menu_front(vth_menus[i % nv], tox_menus[i / nv]);
      });
  std::vector<SystemDesignPoint> all;
  for (auto& designs : per_menu) {
    all.insert(all.end(), std::make_move_iterator(designs.begin()),
               std::make_move_iterator(designs.end()));
  }
  // A design beaten within its own menu is beaten globally, so the global
  // weak front is the weak front of the concatenated per-menu fronts.
  return MenuFront(weak_front(std::move(all)));
}

}  // namespace nanocache::opt
