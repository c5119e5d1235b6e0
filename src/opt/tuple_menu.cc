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

/// The eight AMAT-weighted option tables over every grid pair (vth-major):
/// L1 components at weight 1, L2 components' delay and dynamic energy at
/// weight mL1.
using SystemTables =
    std::array<std::vector<ComponentOption>, kSystemComponents>;

/// DP state across the eight system components.
struct SysCombo {
  double wdelay_s = 0.0;   ///< AMAT-weighted delay sum
  double leakage_w = 0.0;
  double wdyn_j = 0.0;     ///< access-weighted dynamic energy
  std::array<std::uint16_t, kSystemComponents> choice{};
};

/// Main-memory terms every design adds to its eight component sums.
struct MemoryTerms {
  double amat_s = 0.0;
  double dynamic_j = 0.0;
  double background_w = 0.0;
};

/// A design's totals from its component sums; energy uses the achieved
/// AMAT.  Designs and completion bounds both go through here, so a bound
/// rounds exactly as the designs it bounds.
struct Totals {
  double amat_s = 0.0;
  double leakage_w = 0.0;
  double energy_j = 0.0;
};

Totals system_totals(const SysCombo& c, const MemoryTerms& mem) {
  Totals t;
  t.amat_s = c.wdelay_s + mem.amat_s;
  t.leakage_w = c.leakage_w + mem.background_w;
  t.energy_j = c.wdyn_j + mem.dynamic_j + t.leakage_w * t.amat_s;
  return t;
}

/// (AMAT, energy) staircase of real designs of the spec being solved:
/// AMAT ascending, energy strictly descending (a `frontier(0)`).
class Incumbent {
 public:
  Incumbent() = default;
  explicit Incumbent(const std::vector<SystemDesignPoint>& frontier) {
    stair_.reserve(frontier.size());
    for (const auto& d : frontier) stair_.emplace_back(d.amat_s, d.energy_j);
  }

  bool empty() const { return stair_.empty(); }

  /// True iff some incumbent has AMAT <= `amat_s` and energy strictly
  /// below `energy_j`: the staircase point with the largest AMAT <= amat_s
  /// has the least energy among them.
  bool beats(double amat_s, double energy_j) const {
    const auto it = std::upper_bound(
        stair_.begin(), stair_.end(), amat_s,
        [](double a, const std::pair<double, double>& s) {
          return a < s.first;
        });
    return it != stair_.begin() && std::prev(it)->second < energy_j;
  }

 private:
  std::vector<std::pair<double, double>> stair_;
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

/// The option tables of `system` over every grid pair, built once per
/// solve and sliced per menu.
SystemTables system_tables(const energy::MemorySystemModel& system,
                           const std::vector<tech::DeviceKnobs>& pairs) {
  const double ml1 = system.miss().l1;
  const auto l1_eval =
      [&system](ComponentKind kind, const tech::DeviceKnobs& k) {
        return system.l1().component(kind, k);
      };
  const auto l2_eval =
      [&system](ComponentKind kind, const tech::DeviceKnobs& k) {
        return system.l2().component(kind, k);
      };
  SystemTables tables;
  for (ComponentKind kind : kAllComponents) {
    const auto i = static_cast<std::size_t>(kind);
    tables[i] = component_options(l1_eval, kind, pairs);
    tables[kNumComponents + i] = component_options(l2_eval, kind, pairs);
    for (auto& o : tables[kNumComponents + i]) {
      o.delay_s *= ml1;
      o.dynamic_j *= ml1;
    }
  }
  return tables;
}

/// Everything the menus of one solve share.
struct SolveInputs {
  const KnobGrid& grid;
  SystemTables tables;
  MemoryTerms mem;
};

/// The weak front of one menu (or of a spec's menus) and the work the DPs
/// did.
struct MenuResult {
  std::vector<SystemDesignPoint> designs;
  std::uint64_t formed = 0;  ///< designs the DP formed
  std::uint64_t pruned = 0;  ///< product states the completion bound dropped
};

std::size_t axis_index(const std::vector<double>& axis, double value) {
  return static_cast<std::size_t>(
      std::lower_bound(axis.begin(), axis.end(), value) - axis.begin());
}

MenuResult menu_front(const SolveInputs& in,
                      const std::vector<double>& vth_menu,
                      const std::vector<double>& tox_menu,
                      const Incumbent& incumbent) {
  // The menu's pairs in `menu_pairs` order, sliced from the grid tables and
  // dominance-pruned before the DP forms products.
  std::vector<std::size_t> pair_index;
  for (const double vth : vth_menu) {
    const std::size_t vi = axis_index(in.grid.vth_values, vth);
    for (const double tox : tox_menu) {
      pair_index.push_back(vi * in.grid.tox_values.size() +
                           axis_index(in.grid.tox_values, tox));
    }
  }
  std::array<std::vector<ComponentOption>, kSystemComponents> options;
  // Per-objective minima of each component's options: the cheapest
  // completion any partial design can still reach.
  std::array<ComponentOption, kSystemComponents> least;
  for (std::size_t ci = 0; ci < kSystemComponents; ++ci) {
    std::vector<ComponentOption> table;
    table.reserve(pair_index.size());
    for (const std::size_t p : pair_index) table.push_back(in.tables[ci][p]);
    options[ci] = prefilter_options(std::move(table));
    least[ci] = options[ci].front();
    for (const auto& o : options[ci]) {
      least[ci].delay_s = std::min(least[ci].delay_s, o.delay_s);
      least[ci].leakage_w = std::min(least[ci].leakage_w, o.leakage_w);
      least[ci].dynamic_j = std::min(least[ci].dynamic_j, o.dynamic_j);
    }
  }
  // A state is dropped when an incumbent strictly beats the totals of its
  // partial sums plus the remaining minima, summed left to right as the
  // designs are: rounding is monotone, so that bounds every completion.
  const auto beaten = [&](SysCombo c, std::size_t ci) {
    for (std::size_t j = ci + 1; j < kSystemComponents; ++j) {
      c.wdelay_s += least[j].delay_s;
      c.leakage_w += least[j].leakage_w;
      c.wdyn_j += least[j].dynamic_j;
    }
    const auto t = system_totals(c, in.mem);
    return incumbent.beats(t.amat_s, t.energy_j);
  };

  // Pareto-DP over the eight components.
  MenuResult result;
  std::vector<SysCombo> combos{SysCombo{}};
  for (std::size_t ci = 0; ci < kSystemComponents; ++ci) {
    detail::count_combos_evaluated(combos.size() * options[ci].size());
    detail::count_combos_skipped(combos.size() *
                                 (pair_index.size() - options[ci].size()));
    std::vector<SysCombo> next;
    next.reserve(combos.size() * options[ci].size());
    for (const auto& c : combos) {
      for (std::size_t oi = 0; oi < options[ci].size(); ++oi) {
        SysCombo n = c;
        n.wdelay_s += options[ci][oi].delay_s;
        n.leakage_w += options[ci][oi].leakage_w;
        n.wdyn_j += options[ci][oi].dynamic_j;
        n.choice[ci] = static_cast<std::uint16_t>(oi);
        if (!incumbent.empty() && beaten(n, ci)) {
          ++result.pruned;
          continue;
        }
        next.push_back(n);
      }
    }
    combos = pareto_min3(
        std::move(next), [](const SysCombo& c) { return c.wdelay_s; },
        [](const SysCombo& c) { return c.leakage_w; },
        [](const SysCombo& c) { return c.wdyn_j; });
  }
  result.formed = combos.size();

  // Design points, reduced to the menu's weak front before the menus — the
  // only heap members — are attached.
  std::vector<SystemDesignPoint> designs;
  designs.reserve(combos.size());
  for (const auto& c : combos) {
    const auto t = system_totals(c, in.mem);
    SystemDesignPoint d;
    d.amat_s = t.amat_s;
    d.leakage_w = t.leakage_w;
    d.energy_j = t.energy_j;
    for (std::size_t i = 0; i < kNumComponents; ++i) {
      d.l1.set(static_cast<ComponentKind>(i), options[i][c.choice[i]].knobs);
      d.l2.set(static_cast<ComponentKind>(i),
               options[kNumComponents + i][c.choice[kNumComponents + i]].knobs);
    }
    designs.push_back(std::move(d));
  }
  result.designs = weak_front(std::move(designs));
  for (auto& d : result.designs) {
    d.tox_menu = tox_menu;
    d.vth_menu = vth_menu;
  }
  return result;
}

/// Every menu of the (tox, vth) menu cross product, fanned over the pool:
/// the weak front of the per-menu fronts concatenated in enumeration order
/// (identical output at any thread count) and the menus' summed work.
MenuResult solve_menus(const SolveInputs& in,
                       const std::vector<std::vector<double>>& tox_menus,
                       const std::vector<std::vector<double>>& vth_menus,
                       const Incumbent& incumbent) {
  const std::size_t nv = vth_menus.size();
  auto per_menu = par::parallel_map(
      tox_menus.size() * nv, [&](std::size_t i) {
        return menu_front(in, vth_menus[i % nv], tox_menus[i / nv],
                          incumbent);
      });
  MenuResult all;
  for (auto& menu : per_menu) {
    all.formed += menu.formed;
    all.pruned += menu.pruned;
    all.designs.insert(all.designs.end(),
                       std::make_move_iterator(menu.designs.begin()),
                       std::make_move_iterator(menu.designs.end()));
  }
  // A design beaten within its own menu is beaten globally, so the global
  // weak front is the weak front of the concatenated per-menu fronts.
  all.designs = weak_front(std::move(all.designs));
  return all;
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

MenuFront TupleMenuSolver::solve(const MenuSpec& spec) const {
  NC_REQUIRE(spec.num_tox >= 1 && spec.num_vth >= 1,
             "menu cardinalities must be >= 1");
  metrics::TraceSpan span("opt.tuple_menu.solve");
  auto& registry = metrics::Registry::instance();
  static auto& menus = registry.counter("opt.menus_enumerated");
  static auto& designs = registry.counter("opt.designs_considered");
  static auto& pruned = registry.counter("opt.menu_states_pruned");
  static auto& seed_menus = registry.counter("opt.menu_seed_menus");

  const auto tox_menus = choose_subsets(grid_.tox_values, spec.num_tox);
  const auto vth_menus = choose_subsets(grid_.vth_values, spec.num_vth);
  const SolveInputs in{grid_, system_tables(system_, grid_.pairs()),
                       {system_.memory_amat_term_s(),
                        system_.memory_dynamic_energy_j(),
                        system_.memory().background_power_w}};

  // Seed chain: the sub-spec (max(1, tox-1), max(1, vth-1)) down to 1x1,
  // solved smallest first, each seeded by the one below it.  A sub-spec's
  // designs are designs of every larger spec, so its frontier is a set of
  // real incumbents for the next.
  std::vector<MenuSpec> seeds;
  for (MenuSpec s = spec; s.num_tox > 1 || s.num_vth > 1;) {
    s = {std::max(1, s.num_tox - 1), std::max(1, s.num_vth - 1)};
    seeds.push_back(s);
  }
  Incumbent incumbent;
  for (auto s = seeds.rbegin(); s != seeds.rend(); ++s) {
    const auto seed_tox = choose_subsets(grid_.tox_values, s->num_tox);
    const auto seed_vth = choose_subsets(grid_.vth_values, s->num_vth);
    seed_menus.add(seed_tox.size() * seed_vth.size());
    const MenuFront seed(
        solve_menus(in, seed_tox, seed_vth, incumbent).designs);
    incumbent = Incumbent(seed.frontier(0));
  }

  auto result = solve_menus(in, tox_menus, vth_menus, incumbent);
  menus.add(tox_menus.size() * vth_menus.size());
  designs.add(result.formed);
  pruned.add(result.pruned);
  return MenuFront(std::move(result.designs));
}

}  // namespace nanocache::opt
