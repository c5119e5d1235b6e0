#include "opt/schemes.h"

#include <algorithm>
#include <limits>
#include <optional>

#include "opt/pareto.h"
#include "opt/pruned.h"
#include "util/error.h"
#include "util/metrics.h"
#include "util/parallel.h"

namespace nanocache::opt {

using detail::PartialCombo;

std::string scheme_name(Scheme scheme) {
  switch (scheme) {
    case Scheme::kPerComponent:
      return "I (per-component)";
    case Scheme::kArrayPeriphery:
      return "II (array/periphery)";
    case Scheme::kUniform:
      return "III (uniform)";
  }
  return "unknown";
}

namespace {

/// Every candidate the reference search compares, in formation order:
/// Scheme I folds its component tables through the Pareto-filtered DP,
/// Schemes II and III enumerate the full nested product of their block
/// tables (counted as evaluated, like the DP's merges).
std::vector<PartialCombo> all_combos(
    const std::vector<std::vector<ComponentOption>>& tables, Scheme scheme) {
  std::vector<PartialCombo> combos{PartialCombo{}};
  for (std::size_t i = 0; i < tables.size(); ++i) {
    combos = scheme == Scheme::kPerComponent
                 ? detail::merge_combos(combos, tables[i], i)
                 : detail::extend_combos(combos, tables[i], i);
  }
  if (scheme != Scheme::kPerComponent) {
    detail::count_combos_evaluated(combos.size());
  }
  return combos;
}

}  // namespace

OptOutcome<SchemeResult> optimize_single_cache(
    const ComponentEvaluator& eval, const KnobGrid& grid, Scheme scheme,
    double delay_constraint_s, const OptSpace& space) {
  static auto& optimize_calls =
      metrics::Registry::instance().counter("opt.optimize_calls");
  optimize_calls.add(1);
  return optimize_single_cache_pruned(eval, grid, scheme, delay_constraint_s,
                                      space);
}

OptOutcome<SchemeResult> optimize_exhaustive(
    const ComponentEvaluator& eval, const KnobGrid& grid, Scheme scheme,
    double delay_constraint_s, const OptSpace& space) {
  NC_REQUIRE(delay_constraint_s > 0.0, "delay constraint must be positive");
  const auto tables =
      detail::scheme_tables(eval, space, scheme, grid.pairs());
  const auto combos = all_combos(tables, scheme);
  // Argmin order: lowest leakage, then lowest delay, then first formed
  // (the grid-index tie-break the pruned engine reproduces).
  const PartialCombo* best = nullptr;
  double fastest = std::numeric_limits<double>::infinity();
  for (const auto& c : combos) {
    fastest = std::min(fastest, c.delay_s);
    if (c.delay_s > delay_constraint_s) continue;
    if (best == nullptr || c.leakage_w < best->leakage_w ||
        (c.leakage_w == best->leakage_w && c.delay_s < best->delay_s)) {
      best = &c;
    }
  }
  if (best == nullptr) {
    return detail::infeasible_delay(delay_constraint_s, fastest, scheme);
  }
  return detail::scheme_result(scheme, space, tables, *best);
}

double min_access_time(const ComponentEvaluator& eval, const KnobGrid& grid,
                       Scheme scheme, const OptSpace& space) {
  // Independent per-block minima sum to the overall minimum.
  double total = 0.0;
  for (const auto& table :
       detail::scheme_tables(eval, space, scheme, grid.pairs())) {
    double block_best = std::numeric_limits<double>::infinity();
    for (const auto& o : table) block_best = std::min(block_best, o.delay_s);
    total += block_best;
  }
  return total;
}

std::vector<SchemeResult> scheme_frontier(const ComponentEvaluator& eval,
                                          const KnobGrid& grid, Scheme scheme,
                                          const OptSpace& space) {
  const auto tables =
      detail::scheme_tables(eval, space, scheme, grid.pairs());
  const auto front = pareto_min2(
      all_combos(tables, scheme),
      [](const PartialCombo& c) { return c.delay_s; },
      [](const PartialCombo& c) { return c.leakage_w; });
  std::vector<SchemeResult> out;
  out.reserve(front.size());
  for (const auto& c : front) {
    out.push_back(detail::scheme_result(scheme, space, tables, c));
  }
  return out;
}

std::vector<TradeoffPoint> leakage_delay_curve(
    const ComponentEvaluator& eval, const KnobGrid& grid, Scheme scheme,
    const std::vector<double>& delay_targets_s, const OptSpace& space) {
  // One optimization per target, fanned out over the pool; infeasible
  // targets are dropped after the sweep so output order is target order.
  const auto per_target = par::parallel_map(
      delay_targets_s.size(), [&](std::size_t i) {
        auto r = optimize_single_cache(eval, grid, scheme, delay_targets_s[i],
                                       space);
        std::optional<TradeoffPoint> point;
        if (r) point = TradeoffPoint{delay_targets_s[i], *r};
        return point;
      });
  std::vector<TradeoffPoint> out;
  for (const auto& p : per_target) {
    if (p) out.push_back(*p);
  }
  return out;
}

}  // namespace nanocache::opt
