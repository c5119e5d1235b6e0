#include "opt/pruned.h"

#include <limits>

#include "opt/pareto.h"
#include "util/error.h"
#include "util/metrics.h"

namespace nanocache::opt {

using cachemodel::ComponentAssignment;

namespace detail {

void count_combos_evaluated(std::size_t n) {
  static auto& evaluated =
      metrics::Registry::instance().counter("opt.combos_evaluated");
  evaluated.add(n);
}

void count_combos_skipped(std::size_t n) {
  static auto& skipped =
      metrics::Registry::instance().counter("opt.combos_skipped");
  skipped.add(n);
}

std::vector<std::vector<ComponentOption>> scheme_tables(
    const ComponentEvaluator& eval, const OptSpace& space, Scheme scheme,
    const std::vector<tech::DeviceKnobs>& pairs) {
  switch (scheme) {
    case Scheme::kPerComponent:
      return space_component_tables(eval, space, pairs);
    case Scheme::kArrayPeriphery: {
      std::vector<std::vector<ComponentOption>> tables;
      tables.push_back(space_block_options(eval, space, true, pairs));
      tables.push_back(space_block_options(eval, space, false, pairs));
      return tables;
    }
    case Scheme::kUniform: {
      std::vector<std::vector<ComponentOption>> tables;
      tables.push_back(with_gating(
          block_options(eval, space.components, pairs), space.gating));
      return tables;
    }
  }
  throw Error("unknown scheme");
}

std::vector<PartialCombo> extend_combos(
    const std::vector<PartialCombo>& partial,
    const std::vector<ComponentOption>& options, std::size_t index) {
  std::vector<PartialCombo> next;
  next.reserve(partial.size() * options.size());
  for (const auto& p : partial) {
    for (std::size_t oi = 0; oi < options.size(); ++oi) {
      PartialCombo c = p;
      c.delay_s += options[oi].delay_s;
      c.leakage_w += options[oi].leakage_w;
      c.choice[index] = static_cast<std::uint16_t>(oi);
      next.push_back(c);
    }
  }
  return next;
}

std::vector<PartialCombo> merge_combos(
    const std::vector<PartialCombo>& partial,
    const std::vector<ComponentOption>& options, std::size_t index) {
  auto next = extend_combos(partial, options, index);
  count_combos_evaluated(next.size());
  return pareto_min2(
      std::move(next), [](const PartialCombo& c) { return c.delay_s; },
      [](const PartialCombo& c) { return c.leakage_w; });
}

SchemeResult scheme_result(
    Scheme scheme, const OptSpace& space,
    const std::vector<std::vector<ComponentOption>>& tables,
    const PartialCombo& combo) {
  const auto pick = [&](std::size_t block) -> const ComponentOption& {
    return tables[block][combo.choice[block]];
  };
  SchemeResult r;
  r.leakage_w = combo.leakage_w;
  r.access_time_s = combo.delay_s;
  for (std::size_t block = 0; block < tables.size(); ++block) {
    r.dynamic_energy_j += pick(block).dynamic_j;
  }
  if (scheme != Scheme::kPerComponent) {
    // Scheme III has one block, so this is the uniform assignment.
    r.assignment = ComponentAssignment::split(pick(0).knobs,
                                              pick(tables.size() - 1).knobs);
  }
  for (std::size_t i = 0; i < space.components.size(); ++i) {
    std::size_t block = 0;  // Scheme III: the one uniform block
    if (scheme == Scheme::kPerComponent) block = i;
    if (scheme == Scheme::kArrayPeriphery && i >= space.array_count) block = 1;
    const auto kind = space.components[i];
    if (scheme == Scheme::kPerComponent) {
      r.assignment.set(kind, pick(block).knobs);
    }
    r.assignment.set_gated(kind, pick(block).gated);
  }
  return r;
}

OptOutcome<SchemeResult> infeasible_delay(double delay_constraint_s,
                                          double fastest_s, Scheme scheme) {
  return OptOutcome<SchemeResult>::infeasible(InfeasibleInfo{
      "access time <= delay constraint [s]", delay_constraint_s, fastest_s,
      "scheme " + scheme_name(scheme)});
}

}  // namespace detail

namespace {

using detail::PartialCombo;
using Tables = std::vector<std::vector<ComponentOption>>;

/// (delay, leakage) frontier of one option table.  pareto_min2 is stable
/// and first-wins, so among exactly-equal points the lowest grid index
/// survives — the identical representative the exhaustive DP keeps.  The
/// result is a strict staircase: delay strictly increasing, leakage
/// strictly decreasing.
std::vector<ComponentOption> option_frontier(std::vector<ComponentOption> v) {
  return pareto_min2(
      std::move(v), [](const ComponentOption& o) { return o.delay_s; },
      [](const ComponentOption& o) { return o.leakage_w; });
}

/// Minimum completion delay of a partial state, accumulated in the same
/// left-to-right order the DP adds components.  Floating-point addition is
/// weakly monotone, so this equals — bitwise — the delay of the cheapest
/// full assignment extending the state.
double completion_delay(double delay_s, const Tables& pruned,
                        std::size_t next_component) {
  for (std::size_t j = next_component; j < pruned.size(); ++j) {
    delay_s += pruned[j][0].delay_s;  // frontier head = per-component min
  }
  return delay_s;
}

/// Minimum completion leakage, same left-fold association.  The frontier
/// is a staircase, so its last entry carries the component's minimum
/// leakage.
double completion_leakage(double leakage_w, const Tables& pruned,
                          std::size_t next_component) {
  for (std::size_t j = next_component; j < pruned.size(); ++j) {
    leakage_w += pruned[j].back().leakage_w;
  }
  return leakage_w;
}

// ---------------------------------------------------------------------------
// Scheme I: per-component assignment via frontier-merge + branch-and-bound.
// ---------------------------------------------------------------------------

OptOutcome<SchemeResult> per_component_pruned(const Tables& full,
                                              double delay_constraint_s,
                                              const OptSpace& space) {
  const std::size_t n = full.size();
  Tables pruned(n);
  for (std::size_t i = 0; i < n; ++i) pruned[i] = option_frontier(full[i]);

  // Feasibility bound first: the fastest assignment sums the frontier
  // heads, bit-identical to the exhaustive front's fastest member.
  const double fastest = completion_delay(0.0, pruned, 0);
  if (fastest > delay_constraint_s) {
    return detail::infeasible_delay(delay_constraint_s, fastest,
                                    Scheme::kPerComponent);
  }

  // Branch-and-bound incumbent: the all-minimum-leakage chain is a real
  // assignment, so when it meets the constraint its leakage bounds the
  // optimum from above.  States whose minimum-leakage completion strictly
  // exceeds it can neither win nor tie the winner (the tie-breaks only
  // engage at equal leakage), so they are safe to drop mid-search.
  double incumbent_leak = std::numeric_limits<double>::infinity();
  double chain_delay = 0.0;
  for (std::size_t j = 0; j < n; ++j) chain_delay += pruned[j].back().delay_s;
  if (chain_delay <= delay_constraint_s) {
    incumbent_leak = completion_leakage(0.0, pruned, 0);
  }

  // Frontier-merge the first n-1 components.  Fronts come back sorted by
  // delay ascending (leakage descending), and the two completion bounds are
  // monotone along the staircase, so the delay cut removes a suffix (too
  // slow to finish) and the leakage cut a prefix (too leaky to beat the
  // incumbent).
  std::vector<PartialCombo> combos{PartialCombo{}};
  for (std::size_t i = 0; i + 1 < n; ++i) {
    detail::count_combos_skipped(combos.size() *
                                 (full[i].size() - pruned[i].size()));
    combos = detail::merge_combos(combos, pruned[i], i);
    std::size_t keep = combos.size();
    while (keep > 0 && completion_delay(combos[keep - 1].delay_s, pruned,
                                        i + 1) > delay_constraint_s) {
      --keep;
    }
    std::size_t drop = 0;
    while (drop < keep && completion_leakage(combos[drop].leakage_w, pruned,
                                             i + 1) > incumbent_leak) {
      ++drop;
    }
    detail::count_combos_skipped((combos.size() - (keep - drop)) *
                                 full[i + 1].size());
    combos.erase(combos.begin() + static_cast<std::ptrdiff_t>(keep),
                 combos.end());
    combos.erase(combos.begin(),
                 combos.begin() + static_cast<std::ptrdiff_t>(drop));
  }

  // Final component: scan the frontier product directly instead of
  // materializing a last merge.  The exhaustive winner is the feasible
  // front member with minimum (leakage, delay, first-formed) — formation
  // order here is (front rank, frontier option rank), matching the DP's
  // stable (partial, option) product order, so keeping the first incumbent
  // on full ties reproduces the same representative.
  const std::size_t last = n - 1;
  const auto& tail = pruned[last];
  const double tail_min_leak = tail.back().leakage_w;  // staircase end

  struct Best {
    bool has = false;
    double leakage_w = 0.0;
    double delay_s = 0.0;
    std::size_t front_rank = 0;
    std::size_t option_rank = 0;
  };
  // Walk the front from its low-leakage end: the merge loop already cut
  // every state whose fastest completion misses the constraint, so each
  // remaining state yields a feasible pair and the first iterations land
  // near the optimum.  Once even the minimum-leakage tail cannot strictly
  // beat the incumbent the walk stops — earlier front members only get
  // leakier.  Never cut on equality: an equal-leakage completion can still
  // win the delay tie-break, and full ties fall back to the exhaustive
  // DP's (partial rank, option rank) formation order.
  Best best;
  std::size_t evaluated = 0;
  for (std::size_t fi = combos.size(); fi-- > 0;) {
    const PartialCombo& f = combos[fi];
    if (best.has && f.leakage_w + tail_min_leak > best.leakage_w) break;
    for (std::size_t oi = 0; oi < tail.size(); ++oi) {
      const double delay = f.delay_s + tail[oi].delay_s;
      ++evaluated;
      if (delay > delay_constraint_s) break;  // tail sorted by delay
      const double leak = f.leakage_w + tail[oi].leakage_w;
      if (!best.has || leak < best.leakage_w ||
          (leak == best.leakage_w &&
           (delay < best.delay_s ||
            (delay == best.delay_s &&
             (fi < best.front_rank ||
              (fi == best.front_rank && oi < best.option_rank)))))) {
        best = Best{true, leak, delay, fi, oi};
      }
    }
  }
  detail::count_combos_evaluated(evaluated);
  detail::count_combos_skipped(combos.size() * full[last].size() - evaluated);

  if (!best.has) {
    // Unreachable once fastest <= constraint: the head×head pair above is
    // feasible by construction.  Kept as a defensive diagnosis.
    return detail::infeasible_delay(delay_constraint_s, fastest,
                                    Scheme::kPerComponent);
  }
  PartialCombo winner = combos[best.front_rank];
  winner.delay_s = best.delay_s;
  winner.leakage_w = best.leakage_w;
  winner.choice[last] = static_cast<std::uint16_t>(best.option_rank);
  return detail::scheme_result(Scheme::kPerComponent, space, pruned, winner);
}

// ---------------------------------------------------------------------------
// Schemes II / III: frontier prune + feasible-prefix scan.  The exhaustive
// searches break (leakage, delay) ties on the ORIGINAL flat grid index, so
// the pruned tables carry their original indices through the filter.
// ---------------------------------------------------------------------------

struct Indexed {
  ComponentOption opt;
  std::size_t orig = 0;
};

std::vector<Indexed> indexed_frontier(const std::vector<ComponentOption>& v) {
  std::vector<Indexed> idx;
  idx.reserve(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) idx.push_back({v[i], i});
  return pareto_min2(
      std::move(idx), [](const Indexed& o) { return o.opt.delay_s; },
      [](const Indexed& o) { return o.opt.leakage_w; });
}

OptOutcome<SchemeResult> array_periphery_pruned(const Tables& tables,
                                                double delay_constraint_s,
                                                const OptSpace& space) {
  const auto& array_opts = tables[0];
  const std::size_t np = tables[1].size();
  const auto af = indexed_frontier(array_opts);
  const auto pf = indexed_frontier(tables[1]);

  const double fastest = af.front().opt.delay_s + pf.front().opt.delay_s;
  if (fastest > delay_constraint_s) {
    return detail::infeasible_delay(delay_constraint_s, fastest,
                                    Scheme::kArrayPeriphery);
  }
  const double periph_min_leak = pf.back().opt.leakage_w;

  bool has = false;
  PartialCombo best;
  std::size_t best_flat = 0;  ///< original ai * np + pi — the exhaustive key
  std::size_t evaluated = 0;
  for (const auto& a : af) {
    if (a.opt.delay_s + pf.front().opt.delay_s > delay_constraint_s) break;
    if (has && a.opt.leakage_w + periph_min_leak > best.leakage_w) continue;
    for (const auto& p : pf) {
      const double delay = a.opt.delay_s + p.opt.delay_s;
      ++evaluated;
      if (delay > delay_constraint_s) break;
      const double leak = a.opt.leakage_w + p.opt.leakage_w;
      const std::size_t flat = a.orig * np + p.orig;
      if (!has || leak < best.leakage_w ||
          (leak == best.leakage_w &&
           (delay < best.delay_s ||
            (delay == best.delay_s && flat < best_flat)))) {
        has = true;
        best.delay_s = delay;
        best.leakage_w = leak;
        best.choice[0] = static_cast<std::uint16_t>(a.orig);
        best.choice[1] = static_cast<std::uint16_t>(p.orig);
        best_flat = flat;
      }
    }
  }
  detail::count_combos_evaluated(evaluated);
  detail::count_combos_skipped(array_opts.size() * np - evaluated);

  if (!has) {
    return detail::infeasible_delay(delay_constraint_s, fastest,
                                    Scheme::kArrayPeriphery);
  }
  return detail::scheme_result(Scheme::kArrayPeriphery, space, tables, best);
}

OptOutcome<SchemeResult> uniform_pruned(const Tables& tables,
                                        double delay_constraint_s,
                                        const OptSpace& space) {
  const auto uf = indexed_frontier(tables[0]);

  const double fastest = uf.front().opt.delay_s;
  if (fastest > delay_constraint_s) {
    return detail::infeasible_delay(delay_constraint_s, fastest,
                                    Scheme::kUniform);
  }
  // On the staircase leakage strictly decreases with delay, so the optimum
  // is simply the last feasible frontier member; no sums are formed, so the
  // equivalence to the exhaustive flat argmin is exact with no FP caveat.
  std::size_t winner = 0;
  std::size_t evaluated = 0;
  for (std::size_t i = 0; i < uf.size(); ++i) {
    ++evaluated;
    if (uf[i].opt.delay_s > delay_constraint_s) break;
    winner = i;
  }
  detail::count_combos_evaluated(evaluated);
  detail::count_combos_skipped(tables[0].size() - evaluated);

  const auto& w = uf[winner];
  PartialCombo best{w.opt.delay_s, w.opt.leakage_w, {}};
  best.choice[0] = static_cast<std::uint16_t>(w.orig);
  return detail::scheme_result(Scheme::kUniform, space, tables, best);
}

}  // namespace

OptOutcome<SchemeResult> optimize_single_cache_pruned(
    const ComponentEvaluator& eval, const KnobGrid& grid, Scheme scheme,
    double delay_constraint_s, const OptSpace& space) {
  NC_REQUIRE(delay_constraint_s > 0.0, "delay constraint must be positive");
  const auto tables =
      detail::scheme_tables(eval, space, scheme, grid.pairs());
  switch (scheme) {
    case Scheme::kPerComponent:
      return per_component_pruned(tables, delay_constraint_s, space);
    case Scheme::kArrayPeriphery:
      return array_periphery_pruned(tables, delay_constraint_s, space);
    case Scheme::kUniform:
      return uniform_pruned(tables, delay_constraint_s, space);
  }
  throw Error("unknown scheme");
}

}  // namespace nanocache::opt
