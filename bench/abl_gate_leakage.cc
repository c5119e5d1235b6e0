// ABL-GATE — ablation of the gate-tunnelling magnitude, the quantity that
// makes this a *total*-leakage paper.  Sweeps the gate current density
// reference and reports (a) the Figure 1 knob-leverage comparison and
// (b) the Figure 2 "1 Tox + 2 Vth vs 2 Tox + 1 Vth" comparison, showing:
//   * with weak gate leakage, Tox stops being the dominant leakage lever
//     (the pre-gate-leakage literature's world, refs [1-7] of the paper);
//   * the tight-AMAT crossover between the two restricted menus (the
//     documented FIG2 deviation) moves with gate-leakage strength.
#include <iostream>

#include "core/explorer.h"
#include "opt/sensitivity.h"
#include "util/table.h"
#include "util/units.h"

using namespace nanocache;

int main() {
  TextTable t("gate-leakage ablation (16KB cache / default memory system)");
  t.set_header({"Jg ref [uA/um2]", "Tox leak gap", "Vth leak gap",
                "Tox dominant?", "1T+2V [pJ] @loose", "2T+1V [pJ] @loose",
                "Vth-knob wins?"});

  for (double jg_ua : {2.0, 8.0, 22.0, 60.0}) {
    core::ExperimentConfig cfg;
    cfg.technology.jg_ref_a_per_um2 = jg_ua * 1e-6;
    core::Explorer explorer(cfg);

    // Figure 1 leverage at this gate-leakage strength.
    const auto series = explorer.fig1_fixed_knob(16 * 1024, 9);
    const double tox_gap =
        series[0].points.back().leakage_w / series[1].points.back().leakage_w;
    const double vth_gap =
        series[0].points.front().leakage_w / series[0].points.back().leakage_w;

    // Figure 2 restricted-menu comparison at a loose target.
    const auto system = explorer.default_system();
    const opt::TupleMenuSolver solver(system, cfg.grid);
    const double loose = solver.solve({2, 2}).min_amat_s() * 1.5;
    const auto e12 = solver.solve({1, 2}).best_at(loose);
    const auto e21 = solver.solve({2, 1}).best_at(loose);

    t.add_row({fmt_fixed(jg_ua, 0), fmt_fixed(tox_gap, 1) + "x",
               fmt_fixed(vth_gap, 1) + "x",
               tox_gap > vth_gap ? "yes" : "no",
               e12 ? fmt_fixed(units::joules_to_pj(e12->energy_j), 1) : "-",
               e21 ? fmt_fixed(units::joules_to_pj(e21->energy_j), 1) : "-",
               (e12 && e21 && e12->energy_j < e21->energy_j) ? "yes" : "no"});
  }
  std::cout << t << "\n"
            << "reading: the Vth column is the leakage still recoverable by\n"
            << "raising Vth once Tox is thin.  With weak tunnelling (2\n"
            << "uA/um2) Vth keeps buying 4-5x — the pre-gate-leakage world\n"
            << "of the paper's refs [1-7], where Vth-only optimization\n"
            << "sufficed.  At the paper's calibration the gate floor caps\n"
            << "the Vth knob at ~1.3x, which is exactly why Tox must be\n"
            << "parked high before Vth is used to meet timing.\n";

  // Sensitivity view at the paper's calibration: d ln(leak)/d knob and the
  // per-delay efficiency of each knob at mid-grid.
  core::Explorer explorer;
  const auto eval = opt::structural_evaluator(explorer.l1_model(16 * 1024));
  const auto range = explorer.config().technology.knobs;
  TextTable s("knob sensitivities at calibration (whole 16KB cache)");
  s.set_header({"Vth [V]", "Tox [A]", "dlnP/dVth [1/V]", "dlnP/dTox [1/A]",
                "dlnTd/dVth [1/V]", "dlnTd/dTox [1/A]",
                "leak-per-delay: Vth", "Tox"});
  for (const auto& at : {tech::DeviceKnobs{0.25, 10.5},
                         tech::DeviceKnobs{0.35, 12.0},
                         tech::DeviceKnobs{0.45, 13.5}}) {
    const auto k = opt::cache_sensitivity(eval, at, range);
    s.add_row({fmt_fixed(at.vth_v, 2), fmt_fixed(at.tox_a, 1),
               fmt_fixed(k.leakage_vs_vth, 1), fmt_fixed(k.leakage_vs_tox, 2),
               fmt_fixed(k.delay_vs_vth, 2), fmt_fixed(k.delay_vs_tox, 3),
               fmt_fixed(k.leakage_efficiency_vth(), 1),
               fmt_fixed(k.leakage_efficiency_tox(), 1)});
  }
  std::cout << s;
  return 0;
}
