// Scenario: a foundry offers a limited number of distinct oxide
// thicknesses and threshold voltages per wafer (each extra option costs
// masks and process steps).  Which menu should a memory-system team buy,
// and which concrete values?  — the Figure 2 tuple problem as a
// procurement decision.
#include <iostream>

#include "core/explorer.h"
#include "util/table.h"
#include "util/units.h"

using namespace nanocache;

int main() {
  core::Explorer explorer;
  const auto system = explorer.default_system();
  const opt::TupleMenuSolver solver(system, explorer.config().grid);

  const double target = solver.solve({3, 3}).min_amat_s() * 1.4;
  std::cout << "performance requirement: AMAT <= "
            << fmt_fixed(units::seconds_to_ps(target), 0) << " pS\n\n";

  TextTable t("process menu options (price ~ #Tox + #Vth)");
  t.set_header({"menu", "best energy [pJ]", "Tox values [A]",
                "Vth values [V]"});
  struct Row {
    opt::MenuSpec spec;
    std::optional<opt::SystemDesignPoint> best;
  };
  std::vector<Row> rows;
  for (const auto spec : {opt::MenuSpec{1, 1}, opt::MenuSpec{1, 2},
                          opt::MenuSpec{2, 1}, opt::MenuSpec{2, 2},
                          opt::MenuSpec{2, 3}, opt::MenuSpec{3, 2}}) {
    rows.push_back({spec, solver.solve(spec).best_at(target)});
  }
  for (const auto& r : rows) {
    std::string toxes = "-";
    std::string vths = "-";
    std::string energy = "infeasible";
    if (r.best) {
      toxes.clear();
      for (double v : r.best->tox_menu) {
        toxes += (toxes.empty() ? "" : ", ") + fmt_fixed(v, 0);
      }
      vths.clear();
      for (double v : r.best->vth_menu) {
        vths += (vths.empty() ? "" : ", ") + fmt_fixed(v, 2);
      }
      energy = fmt_fixed(units::joules_to_pj(r.best->energy_j), 1);
    }
    t.add_row({core::Explorer::menu_label(r.spec), energy, toxes, vths});
  }
  std::cout << t << "\n";

  // The punchline the paper draws: where to spend the next process dollar.
  const auto& e12 = rows[1].best;  // 1 Tox + 2 Vth
  const auto& e21 = rows[2].best;  // 2 Tox + 1 Vth
  const auto& e22 = rows[3].best;
  const auto& e23 = rows[4].best;
  if (e12 && e21) {
    std::cout << "adding a second Vth saves "
              << fmt_fixed(units::joules_to_pj(e21->energy_j - e12->energy_j),
                           1)
              << " pJ more than adding a second Tox at this requirement —\n"
              << "Vth is the more effective knob, so restrict the number of\n"
              << "Tox's rather than Vth's if cost is a concern (paper, "
                 "abstract).\n";
  }
  if (e22 && e23) {
    const double gain = (e22->energy_j - e23->energy_j) / e22->energy_j;
    std::cout << "going from 2 to 3 Vth's buys only "
              << fmt_fixed(gain * 100.0, 1)
              << "% — dual Tox + dual Vth is sufficient.\n";
  }
  return 0;
}
