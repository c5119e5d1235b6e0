// nanocache_perfbench — one run of one workload, or the benchmark's own
// self-tests.
//
//   nanocache_perfbench --workload <name> --seed <n> --seconds <s>
//                       --trace <0|1> [--work-dir D] [--root R] [--commit C]
//   nanocache_perfbench --self-test [--work-dir D] [--root R]
//
// Prints a human-readable metric table, then one report line (host block,
// input properties, every metric with unit and sample count), then the
// result object as the last line.  Exits 1 when any check failed.
#include <cstdlib>
#include <iostream>
#include <string>

#include "harness.h"
#include "workloads.h"

namespace perfbench {
int run_self_tests(const Options& base);
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options o;
  bool self_test = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << arg << "\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      o.workload = value();
    } else if (arg == "--seed") {
      o.seed = std::stoull(value());
    } else if (arg == "--seconds") {
      o.seconds = std::stod(value());
    } else if (arg == "--trace") {
      o.trace = value() == "1";
    } else if (arg == "--work-dir") {
      o.work_dir = value();
    } else if (arg == "--root") {
      o.root = value();
    } else if (arg == "--commit") {
      o.commit = value();
    } else if (arg == "--self-test") {
      self_test = true;
    } else {
      std::cerr << "unknown argument " << arg << "\n";
      return 2;
    }
  }
  if (self_test) return perfbench::run_self_tests(o);
  if (o.workload.empty() || o.seconds <= 0.0) {
    std::cerr << "usage: nanocache_perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1>\n";
    return 2;
  }

  const perfbench::Result r = perfbench::run_workload(o);
  std::cout << r.workload << " seed=" << r.seed << " trace=" << r.traced
            << " attempted=" << r.attempted << " failed=" << r.failed << "\n";
  for (const auto& [name, m] : r.metrics) {
    std::cout << "  " << name << " = " << m.value << " " << m.unit
              << " (n=" << m.samples << ")"
              << (m.note.empty() ? "" : "  " + m.note) << "\n";
  }
  for (const auto& what : r.mismatches) std::cout << "  MISMATCH " << what << "\n";
  std::cout << perfbench::report_json(r, o.commit) << "\n";
  std::cout << perfbench::result_line(r) << std::endl;
  return r.failed == 0 ? 0 : 1;
}
