// The benchmark's own tests, at a tiny load: generator determinism, the
// percentile helper, metric-name rules, and that every workload emits
// exactly the metrics it promises in both modes.
#include <iostream>
#include <set>
#include <string>

#include "generator.h"
#include "harness.h"
#include "workloads.h"

namespace perfbench {

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::cout << "FAIL " << what << "\n";
  }
}

void generator_is_deterministic() {
  const auto a = make_batch_stream(7, 200);
  const auto b = make_batch_stream(7, 200);
  const auto c = make_batch_stream(8, 200);
  expect(a.jsonl == b.jsonl, "batch stream repeats for one seed");
  expect(a.jsonl != c.jsonl, "batch stream changes with the seed");
  expect(a.lines.size() == 200, "batch stream has the asked line count");
  std::set<std::string> bodies;
  for (const auto& line : a.lines) bodies.insert(line.substr(line.find("\"kind\"")));
  expect(bodies.size() == 180, "10% of batch lines repeat an earlier line");

  const auto m1 = make_serve_mix(7, 32);
  const auto m2 = make_serve_mix(7, 32);
  expect(m1.hot == m2.hot, "hot set repeats for one seed");
  Rng r1(7, 1), r2(7, 1);
  std::set<std::string> novel;
  for (std::uint64_t k = 0; k < 500; ++k) {
    int h1 = 0, h2 = 0;
    const auto l1 = serve_line(m1, r1, 0, k, &h1);
    expect(l1 == serve_line(m2, r2, 0, k, &h2) && h1 == h2,
           "serve line sequence repeats for one seed");
    if (h1 < 0) novel.insert(l1.substr(l1.find("\"kind\"")));
  }
  expect(novel.size() > 50, "novel serve lines appear");
  expect(novel_lines(3, 50) == novel_lines(3, 50), "novel lines repeat");

  const std::vector<std::string> fixture = {"{\"id\":\"r097\"}"};
  expect(make_design_study(5, fixture).jsonl == make_design_study(5, fixture).jsonl,
         "design study repeats for one seed");
  expect(make_design_study(5, fixture).lines.size() == 13,
         "design study: 9 menus + 3 sweeps + fixture");
}

void percentile_matches_known_data() {
  expect(percentile({}, 50) == 0.0, "empty percentile is 0");
  expect(percentile({4, 1, 3, 2}, 50) == 2.5, "median of 1..4 is 2.5");
  expect(percentile({4, 1, 3, 2}, 0) == 1.0, "p0 is the minimum");
  expect(percentile({4, 1, 3, 2}, 100) == 4.0, "p100 is the maximum");
  expect(percentile({10}, 99) == 10.0, "one sample is every percentile");
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  const double p99 = percentile(hundred, 99);
  expect(p99 > 99.0099 && p99 < 99.0101, "p99 of 1..100 is 99.01");
  expect(median({3, 1, 2}) == 2.0, "median of three");
}

void metric_names_are_valid() {
  std::set<std::string> seen;
  for (const auto* list : {&end_to_end_metric_names(), &per_layer_metric_names()}) {
    for (const auto& name : *list) {
      expect(valid_metric_name(name), "metric name " + name);
      expect(seen.insert(name).second, "metric name used once: " + name);
    }
  }
  expect(!valid_metric_name("bad name"), "space is rejected");
  expect(!valid_metric_name(".x"), "leading dot is rejected");
  expect(!valid_metric_name(""), "empty name is rejected");
}

void every_workload_emits_its_metrics(const Options& base) {
  for (const auto& workload : workload_names()) {
    for (const bool trace : {false, true}) {
      Options o = base;
      o.workload = workload;
      o.seed = 3;
      o.seconds = 0.3;
      o.trace = trace;
      o.tiny = true;
      const Result r = run_workload(o);
      const std::string tag = workload + (trace ? " traced" : "");
      for (const auto& m : r.mismatches) std::cout << "  " << tag << ": " << m << "\n";
      expect(r.failed == 0 && r.attempted > 0, tag + " passes its checks");
      const auto& names = trace ? per_layer_metric_names() : end_to_end_metric_names();
      const std::set<std::string> want(names.begin(), names.end());
      std::set<std::string> got;
      for (const auto& [name, m] : r.metrics) got.insert(name);
      expect(got == want, tag + " emits exactly its metric list");
      const std::string line = result_line(r);
      expect(line.rfind("{\"correct\":true,\"attempted\":", 0) == 0,
             tag + " result line shape");
    }
  }
}

}  // namespace

int run_self_tests(const Options& base) {
  generator_is_deterministic();
  percentile_matches_known_data();
  metric_names_are_valid();
  every_workload_emits_its_metrics(base);
  std::cout << (g_failures == 0 ? "self-test: all passed"
                                : "self-test: " + std::to_string(g_failures) +
                                      " failed")
            << std::endl;
  return g_failures == 0 ? 0 : 1;
}

}  // namespace perfbench
