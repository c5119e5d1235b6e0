// Differential byte-identity suite for the parallel-throughput work: the
// checked-in 100-request fixture must produce a response stream byte-equal
// to the pre-change golden at every thread count, through both the batch
// path and a served unix socket under 8 concurrent connections (the latter
// doubles as the tsan soak of the sharded MemoCache — tier-1 runs under
// tools/run_sanitizers.sh tsan).  A second fixture pins the tuple-menu
// answers (every 1-3 Tox x 1-3 Vth spec, feasible and infeasible targets,
// thinned and unthinned frontiers) to bytes a scan over every design of
// every menu produced, so the weak-front reduction (docs/MODELING.md §10a)
// must reproduce them exactly.
//
// Regenerating the goldens after an *intentional* model change:
//   NANOCACHE_REGEN_GOLDEN=1 ./tests/test_batch_golden
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/batch_io.h"
#include "nanocache/service.h"
#include "server/client.h"
#include "server/server.h"
#include "util/error.h"
#include "util/parallel.h"

namespace nanocache {
namespace {

/// Restores the process-wide thread default on scope exit so thread-count
/// sweeps can't leak into other tests of this binary.
class ThreadCountGuard {
 public:
  ~ThreadCountGuard() { par::set_default_threads(0); }
};

std::string data_path(const std::string& name) {
  return std::string(NANOCACHE_TEST_DATA_DIR) + "/" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::shared_ptr<api::Service> make_service() {
  auto out = api::Service::create({});
  EXPECT_TRUE(out.ok()) << (out.ok() ? "" : out.error().message);
  return out.value();
}

std::string batch_output(const api::Service& service,
                         const std::string& input) {
  std::istringstream in(input);
  std::ostringstream out;
  api::run_batch_jsonl(service, in, out);
  return out.str();
}

/// True (and `golden` rewritten) when the caller asked for regeneration;
/// tests then skip their comparisons.
bool maybe_regenerate_golden(const std::string& input,
                             const std::string& golden =
                                 "batch_responses_golden.jsonl") {
  if (std::getenv("NANOCACHE_REGEN_GOLDEN") == nullptr) return false;
  par::set_default_threads(1);
  const auto service = make_service();
  std::ofstream out(data_path(golden), std::ios::binary);
  out << batch_output(*service, input);
  return true;
}

TEST(BatchGolden, ByteIdenticalToGoldenAtAnyThreadCount) {
  ThreadCountGuard guard;
  const std::string input = read_file(data_path("batch_requests.jsonl"));
  ASSERT_FALSE(input.empty());
  if (maybe_regenerate_golden(input)) {
    GTEST_SKIP() << "golden regenerated";
  }
  const std::string golden = read_file(data_path("batch_responses_golden.jsonl"));
  ASSERT_FALSE(golden.empty());

  for (int threads : {1, 2, 8}) {
    par::set_default_threads(threads);
    // Fresh service per thread count: memo and disk state from a previous
    // pass must not be able to mask a divergence.
    const auto service = make_service();
    EXPECT_EQ(batch_output(*service, input), golden)
        << "threads=" << threads;
  }
}

TEST(BatchGolden, EightServedConnectionsEachMatchGolden) {
  ThreadCountGuard guard;
  const std::string input = read_file(data_path("batch_requests.jsonl"));
  ASSERT_FALSE(input.empty());
  if (maybe_regenerate_golden(input)) {
    GTEST_SKIP() << "golden regenerated";
  }
  const std::string golden = read_file(data_path("batch_responses_golden.jsonl"));

  par::set_default_threads(8);
  const auto service = make_service();
  server::ListenSpec spec;
  spec.kind = server::ListenKind::kUnix;
  spec.path = testing::TempDir() + "nc_golden_" + std::to_string(::getpid()) +
              ".sock";
  server::Server server(service, {spec, 1u << 20, /*queue_capacity=*/64,
                                  /*workers=*/8});
  server.start();

  constexpr int kClients = 8;
  std::vector<std::string> got(kClients);
  std::vector<std::string> errors(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      try {
        server::Client client = server::Client::connect(server.config().listen);
        client.send(input);
        client.shutdown_write();
        std::string out;
        while (auto line = client.read_line()) {
          out += *line;
          out += '\n';
        }
        got[c] = std::move(out);
      } catch (const Error& e) {
        errors[c] = e.what();
      }
    });
  }
  for (auto& t : clients) t.join();
  server.shutdown();
  server.wait();

  for (int c = 0; c < kClients; ++c) {
    EXPECT_TRUE(errors[c].empty()) << "client " << c << ": " << errors[c];
    EXPECT_EQ(got[c], golden) << "client " << c;
  }
  // The sharded memo cache must have been shared across connections: 8
  // identical 100-request streams can miss at most once per unique key.
  const auto stats = service->memo_stats();
  EXPECT_GT(stats.hits, 0u);
}

TEST(TupleMenuGolden, ByteIdenticalToGoldenAtOneAndEightThreads) {
  ThreadCountGuard guard;
  const std::string input = read_file(data_path("tuple_menu_requests.jsonl"));
  ASSERT_FALSE(input.empty());
  if (maybe_regenerate_golden(input, "tuple_menu_golden.jsonl")) {
    GTEST_SKIP() << "golden regenerated";
  }
  const std::string golden = read_file(data_path("tuple_menu_golden.jsonl"));
  ASSERT_FALSE(golden.empty());

  for (int threads : {1, 8}) {
    par::set_default_threads(threads);
    const auto service = make_service();
    EXPECT_EQ(batch_output(*service, input), golden) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace nanocache
