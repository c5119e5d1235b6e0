#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <tuple>

#include "api/batch_io.h"
#include "api/disk_cache.h"
#include "api/surrogate_precompute.h"
#include "core/explorer.h"
#include "generator.h"
#include "nanocache/service.h"
#include "opt/pruned.h"
#include "server/client.h"
#include "server/server.h"
#include "surrogate/store.h"
#include "util/metrics.h"
#include "util/parallel.h"

namespace perfbench {
namespace {

namespace api = nanocache::api;
namespace fs = std::filesystem;
namespace server = nanocache::server;

// Stream and set sizes.  Chosen so one batch_cold stream takes a few
// hundred ms on a 4-core host (tens of iterations per window) and the hot
// set is a few hundred keys.
constexpr std::size_t kBatchLines = 1500;
constexpr std::size_t kTinyBatchLines = 60;
constexpr std::size_t kHotKeys = 256;
constexpr std::size_t kTinyHotKeys = 16;
/// Request lines fed to the in-process layer probes.
constexpr std::size_t kProbeLines = 600;
constexpr std::size_t kTinyProbeLines = 40;

int host_threads() { return nanocache::par::hardware_threads(); }

/// Threads of the batch workloads.  One thread keeps their timings steady
/// on a shared host: a fork-join stream at nproc threads waits for its
/// slowest worker, so it swings with every core the host takes away.
constexpr int kBatchThreads = 1;

std::shared_ptr<api::Service> make_service(const api::ServiceConfig& config) {
  auto out = api::Service::create(config);
  if (!out) {
    throw std::runtime_error("Service::create: " + out.error().message);
  }
  return out.value();
}

std::string fresh_dir(const Options& o, const std::string& name) {
  const fs::path path = fs::path(o.work_dir) / name;
  fs::remove_all(path);
  fs::create_directories(path);
  return path.string();
}

std::string run_stream(const api::Service& service, const std::string& jsonl,
                       api::BatchStats* stats = nullptr) {
  std::istringstream in(jsonl);
  std::ostringstream out;
  const auto s = api::run_batch_jsonl(service, in, out);
  if (stats != nullptr) *stats = s;
  return out.str();
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) out.push_back(line);
  return out;
}

std::string id_of(const std::string& line) {
  const auto at = line.find("\"id\":\"");
  if (at == std::string::npos) return "";
  const auto start = at + 6;
  return line.substr(start, line.find('"', start) - start);
}

bool is_ok(const std::string& response_line) {
  return response_line.find("\"ok\":true") != std::string::npos;
}

/// One response per request line, in order, ids echoed, every answer ok.
void check_stream(Result& r, const std::string& what,
                  const std::vector<std::string>& request_lines,
                  const std::string& output) {
  const auto lines = split_lines(output);
  if (lines.size() != request_lines.size()) {
    r.fail(what + ": " + std::to_string(lines.size()) + " response lines for " +
           std::to_string(request_lines.size()) + " requests");
    return;
  }
  for (std::size_t i = 0; i < lines.size(); ++i) {
    r.attempted++;
    if (id_of(lines[i]) != id_of(request_lines[i])) {
      r.fail(what + ": line " + std::to_string(i) + " id '" + id_of(lines[i]) +
             "' != '" + id_of(request_lines[i]) + "'");
    } else if (!is_ok(lines[i])) {
      r.fail(what + ": error response " + lines[i].substr(0, 200));
    }
  }
}

std::uint64_t counter(const nanocache::metrics::MetricsSnapshot& s,
                      const std::string& name) {
  const auto it = s.counters.find(name);
  return it == s.counters.end() ? 0 : it->second;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// What one timed window measured.
struct Window {
  std::vector<double> op_s;  ///< per-operation wall time
  /// Peak resident set (MB) during each operation (serve_mix: the window).
  std::vector<double> rss_mb;
  std::size_t requests = 0;  ///< request lines answered
  double wall_s = 0.0;
  /// Request lines per second of each operation (batch-type workloads;
  /// empty for serve_mix, whose operations are single lines).
  std::vector<double> op_rps;

  /// Median over operations, or total over the window for serve_mix.
  double throughput_rps() const {
    return op_rps.empty() ? ratio(static_cast<double>(requests), wall_s)
                          : median(op_rps);
  }
};

/// Inputs of the in-process layer probes.
struct LayerInputs {
  std::vector<std::string> lines;
  api::ServiceConfig config;
  std::vector<double> menu_targets_ps{1700.0};
  double l1_amat_ps = 2000.0;
  double l2_amat_ps = 1800.0;
  std::string source;
};

class Workload {
 public:
  Workload(const Options& o, Result& r) : o_(o), r_(r) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// Default thread count of the library while this workload runs.
  virtual int threads() const { return host_threads(); }
  /// How many set-ups one run times before its window (setup_s is the
  /// median over all of them).
  virtual int setup_reps() const = 0;
  /// One complete set-up, returning the seconds it took (untimed
  /// preparation, such as warming a server, is left out).  The last one
  /// stays in place for the windows.
  virtual double setup(bool last) = 0;
  /// One timed window of about `seconds`.
  virtual Window window(double seconds) = 0;
  /// Checks that need the whole run (after every window).
  virtual void finish() {}
  virtual LayerInputs layer_inputs() const = 0;

 protected:
  /// One finished operation of `lines` request lines that took `dt` s.
  static void record(Window& w, double dt, std::size_t lines) {
    w.op_s.push_back(dt);
    w.rss_mb.push_back(peak_rss_mb());
    w.op_rps.push_back(static_cast<double>(lines) / dt);
    w.requests += lines;
  }

  const Options& o_;
  Result& r_;
};

// --- batch_cold -------------------------------------------------------

/// Iterations of {fresh cache_dir, Service::create, run_batch_jsonl}.
class BatchCold : public Workload {
 public:
  BatchCold(const Options& o, Result& r)
      : Workload(o, r), stream_(make_stream()) {
    r.inputs = stream_.properties;
    r.inputs["threads"] = std::to_string(kBatchThreads);
    r.inputs["service"] = "fresh Service and fresh cache_dir per iteration";
  }

  int threads() const override { return kBatchThreads; }
  int setup_reps() const override { return o_.tiny ? 2 : 10; }

  /// Set-up is what a `batch` caller pays before the stream runs: the
  /// input bytes, then Service::create on a fresh cache_dir.
  double setup(bool) override {
    service_.reset();
    config_.cache_dir = fresh_dir(o_, "cold_cache");
    const double t0 = now_s();
    stream_ = make_stream();
    service_ = make_service(config_);
    return now_s() - t0;
  }

  Window window(double seconds) override {
    Window w;
    const double start = now_s();
    do {
      service_.reset();
      config_.cache_dir = fresh_dir(o_, "cold_cache");
      reset_peak_rss();
      const double t0 = now_s();
      std::string out;
      {
        Span it("bench.iteration");
        {
          Span s("api.Service::create");
          service_ = make_service(config_);
        }
        Span s("api.run_batch_jsonl");
        out = run_stream(*service_, stream_.jsonl);
      }
      record(w, now_s() - t0, stream_.lines.size());
      check_output(out);
    } while (now_s() - start < seconds);
    w.wall_s = now_s() - start;
    return w;
  }

  void finish() override {
    // A seeded sample, served again one by one by a fresh exact-only
    // Service at 1 thread, must match the batch output byte for byte.
    nanocache::par::set_default_threads(1);
    const auto reference = make_service({});
    Rng rng(o_.seed, 7);
    const auto out_lines = split_lines(first_output_);
    const std::size_t sample = o_.tiny ? 8 : 48;
    for (std::size_t n = 0; n < sample && !out_lines.empty(); ++n) {
      const std::size_t i = rng.below(stream_.lines.size());
      r_.attempted++;
      auto parsed = api::parse_request_json(stream_.lines[i]);
      if (!parsed) {
        r_.fail("sample parse: " + parsed.error().message);
        continue;
      }
      api::Request request = parsed.value();
      request.eval.exactness = api::Exactness::kExact;
      request.optimize.exactness = api::Exactness::kExact;
      const std::string again = api::response_line(reference->serve(request));
      if (i >= out_lines.size() || again != out_lines[i]) {
        r_.fail("exact re-serve differs on line " + std::to_string(i));
      }
    }
    nanocache::par::set_default_threads(threads());
  }

  LayerInputs layer_inputs() const override {
    LayerInputs in;
    const std::size_t n = o_.tiny ? kTinyProbeLines : kProbeLines;
    for (std::size_t i = 0; i < stream_.lines.size() && i < n; ++i) {
      in.lines.push_back(stream_.lines[i]);
    }
    in.source = "first " + std::to_string(in.lines.size()) +
                " lines of the batch stream";
    return in;
  }

 protected:
  BatchStream make_stream() const {
    return make_batch_stream(o_.seed, o_.tiny ? kTinyBatchLines : kBatchLines);
  }

  void check_output(const std::string& out) {
    if (first_output_.empty()) {
      first_output_ = out;
      check_stream(r_, "batch output", stream_.lines, out);
    } else {
      r_.attempted++;
      if (out != first_output_) r_.fail("iteration output differs from the first");
    }
  }

  BatchStream stream_;
  api::ServiceConfig config_;
  std::shared_ptr<api::Service> service_;
  std::string first_output_;
};

// --- batch_replay -----------------------------------------------------

/// The batch_cold stream replayed into a fresh Service over the cache_dir
/// that set-up filled: every distinct answer is a disk hit.
class BatchReplay : public BatchCold {
 public:
  BatchReplay(const Options& o, Result& r) : BatchCold(o, r) {
    r.inputs["service"] =
        "fresh Service per iteration over the cache_dir set-up filled";
  }

  int setup_reps() const override { return 1; }

  double setup(bool) override {
    config_.cache_dir = fresh_dir(o_, "replay_cache");
    const double t0 = now_s();
    service_ = make_service(config_);
    const std::string out = run_stream(*service_, stream_.jsonl);
    service_->flush_disk_cache();
    service_.reset();
    const double dt = now_s() - t0;
    check_output(out);  // the fill is a cold run: its bytes are the reference
    return dt;
  }

  Window window(double seconds) override {
    Window w;
    const double start = now_s();
    do {
      service_.reset();
      reset_peak_rss();
      const double t0 = now_s();
      std::string out;
      api::BatchStats stats;
      {
        Span it("bench.iteration");
        {
          Span s("api.Service::create");
          service_ = make_service(config_);
        }
        Span s("api.run_batch_jsonl");
        out = run_stream(*service_, stream_.jsonl, &stats);
      }
      record(w, now_s() - t0, stream_.lines.size());
      r_.attempted++;
      if (out != first_output_) r_.fail("replay bytes differ from the cold output");
      if (stats.disk_misses != 0 || stats.disk_hits != stats.unique_requests) {
        r_.fail("replay: " + std::to_string(stats.disk_misses) +
                " disk misses, " + std::to_string(stats.disk_hits) + " hits for " +
                std::to_string(stats.unique_requests) + " distinct lines");
      }
    } while (now_s() - start < seconds);
    w.wall_s = now_s() - start;
    return w;
  }
};

// --- serve_mix --------------------------------------------------------

/// Closed-loop clients against a server::Server on a unix socket.
class ServeMixWorkload : public Workload {
 public:
  ServeMixWorkload(const Options& o, Result& r)
      : Workload(o, r), mix_(make_serve_mix(o.seed, o.tiny ? kTinyHotKeys : kHotKeys)) {
    r.inputs = mix_.properties;
    r.inputs["clients"] = std::to_string(host_threads()) + " closed-loop connections";
    r.inputs["server_workers"] = std::to_string(host_threads());
    r.inputs["surrogate_tables"] = "default precompute (16 KB L1, 1 MB L2)";
  }

  int setup_reps() const override { return o_.tiny ? 1 : 2; }

  double setup(bool last) override {
    stop_server();
    service_.reset();
    const std::string tables = fresh_dir(o_, "serve_tables");
    const double t0 = now_s();
    {
      const auto exact = make_service({});
      api::PrecomputeOptions options;
      options.stamp = "perfbench";
      api::precompute_surrogate(*exact, tables, options);
    }
    config_.surrogate_dir = tables;
    service_ = make_service(config_);
    server::ServerConfig sc;
    sc.listen.kind = server::ListenKind::kUnix;
    sc.listen.path = (fs::path(o_.work_dir) / "serve.sock").string();
    fs::remove(sc.listen.path);
    sc.workers = host_threads();
    server_ = std::make_unique<server::Server>(service_, sc);
    server_->start();
    const double dt = now_s() - t0;
    if (last) reference_ = make_service(config_);
    warm_up();
    return dt;
  }

  Window window(double seconds) override {
    const int clients = host_threads();
    struct PerClient {
      std::vector<double> rtt_s;
      std::vector<std::pair<int, std::uint64_t>> hot;  ///< (index, hash)
      std::vector<std::pair<std::string, std::uint64_t>> novel;
      std::string error;
      double end = 0.0;
    };
    std::vector<PerClient> per(clients);
    std::atomic<bool> go{false};
    double start = 0.0;
    const std::uint64_t base = windows_++ * 1000003ull;
    std::vector<std::thread> pool;
    for (int c = 0; c < clients; ++c) {
      pool.emplace_back([&, c] {
        PerClient& me = per[c];
        try {
          auto client = server::Client::connect(server_->config().listen);
          Rng rng(o_.seed ^ base, 100 + static_cast<std::uint64_t>(c));
          while (!go.load()) std::this_thread::yield();
          const double deadline = start + seconds;
          for (std::uint64_t k = 0;; ++k) {
            int hot = -1;
            std::string line = serve_line(mix_, rng, base + c, k, &hot);
            line += '\n';
            const std::uint64_t rid = (static_cast<std::uint64_t>(c) << 40) | k;
            const double t0 = now_s();
            std::optional<std::string> reply;
            {
              Span req("bench.request", rid);
              {
                Span s("server.Client::send", rid);
                client.send(line);
              }
              Span s("server.Client::read_line", rid);
              reply = client.read_line();
            }
            const double t1 = now_s();
            if (!reply) {
              me.error = "connection closed";
              break;
            }
            me.rtt_s.push_back(t1 - t0);
            const std::uint64_t h = fnv1a(*reply);
            if (hot >= 0) {
              me.hot.emplace_back(hot, h);
            } else {
              line.pop_back();
              me.novel.emplace_back(std::move(line), h);
            }
            if (t1 >= deadline) break;
          }
          me.end = now_s();
        } catch (const std::exception& e) {
          me.error = e.what();
        }
      });
    }
    reset_peak_rss();
    start = now_s();
    go.store(true);
    for (auto& t : pool) t.join();

    Window w;
    w.rss_mb.push_back(peak_rss_mb());
    double end = start;
    for (auto& me : per) {
      if (!me.error.empty()) r_.fail("client: " + me.error);
      end = std::max(end, me.end);
      w.op_s.insert(w.op_s.end(), me.rtt_s.begin(), me.rtt_s.end());
      sent_ += me.rtt_s.size();
      for (const auto& [idx, h] : me.hot) {
        r_.attempted++;
        if (h != hot_hash_[static_cast<std::size_t>(idx)]) {
          r_.fail("hot line " + mix_.hot[static_cast<std::size_t>(idx)].substr(0, 80) +
                  " differs from the in-process answer");
        }
      }
    }
    w.requests = w.op_s.size();
    w.wall_s = end - start;
    // Checked (and dropped) per window, so the client side's memory does
    // not pile up in the peak resident set of later windows.
    std::vector<std::pair<std::string, std::uint64_t>> novel;
    for (auto& me : per) {
      for (auto& n : me.novel) novel.push_back(std::move(n));
    }
    per.clear();
    check_novel(novel);
    return w;
  }

  void finish() override { stop_server(); }

  LayerInputs layer_inputs() const override {
    LayerInputs in;
    in.config = config_;
    Rng rng(o_.seed, 200);
    const std::size_t n = o_.tiny ? kTinyProbeLines : kProbeLines;
    for (std::size_t k = 0; k < n; ++k) {
      int hot = -1;
      in.lines.push_back(serve_line(mix_, rng, 999, k, &hot));
    }
    in.source = std::to_string(n) + " lines drawn from the serve mix";
    return in;
  }

 private:
  /// Every novel line must equal the reference Service's in-process answer.
  void check_novel(
      const std::vector<std::pair<std::string, std::uint64_t>>& novel) {
    const int n = host_threads();
    std::vector<std::vector<std::string>> errors(n);
    std::vector<std::thread> pool;
    for (int t = 0; t < n; ++t) {
      pool.emplace_back([&, t] {
        for (std::size_t i = t; i < novel.size(); i += n) {
          const auto& [line, h] = novel[i];
          auto parsed = api::parse_request_json(line);
          const std::string expected =
              parsed ? api::response_line(reference_->serve(parsed.value()))
                     : std::string("unparsable");
          if (fnv1a(expected) != h || !is_ok(expected)) {
            errors[t].push_back("novel line " + line.substr(0, 120));
          }
        }
      });
    }
    for (auto& t : pool) t.join();
    r_.attempted += novel.size();
    for (const auto& list : errors) {
      for (const auto& e : list) r_.fail(e);
    }
  }

  /// Stop the running server; it must have admitted and written exactly
  /// the lines the clients sent it.
  void stop_server() {
    if (!server_) return;
    server_->shutdown();
    server_->wait();
    const auto stats = server_->stats();
    r_.attempted++;
    if (stats.requests_admitted != sent_ || stats.responses_written != sent_) {
      r_.fail("server admitted " + std::to_string(stats.requests_admitted) +
              ", wrote " + std::to_string(stats.responses_written) + " of " +
              std::to_string(sent_) + " lines sent");
    }
    server_.reset();
  }

  /// Untimed warm-up: the whole hot set once through one connection, so
  /// hot lines are memo hits in the window.
  void warm_up() {
    auto client = server::Client::connect(server_->config().listen);
    std::vector<std::string> replies;
    for (const auto& line : mix_.hot) {
      client.send(line + "\n");
      auto reply = client.read_line();
      replies.push_back(reply ? *reply : std::string());
    }
    client.close();
    sent_ = mix_.hot.size();
    if (!reference_) return;
    hot_hash_.clear();
    for (std::size_t i = 0; i < mix_.hot.size(); ++i) {
      auto parsed = api::parse_request_json(mix_.hot[i]);
      const std::string expected =
          parsed ? api::response_line(reference_->serve(parsed.value())) : "";
      hot_hash_.push_back(fnv1a(expected));
      r_.attempted++;
      if (expected != replies[i] || !is_ok(expected)) {
        r_.fail("warm-up line " + mix_.hot[i].substr(0, 80) + " differs");
      }
    }
  }

  ServeMix mix_;
  api::ServiceConfig config_;
  std::shared_ptr<api::Service> service_;
  std::shared_ptr<api::Service> reference_;
  std::unique_ptr<server::Server> server_;
  std::vector<std::uint64_t> hot_hash_;
  std::uint64_t sent_ = 0;
  std::uint64_t windows_ = 0;
};

// --- design_study -----------------------------------------------------

std::vector<std::string> fixture_lines(const std::string& path,
                                       const std::set<std::string>& ids) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::vector<std::string> out;
  std::string line;
  while (std::getline(in, line)) {
    if (ids.count(id_of(line)) != 0) out.push_back(line);
  }
  if (out.size() != ids.size()) {
    throw std::runtime_error(path + " lacks the fixture lines r097-r099");
  }
  return out;
}

const std::set<std::string> kFixtureIds = {"r097", "r098", "r099"};

/// The paper's Section 5 questions as one batch on a fresh Service per pass.
class DesignStudyWorkload : public Workload {
 public:
  DesignStudyWorkload(const Options& o, Result& r)
      : Workload(o, r),
        study_(make_study()),
        golden_(fixture_lines(o.root + "/tests/data/batch_responses_golden.jsonl",
                              kFixtureIds)) {
    r.inputs = study_.properties;
    r.inputs["threads"] = std::to_string(host_threads());
    r.inputs["service"] = "fresh Service per pass";
  }

  int setup_reps() const override { return o_.tiny ? 2 : 10; }

  /// The input bytes (read from the fixture, then generated) and
  /// Service::create.
  double setup(bool) override {
    service_.reset();
    const double t0 = now_s();
    study_ = make_study();
    service_ = make_service({});
    return now_s() - t0;
  }

  Window window(double seconds) override {
    Window w;
    const double start = now_s();
    do {
      service_.reset();
      reset_peak_rss();
      const double t0 = now_s();
      std::string out;
      {
        Span it("bench.iteration");
        {
          Span s("api.Service::create");
          service_ = make_service({});
        }
        Span s("api.run_batch_jsonl");
        out = run_stream(*service_, study_.jsonl);
      }
      record(w, now_s() - t0, study_.lines.size());
      check_output(out);
      ++passes_;
      // At least two passes per run, so "all passes give identical bytes"
      // is always checked.
    } while (now_s() - start < seconds || passes_ < 2);
    w.wall_s = now_s() - start;
    return w;
  }

  LayerInputs layer_inputs() const override {
    LayerInputs in;
    in.lines = study_.lines;
    in.menu_targets_ps = {study_.menu_target_ps};
    in.l1_amat_ps = study_.l1_sweep_amat_ps;
    in.l2_amat_ps = study_.l2_sweep_amat_ps;
    in.source = "the study's own lines";
    return in;
  }

 private:
  DesignStudy make_study() const {
    return make_design_study(
        o_.seed,
        fixture_lines(o_.root + "/tests/data/batch_requests.jsonl", kFixtureIds),
        o_.tiny ? 2 : 3);
  }

  void check_output(const std::string& out) {
    if (!first_output_.empty()) {
      r_.attempted++;
      if (out != first_output_) r_.fail("design-study pass bytes differ");
      return;
    }
    first_output_ = out;
    check_stream(r_, "study output", study_.lines, out);
    const auto lines = split_lines(out);
    for (const auto& expected : golden_) {
      r_.attempted++;
      bool found = false;
      for (const auto& l : lines) found = found || l == expected;
      if (!found) r_.fail("fixture " + id_of(expected) + " differs from the golden");
    }
  }

  DesignStudy study_;
  std::vector<std::string> golden_;
  int passes_ = 0;
  std::shared_ptr<api::Service> service_;
  std::string first_output_;
};

// --- layer probes -----------------------------------------------------

std::uint64_t size_of(const api::Request& r) {
  const auto& t = r.kind == api::RequestKind::kEval ? r.eval.target
                                                    : r.optimize.target;
  if (t.size_bytes != 0) return t.size_bytes;
  return t.level == api::Level::kL2 ? 1048576 : 16384;
}

nanocache::opt::Scheme scheme_of(api::SchemeId s) {
  switch (s) {
    case api::SchemeId::kI: return nanocache::opt::Scheme::kPerComponent;
    case api::SchemeId::kII: return nanocache::opt::Scheme::kArrayPeriphery;
    case api::SchemeId::kIII: return nanocache::opt::Scheme::kUniform;
  }
  return nanocache::opt::Scheme::kUniform;
}

std::vector<api::Request> parse_all(const std::vector<std::string>& lines) {
  std::vector<api::Request> out;
  for (const auto& l : lines) {
    auto parsed = api::parse_request_json(l);
    if (parsed) out.push_back(parsed.value());
  }
  return out;
}

bool plain_eval(const api::Request& r) {
  return r.kind == api::RequestKind::kEval && r.eval.organization.is_default() &&
         r.eval.node_nm == 0;
}

bool plain_optimize(const api::Request& r) {
  return r.kind == api::RequestKind::kOptimize &&
         r.optimize.organization.is_default() && r.optimize.node_nm == 0 &&
         !r.optimize.power_gating.enabled && r.optimize.delay.target_ps > 0.0;
}

/// Requests of `kind` among `reqs`; when fewer than `min` qualify, the
/// surrogate-covered reference lines are added so the layer still gets
/// timed on inputs of its own kind.
std::vector<api::Request> with_reference(
    std::vector<api::Request> reqs, bool (*keep)(const api::Request&),
    std::size_t min, std::uint64_t seed, std::string* note) {
  std::vector<api::Request> out;
  for (auto& r : reqs) {
    if (keep(r)) out.push_back(std::move(r));
  }
  if (out.size() < min) {
    *note = std::to_string(out.size()) + " workload inputs + reference lines";
    for (auto& r : parse_all(novel_lines(seed, 8 * min))) {
      if (keep(r)) out.push_back(std::move(r));
    }
  } else {
    *note = std::to_string(out.size()) + " workload inputs";
  }
  return out;
}

struct ProbeOutcome {
  std::vector<double> warm_pipeline_s;
  std::vector<double> server_rtt_s;
  server::ServerStats server_stats;
  std::uint64_t lines_sent = 0;
  std::uint64_t optimize_calls = 0;
  std::uint64_t combos = 0;
  std::uint64_t designs = 0;
  std::map<std::string, std::string> notes;
};

ProbeOutcome layer_probes(const Options& o, const LayerInputs& in, Result& r) {
  ProbeOutcome out;
  auto& registry = nanocache::metrics::Registry::instance();
  const auto service = make_service(in.config);

  std::vector<std::string> lines;
  for (const auto& line : in.lines) {
    auto parsed = api::parse_request_json(line);
    if (parsed) {
      lines.push_back(line);
    } else {
      r.fail("probe parse: " + parsed.error().message);
    }
  }

  // Parse, key, serve (cold then warm) and serialize every line in-process.
  std::vector<std::string> keys, stored, expected;
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t i = 0; i < lines.size(); ++i) {
      const double t0 = now_s();
      std::string line;
      {
        Span req("bench.request", i + 1);
        auto parsed = [&] {
          Span s("api.parse", i + 1);
          return api::parse_request_json(lines[i]);
        }();
        std::string key;
        {
          Span s("api.key", i + 1);
          key = api::request_canonical_key(parsed.value());
        }
        api::Response response;
        {
          Span s(pass == 0 ? "api.serve_miss" : "api.serve_hit", i + 1);
          response = service->serve(parsed.value());
        }
        Span s("api.serialize", i + 1);
        line = api::response_line(response);
        if (pass == 0) {
          keys.push_back(key);
          response.id.clear();
          stored.push_back(api::response_to_json(response));
        }
      }
      r.attempted++;
      if (pass == 0) {
        expected.push_back(line);
        if (!is_ok(line)) r.fail("probe error response " + line.substr(0, 160));
      } else {
        out.warm_pipeline_s.push_back(now_s() - t0);
        if (line != expected[i]) r.fail("probe warm answer differs on line " + std::to_string(i));
      }
    }
  }

  // The disk tier: re-parse stored lines, then store and look them up.
  for (std::size_t i = 0; i < stored.size(); ++i) {
    Span s("api.parse_response", i + 1);
    if (!api::parse_response_json(stored[i])) r.fail("stored line does not parse");
  }
  {
    auto disk = api::DiskCache::open(fresh_dir(o, "probe_disk"),
                                     service->configuration_fingerprint());
    for (std::size_t i = 0; i < keys.size(); ++i) {
      Span s("api.disk_store", i + 1);
      disk->store(keys[i], stored[i]);
    }
    for (std::size_t i = 0; i < keys.size(); ++i) {
      std::optional<std::string> hit;
      {
        Span s("api.disk_lookup", i + 1);
        hit = disk->lookup(keys[i]);
      }
      r.attempted++;
      if (!hit || *hit != stored[i]) r.fail("disk lookup lost an entry");
    }
  }

  // The surrogate tier on tables precomputed here.
  const auto exact = make_service({});
  const std::string tables = fresh_dir(o, "probe_tables");
  {
    api::PrecomputeOptions options;
    options.stamp = "perfbench";
    Span s("surrogate.precompute");
    api::precompute_surrogate(*exact, tables, options);
  }
  std::unique_ptr<nanocache::surrogate::SurrogateStore> store;
  for (int i = 0; i < 5; ++i) {
    Span s("surrogate.open");
    store = nanocache::surrogate::SurrogateStore::open(
        tables, exact->configuration_fingerprint());
  }
  const auto requests = parse_all(lines);
  std::size_t covered = 0, lookups = 0;
  std::string note;
  for (const auto& q : with_reference(requests, plain_eval, 100, o.seed, &note)) {
    Span s("surrogate.lookup_eval");
    covered += store->lookup_eval(q.eval.target.level, size_of(q), 0, q.eval.knobs)
                   .has_value();
    ++lookups;
  }
  out.notes["surrogate.lookup_eval_us"] = note;
  for (const auto& q : with_reference(requests, plain_optimize, 50, o.seed, &note)) {
    Span s("surrogate.lookup_optimize");
    covered += store->lookup_optimize(q.optimize.target.level, size_of(q), 0,
                                      q.optimize.scheme, q.optimize.delay.target_ps)
                   .has_value();
    ++lookups;
  }
  out.notes["surrogate.lookup_optimize_us"] =
      note + "; " + std::to_string(covered) + " of " + std::to_string(lookups) +
      " probe lookups covered";

  // The server: the same lines through a Server, nproc connections.
  {
    server::ServerConfig sc;
    sc.listen.kind = server::ListenKind::kUnix;
    sc.listen.path = (fs::path(o.work_dir) / "probe.sock").string();
    fs::remove(sc.listen.path);
    sc.workers = host_threads();
    server::Server srv(service, sc);
    srv.start();
    const int clients = host_threads();
    std::vector<std::vector<double>> rtt(clients);
    std::vector<std::string> errors(clients);
    std::vector<std::thread> pool;
    for (int c = 0; c < clients; ++c) {
      pool.emplace_back([&, c] {
        try {
          auto client = server::Client::connect(sc.listen);
          for (std::size_t i = c; i < lines.size(); i += clients) {
            const double t0 = now_s();
            client.send(lines[i] + "\n");
            const auto reply = client.read_line();
            rtt[c].push_back(now_s() - t0);
            if (!reply || *reply != expected[i]) {
              errors[c] = "served line differs from in-process answer";
            }
          }
        } catch (const std::exception& e) {
          errors[c] = e.what();
        }
      });
    }
    for (auto& t : pool) t.join();
    srv.shutdown();
    srv.wait();
    out.server_stats = srv.stats();
    out.lines_sent = lines.size();
    for (int c = 0; c < clients; ++c) {
      out.server_rtt_s.insert(out.server_rtt_s.end(), rtt[c].begin(), rtt[c].end());
      r.attempted++;
      if (!errors[c].empty()) r.fail("probe server: " + errors[c]);
    }
  }

  // opt and cachemodel through the explorer escape hatch.
  const auto& ex = service->explorer();
  const auto grid = ex.config().grid;
  const auto combos0 = registry.counter("opt.combos_evaluated").value();
  for (const auto& q : with_reference(requests, plain_optimize, 30, o.seed, &note)) {
    const bool l2 = q.optimize.target.level == api::Level::kL2;
    const auto& model = l2 ? ex.l2_model(size_of(q)) : ex.l1_model(size_of(q));
    const auto eval = ex.evaluator(model);
    Span s("opt.optimize");
    nanocache::opt::optimize_single_cache_pruned(
        eval, grid, scheme_of(q.optimize.scheme), q.optimize.delay.target_ps * 1e-12);
    ++out.optimize_calls;
  }
  out.combos = registry.counter("opt.combos_evaluated").value() - combos0;
  out.notes["opt.optimize_us"] = note;
  for (const auto& q : with_reference(requests, plain_eval, 100, o.seed, &note)) {
    const bool l2 = q.eval.target.level == api::Level::kL2;
    const auto& model = l2 ? ex.l2_model(size_of(q)) : ex.l1_model(size_of(q));
    Span s("cachemodel.evaluate");
    model.evaluate_uniform({q.eval.knobs.vth_v, q.eval.knobs.tox_a});
  }
  out.notes["cachemodel.evaluate_us"] = note;

  // Lazy model builds and size sweeps on a fresh Service's explorer.
  {
    const auto fresh = make_service({});
    const auto& fx = fresh->explorer();
    std::set<std::tuple<bool, std::uint64_t, int, std::uint32_t>> builds;
    for (const auto& q : requests) {
      if (q.kind == api::RequestKind::kEval && q.eval.node_nm == 0) {
        const bool l2 = q.eval.target.level == api::Level::kL2;
        const auto& org = q.eval.organization;
        builds.emplace(l2, size_of(q),
                       org.is_default() ? 0
                                        : (org.associativity == 0 ? (l2 ? 8 : 2)
                                                                  : org.associativity),
                       org.banks == 0 ? 1 : org.banks);
      }
    }
    if (builds.size() < 3) {
      for (const auto s : fx.config().l1_size_sweep) builds.emplace(false, s, 0, 1);
      for (const auto s : fx.config().l2_size_sweep) builds.emplace(true, s, 0, 1);
      out.notes["cachemodel.model_build_ms"] = "the Section 5 sweep sizes";
    } else {
      out.notes["cachemodel.model_build_ms"] =
          std::to_string(builds.size()) + " distinct default-node models of the workload";
    }
    for (const auto& [l2, size, assoc, banks] : builds) {
      Span s("cachemodel.model_build");
      if (assoc == 0) {
        l2 ? fx.l2_model(size) : fx.l1_model(size);
      } else {
        fx.variant_model(size, l2, assoc, banks);
      }
    }
    {
      Span s("core.size_sweep");
      fx.l1_size_sweep(in.l1_amat_ps * 1e-12);
    }
    for (const auto scheme : {nanocache::opt::Scheme::kArrayPeriphery,
                              nanocache::opt::Scheme::kUniform}) {
      Span s("core.size_sweep");
      fx.l2_size_sweep(scheme, in.l2_amat_ps * 1e-12);
    }
  }

  // The tuple menus, each on a fresh Service.
  const auto designs0 = registry.counter("opt.designs_considered").value();
  for (const int n : {2, 3}) {
    const auto fresh = make_service({});
    api::TupleMenuRequest request;
    request.num_tox = n;
    request.num_vth = n;
    request.delay.targets_ps = in.menu_targets_ps;
    auto menu = api::Outcome<api::TupleMenuResponse>::failure(
        api::ErrorInfo{api::ErrorCode::kInternal, "not run"});
    {
      Span s(n == 2 ? "opt.menu_2x2" : "opt.menu_3x3");
      menu = fresh->tuple_menu(request);
    }
    r.attempted++;
    if (!menu) r.fail("tuple_menu: " + menu.error().message);
  }
  out.designs = registry.counter("opt.designs_considered").value() - designs0;
  return out;
}

/// Counter values and CPU time at one instant.
struct Snapshot {
  nanocache::metrics::MetricsSnapshot metrics;
  double cpu_s = 0.0;
  double wall_s = 0.0;
  static Snapshot take() {
    return {nanocache::metrics::Registry::instance().snapshot(), cpu_seconds(),
            now_s()};
  }
  std::uint64_t delta(const Snapshot& before, const std::string& name) const {
    return counter(metrics, name) - counter(before.metrics, name);
  }
};

void report_traced(const Options& o, Workload& w, Result& r) {
  // Tracing overhead: the same window untraced, then traced.
  const Window plain = w.window(o.seconds / 3.0);
  Tracer::enable(true);
  const Snapshot before = Snapshot::take();
  const Window traced = w.window(o.seconds / 3.0);
  const Snapshot after = Snapshot::take();
  w.finish();
  const double ops = static_cast<double>(traced.op_s.size());
  const LayerInputs inputs = w.layer_inputs();
  r.inputs["probe_lines"] = inputs.source;
  const ProbeOutcome probe = layer_probes(o, inputs, r);
  Tracer::enable(false);

  r.set("trace.untraced_throughput_rps", plain.throughput_rps(), "req/s",
        plain.op_s.size());
  r.set("trace.throughput_rps", traced.throughput_rps(), "req/s", traced.op_s.size());
  r.set("trace.overhead_share",
        ratio(plain.throughput_rps() - traced.throughput_rps(), plain.throughput_rps()),
        "ratio", traced.op_s.size(), "1 - traced/untraced throughput");

  const auto d = [&](const std::string& name) {
    return static_cast<double>(after.delta(before, name));
  };
  const double memo = d("api.memo.hits") + d("api.memo.misses");
  r.set("api.memo_hit_share", ratio(d("api.memo.hits"), memo), "ratio", 1,
        "base api.memo_lookups");
  r.set("api.memo_lookups", memo, "count");
  const double disk = d("api.disk.hits") + d("api.disk.misses");
  r.set("api.disk_hit_share", ratio(d("api.disk.hits"), disk), "ratio", 1,
        "base api.disk_lookups");
  r.set("api.disk_lookups", disk, "count");
  r.set("api.batch_dedup_share",
        ratio(d("api.batch.request_hits"), d("api.batch.requests")), "ratio", 1,
        "base api.batch_requests");
  r.set("api.batch_requests", d("api.batch.requests"), "count");
  const double sur = d("api.surrogate.hits") + d("api.surrogate.fallbacks");
  r.set("surrogate.hit_share", ratio(d("api.surrogate.hits"), sur), "ratio", 1,
        "base surrogate.lookups");
  r.set("surrogate.lookups", sur, "count");
  r.set("parallel.regions", ratio(d("parallel.regions"), ops), "count/op", 1,
        "per operation of the traced window");
  r.set("parallel.serial_regions", ratio(d("parallel.serial_regions"), ops),
        "count/op", 1, "per operation of the traced window");
  r.set("parallel.cpu_busy_share",
        ratio(after.cpu_s - before.cpu_s, (after.wall_s - before.wall_s) * w.threads()),
        "ratio", 1, "process CPU / (wall x threads), traced window");

  const auto spans = Tracer::collect();
  const auto self = self_times_s(spans);
  const auto med = [&](const char* span, double scale, const char* metric,
                       const char* unit) {
    const auto it = self.find(span);
    const std::vector<double> v = it == self.end() ? std::vector<double>{} : it->second;
    const auto note = probe.notes.find(metric);
    r.set(metric, median(v) * scale, unit, v.size(),
          note == probe.notes.end() ? "" : note->second);
  };
  med("api.parse", 1e6, "api.parse_us", "us");
  med("api.key", 1e6, "api.key_us", "us");
  med("api.serialize", 1e6, "api.serialize_us", "us");
  med("api.serve_hit", 1e6, "api.serve_hit_us", "us");
  med("api.serve_miss", 1e6, "api.serve_miss_us", "us");
  med("api.parse_response", 1e6, "api.parse_response_us", "us");
  med("api.disk_lookup", 1e6, "api.disk_lookup_us", "us");
  med("api.disk_store", 1e6, "api.disk_store_us", "us");
  med("surrogate.lookup_eval", 1e6, "surrogate.lookup_eval_us", "us");
  med("surrogate.lookup_optimize", 1e6, "surrogate.lookup_optimize_us", "us");
  med("surrogate.precompute", 1.0, "surrogate.precompute_s", "s");
  med("surrogate.open", 1.0, "surrogate.open_s", "s");
  med("opt.optimize", 1e6, "opt.optimize_us", "us");
  med("opt.menu_2x2", 1.0, "opt.menu_2x2_s", "s");
  med("opt.menu_3x3", 1.0, "opt.menu_3x3_s", "s");
  med("cachemodel.evaluate", 1e6, "cachemodel.evaluate_us", "us");
  med("cachemodel.model_build", 1e3, "cachemodel.model_build_ms", "ms");
  med("core.size_sweep", 1e3, "core.size_sweep_ms", "ms");

  r.set("opt.combos_per_optimize",
        ratio(static_cast<double>(probe.combos), static_cast<double>(probe.optimize_calls)),
        "count", 1, "opt.combos_evaluated / probe optimize calls");
  r.set("opt.optimize_calls", static_cast<double>(probe.optimize_calls), "count");
  r.set("opt.designs_considered", static_cast<double>(probe.designs), "count", 1,
        "2x2 + 3x3 menu probes");
  r.set("server.overhead_us",
        (median(probe.server_rtt_s) - median(probe.warm_pipeline_s)) * 1e6, "us",
        probe.server_rtt_s.size(),
        "client round trip p50 - in-process parse+key+serve+serialize p50");
  r.set("server.admitted", static_cast<double>(probe.server_stats.requests_admitted),
        "count");
  r.set("server.written", static_cast<double>(probe.server_stats.responses_written),
        "count");
  r.set("server.lines_sent", static_cast<double>(probe.lines_sent), "count");
  r.attempted++;
  if (probe.server_stats.requests_admitted != probe.lines_sent ||
      probe.server_stats.responses_written != probe.lines_sent) {
    r.fail("probe server admitted/written differ from lines sent");
  }

  r.unmeasurable["cachemodel.model_build_ms (per-node part)"] =
      "per-node explorers live inside Service; only l1/l2/variant model builds of "
      "the default node are reachable from outside";
  r.unmeasurable["server queue wait / socket write split"] =
      "Server exposes no per-stage timings; server.overhead_us reports them together";
  r.unmeasurable["opt.optimize_calls registry counter"] =
      "optimize_single_cache_pruned does not bump it; the base is the probe's own "
      "call count";

  fs::create_directories(fs::path(o.work_dir) / "trace");
  write_spans((fs::path(o.work_dir) / "trace" / (o.workload + ".jsonl")).string(),
              spans);
  Tracer::clear();
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"batch_cold", "batch_replay",
                                                 "serve_mix", "design_study"};
  return names;
}

const std::vector<std::string>& end_to_end_metric_names() {
  static const std::vector<std::string> names = {"setup_s", "throughput_rps",
                                                 "study_s", "peak_rss_mb"};
  return names;
}

const std::vector<std::string>& per_layer_metric_names() {
  static const std::vector<std::string> names = {
      "api.parse_us", "api.key_us", "api.serialize_us", "api.serve_hit_us",
      "api.serve_miss_us", "api.parse_response_us", "api.disk_lookup_us",
      "api.disk_store_us", "api.memo_hit_share", "api.memo_lookups",
      "api.disk_hit_share", "api.disk_lookups", "api.batch_dedup_share",
      "api.batch_requests", "surrogate.lookup_eval_us",
      "surrogate.lookup_optimize_us", "surrogate.hit_share", "surrogate.lookups",
      "surrogate.precompute_s", "surrogate.open_s", "server.overhead_us",
      "server.admitted", "server.written", "server.lines_sent",
      "opt.optimize_us", "opt.combos_per_optimize", "opt.optimize_calls",
      "opt.menu_2x2_s", "opt.menu_3x3_s", "opt.designs_considered",
      "cachemodel.evaluate_us", "cachemodel.model_build_ms",
      "core.size_sweep_ms", "parallel.cpu_busy_share", "parallel.regions",
      "parallel.serial_regions", "failed_share", "trace.throughput_rps",
      "trace.untraced_throughput_rps", "trace.overhead_share"};
  return names;
}

Result run_workload(const Options& o) {
  Result r;
  r.workload = o.workload;
  r.seed = o.seed;
  r.traced = o.trace;
  nanocache::par::set_default_threads(host_threads());
  try {
    std::unique_ptr<Workload> w;
    if (o.workload == "batch_cold") {
      w = std::make_unique<BatchCold>(o, r);
    } else if (o.workload == "batch_replay") {
      w = std::make_unique<BatchReplay>(o, r);
    } else if (o.workload == "serve_mix") {
      w = std::make_unique<ServeMixWorkload>(o, r);
    } else if (o.workload == "design_study") {
      w = std::make_unique<DesignStudyWorkload>(o, r);
    } else {
      throw std::invalid_argument("unknown workload " + o.workload);
    }
    nanocache::par::set_default_threads(w->threads());
    if (o.trace) {
      w->setup(true);
      report_traced(o, *w, r);
    } else {
      std::vector<double> setups;
      for (int i = 0; i < w->setup_reps(); ++i) {
        setups.push_back(w->setup(i + 1 == w->setup_reps()));
      }
      const Window win = w->window(o.seconds);
      w->finish();
      r.set("setup_s", median(setups), "s", setups.size());
      r.set("throughput_rps", win.throughput_rps(), "req/s",
            win.op_rps.empty() ? win.requests : win.op_rps.size(),
            std::to_string(win.requests) + " request lines in " +
                std::to_string(win.wall_s) + " s");
      r.set("study_s", median(win.op_s), "s", win.op_s.size(),
            "one operation (a study pass, a stream, or a served line): p50 " +
                std::to_string(median(win.op_s) * 1e6) + " us, p99 " +
                std::to_string(percentile(win.op_s, 99.0) * 1e6) + " us over " +
                std::to_string(win.op_s.size()));
      r.set("peak_rss_mb", median(win.rss_mb), "MB", win.rss_mb.size(),
            "peak resident set during one operation (serve_mix: the window)");
    }
  } catch (const std::exception& e) {
    r.fail(std::string("aborted: ") + e.what());
  }
  if (o.trace) {
    r.set("failed_share",
          ratio(static_cast<double>(r.failed), static_cast<double>(r.attempted)),
          "ratio", 1, "base: attempted");
  }
  return r;
}

}  // namespace perfbench
