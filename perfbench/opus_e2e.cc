// opus_e2e — end-to-end benchmark of the serving daemon (serve::Daemon and
// the opus_daemon binary), with per-layer attribution and correctness
// checks computed apart from the program.
//
//   opus_e2e --workload NAME --seed N --seconds S --trace 0|1
//            --daemon PATH --out-dir DIR [--git-rev REV]
//
// Workloads (see README.md for why each exists):
//   direct-windows  in-process, 128 users x 1024 files, direct OpuS
//   agg-scale       in-process, 256 users x 2048 files, --agg-auto 16
//   read-steady     in-process, 16 users x 2048 files, rare reallocation
//   socket-mix      opus_daemon over its Unix socket, open loop
//
// In-process workloads serve the benchmark's own schedule through
// Daemon::engine().ServeRange in 2048-event slices (the daemon's `gen` job
// slice) in whole rounds, each on a freshly constructed daemon, until the
// run length is used. Every round must reproduce the first bit for bit.
//
// The last stdout line is one JSON object: {"correct", "attempted",
// "failed", "metrics"}; end-to-end metrics with --trace 0, per-layer
// metrics with --trace 1. A full report (host metadata, every check, every
// traced window) goes to DIR/report-<workload>-<seed>-<trace>.json.
#include <fcntl.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "cache/cluster.h"
#include "cache/file_meta.h"
#include "core/opus.h"
#include "core/policy_factory.h"
#include "obs/fairness_audit.h"
#include "obs/latency.h"
#include "serve/daemon.h"
#include "serve/protocol.h"
#include "sim/opus_master.h"
#include "workload/trace.h"

extern char** environ;

namespace {

using opus::Matrix;
using opus::cache::kMiB;
using opus::serve::Daemon;
using opus::serve::DaemonConfig;
using opus::serve::ServeStats;
using opus::workload::AccessEvent;
using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kFileBytes = 4 * kMiB;  // 4 blocks of 1 MiB
constexpr std::size_t kSlice = 2048;            // the daemon's gen slice
// In-process workloads are watched by a monitor that sends `status` once
// every this many slices (16384 events).
constexpr std::size_t kPollEvery = 8;
constexpr std::uint32_t kWorkers = 4;
constexpr double kZipfAlpha = 1.1;
constexpr double kRankNoise = 0.3;
constexpr std::size_t kMinSetups = 15;
// Daemon-layer probe (traced runs of in-process workloads): serve frames
// over the socket and in-process, plus single-event engine serves.
constexpr std::size_t kProbeFrames = 1024;
constexpr std::size_t kProbeSingles = 256;
// Isolation slack in utility units (the allocator's own gate is 1e-7).
constexpr double kIsolationSlack = 1e-6;
constexpr double kKktTolerance = 1e-6;

double Since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

struct Workload {
  std::string name;
  std::size_t users;
  std::size_t files;
  std::size_t interval;
  std::size_t window;
  std::size_t agg_min_clusters;  // 0 = direct OpuS
  unsigned threads;              // engine probe threads
  std::size_t round_events;      // in-process: events per round
  double rate;                   // socket-mix: frames per second
};

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> kAll = {
      // Window-bound workloads keep the daemon default, threads = workers.
      {"direct-windows", 128, 1024, 2000, 8000, 0, 4, 40000, 0.0},
      {"agg-scale", 256, 2048, 2048, 8192, 16, 4, 32768, 0.0},
      // Engine-bound workloads run one engine thread: with four on a 4-CPU
      // host the engine is 1.5-1.8x slower than with one and its figures
      // move 15-50% between runs (README.md, observations).
      {"read-steady", 16, 2048, 2000000, 2000000, 0, 1, 4000000, 0.0},
      {"socket-mix", 64, 1024, 2000, 8000, 0, 1, 0, 3000.0},
  };
  return kAll;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string daemon;
  std::string out_dir = ".bench_out";
  std::string git_rev = "unknown";
};

// ---------------------------------------------------------------- report

struct Metric {
  double value;
  std::string unit;
};

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::size_t checks = 0;
  std::vector<std::string> failures;
  std::map<std::string, Metric> e2e;
  std::map<std::string, Metric> layer;
  std::map<std::string, double> info;  // sample counts and context
  std::vector<std::string> windows;    // traced windows, JSON objects

  void Check(bool ok, const std::string& what) {
    ++checks;
    if (!ok) {
      correct = false;
      if (failures.size() < 50) failures.push_back(what);
    }
  }
};

// ------------------------------------------------------- configuration

DaemonConfig MakeConfig(const Workload& w, const std::string& out_dir) {
  DaemonConfig c;
  c.socket_path = out_dir + "/unused.sock";
  c.cluster.num_workers = kWorkers;
  c.cluster.num_users = static_cast<std::uint32_t>(w.users);
  c.cluster.cache_capacity_bytes = w.files * kFileBytes / 4;
  c.master.update_interval = w.interval;
  c.master.learning_window = w.window;
  c.engine.threads = w.threads;
  c.policy = "opus";
  if (w.agg_min_clusters > 0) {
    c.opus_tuning.aggregation.auto_tune = true;
    c.opus_tuning.aggregation.min_clusters = w.agg_min_clusters;
  }
  c.flight_path = out_dir + "/flight.json";
  return c;
}

opus::cache::Catalog MakeCatalog(const Workload& w) {
  opus::cache::Catalog catalog(1 * kMiB);
  for (std::size_t f = 0; f < w.files; ++f) {
    catalog.Register("file" + std::to_string(f), kFileBytes);
  }
  return catalog;
}

// Flags that make opus_daemon build exactly MakeConfig's daemon.
std::vector<std::string> DaemonFlags(const Workload& w,
                                     const std::string& socket,
                                     const std::string& flight) {
  std::vector<std::string> a = {
      "--socket", socket,
      "--files", std::to_string(w.files),
      "--file-mb", std::to_string(kFileBytes / kMiB),
      "--users", std::to_string(w.users),
      "--workers", std::to_string(kWorkers),
      "--cache-mb", std::to_string(w.files * kFileBytes / 4 / kMiB),
      "--threads", std::to_string(w.threads),
      "--update-interval", std::to_string(w.interval),
      "--window", std::to_string(w.window),
      "--flight-out", flight};
  if (w.agg_min_clusters > 0) {
    a.push_back("--agg-auto");
    a.push_back(std::to_string(w.agg_min_clusters));
  }
  return a;
}

// ------------------------------------------------------------ schedule

// One access of the benchmark's schedule, kept at 8 bytes so a multi-
// million-event round stays small; AccessEvents are built per slice.
struct Access {
  std::uint32_t user;
  std::uint32_t file;
};
using Schedule = std::vector<Access>;

AccessEvent ToEvent(const Access& a) {
  AccessEvent e;
  e.user = a.user;
  e.file = a.file;
  return e;
}

// Fills `out` with the events of schedule[begin, end).
void Materialize(const Schedule& schedule, std::size_t begin, std::size_t end,
                 std::vector<AccessEvent>* out) {
  out->clear();
  for (std::size_t k = begin; k < end; ++k) out->push_back(ToEvent(schedule[k]));
}

// The access stream: each access is a uniformly drawn user among `active`
// reading the file at a Zipf-drawn rank of that user's own ranking.
class Generator {
 public:
  Generator(const Workload& w, std::uint64_t seed)
      : rng_(seed * 0x9e3779b97f4a7c15ull + 17),
        zipf_(w.files, kZipfAlpha) {
    perfbench::Rng rank_rng(seed ^ 0x5eedf00dull);
    rankings_ = perfbench::CorrelatedRankings(w.users, w.files, kRankNoise,
                                              rank_rng);
  }

  Access Next(const std::vector<std::uint32_t>& active) {
    Access a;
    a.user = active[rng_.Next() % active.size()];
    a.file = rankings_[a.user][zipf_.Sample(rng_)];
    return a;
  }

  perfbench::Rng& rng() { return rng_; }

 private:
  perfbench::Rng rng_;
  perfbench::ZipfSampler zipf_;
  std::vector<std::vector<std::uint32_t>> rankings_;
};

std::vector<std::uint32_t> AllUsers(std::size_t n) {
  std::vector<std::uint32_t> all(n);
  for (std::size_t i = 0; i < n; ++i) all[i] = static_cast<std::uint32_t>(i);
  return all;
}

// ------------------------------------------------------ window checks

// Checks one applied window against the benchmark's own oracles: capacity
// in allocator units, the isolation guarantee for every user, and — on
// shared direct windows — PF optimality by KKT complementary slackness.
void CheckWindow(const opus::sim::OpusMaster& master, const Workload& w,
                 std::size_t window, Report* report) {
  const opus::AllocationResult& r = master.current_allocation();
  const Matrix prefs = master.InferredPreferences();
  const double capacity = master.capacity_units();
  const std::string tag =
      w.name + " window " + std::to_string(window) + ": ";
  double used = 0.0;
  for (double a : r.file_alloc) used += a;  // unit-size files
  report->Check(used <= capacity * (1.0 + 1e-9) + 1e-9,
                tag + "sum a_j*s_j exceeds capacity");
  const double budget = capacity / static_cast<double>(prefs.rows());
  std::vector<double> row(prefs.cols());
  std::size_t violations = 0;
  for (std::size_t i = 0; i < prefs.rows(); ++i) {
    double net = 0.0;
    for (std::size_t j = 0; j < prefs.cols(); ++j) {
      row[j] = prefs(i, j);
      net += r.access(i, j) * row[j];
    }
    const double isolated = perfbench::IsolationUtility(row, budget);
    if (net < isolated - kIsolationSlack) ++violations;
  }
  report->Check(violations == 0,
                tag + std::to_string(violations) +
                    " users below their isolated utility");
  if (r.shared && r.solver_agg_clusters == 0) {
    std::vector<std::vector<double>> rows(prefs.rows(),
                                          std::vector<double>(prefs.cols()));
    for (std::size_t i = 0; i < prefs.rows(); ++i) {
      for (std::size_t j = 0; j < prefs.cols(); ++j) rows[i][j] = prefs(i, j);
    }
    const perfbench::KktResult kkt = perfbench::CheckPfKkt(
        rows, r.file_alloc, capacity, kKktTolerance);
    report->Check(kkt.ok, tag + "PF KKT check failed (" + kkt.reason +
                              ", violation " +
                              JsonNumber(kkt.max_violation) + ")");
    report->info["kkt_windows_checked"] += 1;
    report->info["kkt_max_violation"] =
        std::max(report->info["kkt_max_violation"], kkt.max_violation);
  }
  if (!r.shared) report->info["fallback_windows_checked"] += 1;
  report->info["windows_checked"] += 1;
}

double StatusField(const std::string& status, const std::string& key) {
  const std::string k = "\n" + key + "=";
  const std::size_t at = status.find(k);
  if (at == std::string::npos) return -1.0;
  return std::strtod(status.c_str() + at + k.size(), nullptr);
}

// ------------------------------------------------------ window tracer

// Numbers the daemon already exports, read around one serve call.
struct Exported {
  double solve_sec = 0.0;  // master.solve.wall_sec sum
  std::uint64_t pins = 0;
  std::uint64_t unpins = 0;

  static Exported Read(Daemon& d) {
    Exported e;
    opus::obs::MetricsRegistry& m = d.cluster().metrics();
    e.solve_sec = m.histogram("master.solve.wall_sec",
                              {1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0})
                      .sum();
    for (std::uint32_t w = 0; w < kWorkers; ++w) {
      const std::string p = "cluster.worker." + std::to_string(w) + ".";
      e.pins += m.counter(p + "pins").value();
      e.unpins += m.counter(p + "unpins").value();
    }
    return e;
  }
};

// Attributes a reallocation window to layers. Called right after a serve
// call that ended exactly on a reallocation boundary, so the master's
// state is the one the window solved. It re-times the parts through
// public functions on twins: InferredPreferences() on the live master, an
// OpusAllocator replay with the benchmark's own OpusWarmState (whose
// file_alloc must equal the master's bit for bit), ApplyAllocation on a
// twin CacheCluster and AuditWindow on a twin FairnessAuditor.
class WindowTracer {
 public:
  WindowTracer(const DaemonConfig& config, const opus::cache::Catalog& catalog)
      : allocator_(opus::MakeAllocatorByName(
            config.policy, config.tax_threads, &config.opus_tuning)),
        opus_(dynamic_cast<const opus::OpusAllocator*>(allocator_.get())),
        twin_(TwinConfig(config.cluster), catalog),
        auditor_(config.master.audit_config) {}

  void ForgetUser(std::size_t user) { warm_.ForgetUser(user); }
  void Invalidate() { warm_.Invalidate(); }
  bool warm() const { return warm_.valid; }

  void OnWindow(Daemon& d, const Exported& before, double wall_ms,
                bool cold, const std::string& where, Report* report) {
    const Exported after = Exported::Read(d);
    const auto t_infer = Clock::now();
    opus::CachingProblem problem;
    problem.preferences = d.master().InferredPreferences();
    const double infer_ms = Since(t_infer) * 1e3;
    problem.capacity = d.master().capacity_units();
    opus::OpusDiagnostics diag;
    const opus::AllocationResult replay =
        opus_->AllocateIncremental(problem, &warm_, &diag);
    const opus::AllocationResult& live = d.master().current_allocation();
    const bool identical =
        replay.file_alloc.size() == live.file_alloc.size() &&
        std::memcmp(replay.file_alloc.data(), live.file_alloc.data(),
                    live.file_alloc.size() * sizeof(double)) == 0;
    report->Check(identical, where + ": replayed file_alloc differs from "
                                     "the master's");
    const auto t_apply = Clock::now();
    twin_.ApplyAllocation(replay.file_alloc);
    const double apply_ms = Since(t_apply) * 1e3;
    const auto t_audit = Clock::now();
    auditor_.AuditWindow(windows_, problem, replay, &diag);
    const double audit_ms = Since(t_audit) * 1e3;
    ++windows_;

    Window win;
    win.cold = cold;
    win.wall_ms = wall_ms;
    win.infer_ms = infer_ms;
    win.solve_ms = (after.solve_sec - before.solve_sec) * 1e3;
    win.apply_ms = apply_ms;
    win.audit_ms = audit_ms;
    // The boundary call serves one event serially: nothing is drained, so
    // the rest of the call is the window's unattributed remainder.
    win.unattributed_ms =
        wall_ms - (infer_ms + win.solve_ms + apply_ms + audit_ms);
    win.drift_ms = diag.drift_wall_ms;
    win.cluster_ms = diag.cluster_wall_ms;
    win.star_ms = diag.star_wall_ms;
    win.tax_ms = diag.tax_wall_ms;
    win.finalize_ms = diag.finalize_wall_ms;
    win.solves = static_cast<double>(replay.solver_solves);
    win.iterations = static_cast<double>(replay.solver_iterations);
    win.clusters = static_cast<double>(replay.solver_agg_clusters);
    win.fallback = replay.shared ? 0.0 : 1.0;
    win.pins = static_cast<double>(after.pins - before.pins);
    win.unpins = static_cast<double>(after.unpins - before.unpins);
    windows.push_back(win);
    std::ostringstream js;
    js << "{\"where\":" << JsonString(where)
       << ",\"cold\":" << (cold ? "true" : "false");
    for (const auto& [key, value] :
         {std::pair<const char*, double>{"wall_ms", win.wall_ms},
          {"infer_ms", win.infer_ms}, {"solve_ms", win.solve_ms},
          {"apply_ms", win.apply_ms}, {"audit_ms", win.audit_ms},
          {"unattributed_ms", win.unattributed_ms},
          {"opus_drift_ms", win.drift_ms}, {"opus_cluster_ms", win.cluster_ms},
          {"opus_star_ms", win.star_ms}, {"opus_tax_ms", win.tax_ms},
          {"opus_finalize_ms", win.finalize_ms}, {"solves", win.solves},
          {"iterations", win.iterations}, {"clusters", win.clusters},
          {"fallback", win.fallback}, {"pins", win.pins},
          {"unpins", win.unpins}}) {
      js << ",\"" << key << "\":" << JsonNumber(value);
    }
    report->windows.push_back(js.str() + "}");
  }

  struct Window {
    bool cold = false;
    double wall_ms = 0, infer_ms = 0, solve_ms = 0, apply_ms = 0,
           audit_ms = 0, unattributed_ms = 0;
    double drift_ms = 0, cluster_ms = 0, star_ms = 0, tax_ms = 0,
           finalize_ms = 0;
    double solves = 0, iterations = 0, clusters = 0, fallback = 0, pins = 0,
           unpins = 0;
  };
  std::vector<Window> windows;

 private:
  static opus::cache::ClusterConfig TwinConfig(opus::cache::ClusterConfig c) {
    c.span_sample_every = 0;
    return c;
  }

  std::unique_ptr<opus::CacheAllocator> allocator_;
  const opus::OpusAllocator* opus_;
  opus::OpusWarmState warm_;
  opus::cache::CacheCluster twin_;
  opus::obs::FairnessAuditor auditor_;
  std::uint64_t windows_ = 0;
};

// Per-layer metrics of the reallocation window, from traced windows. Times
// are means over the windows, so the parts add up to master.window_ms
// exactly: window = infer + solve + apply + audit + unattributed.
void ReportWindowLayers(const std::vector<WindowTracer::Window>& windows,
                        Report* report) {
  using W = WindowTracer::Window;
  const auto mean_of = [&windows](auto field) {
    double s = 0.0;
    for (const W& w : windows) s += field(w);
    return windows.empty() ? 0.0 : s / static_cast<double>(windows.size());
  };
  auto& L = report->layer;
  const double wall = mean_of([](const W& w) { return w.wall_ms; });
  const double unattributed =
      mean_of([](const W& w) { return w.unattributed_ms; });
  L["master.window_ms"] = {wall, "ms"};
  L["master.infer_ms"] = {mean_of([](const W& w) { return w.infer_ms; }), "ms"};
  L["master.solve_ms"] = {mean_of([](const W& w) { return w.solve_ms; }), "ms"};
  L["cache.apply_ms"] = {mean_of([](const W& w) { return w.apply_ms; }), "ms"};
  L["obs.audit_ms"] = {mean_of([](const W& w) { return w.audit_ms; }), "ms"};
  L["master.unattributed_ms"] = {unattributed, "ms"};
  L["master.unattributed_pct"] = {wall > 0 ? 100.0 * unattributed / wall : 0.0, "%"};
  // The solver's own phase split of master.solve_ms (OpusDiagnostics).
  // Drift statistics and re-clustering are one number: direct windows
  // never cluster, and a time that is always 0 measures nothing.
  L["core.opus.drift_cluster_ms"] = {
      mean_of([](const W& w) { return w.drift_ms + w.cluster_ms; }), "ms"};
  L["core.opus.star_ms"] = {mean_of([](const W& w) { return w.star_ms; }), "ms"};
  L["core.opus.tax_ms"] = {mean_of([](const W& w) { return w.tax_ms; }), "ms"};
  L["core.opus.finalize_ms"] = {mean_of([](const W& w) { return w.finalize_ms; }), "ms"};
  std::vector<double> cold;
  double fallbacks = 0.0;
  for (const W& w : windows) {
    if (w.cold) cold.push_back(w.wall_ms);
    fallbacks += w.fallback;
  }
  L["master.cold_window_ms"] = {perfbench::Quantile(cold, 0.5), "ms"};
  L["core.opus.solves_per_window"] = {mean_of([](const W& w) { return w.solves; }), "count"};
  L["core.opus.iterations_per_window"] = {mean_of([](const W& w) { return w.iterations; }), "count"};
  L["core.opus.clusters_per_window"] = {mean_of([](const W& w) { return w.clusters; }), "count"};
  L["master.fallback_windows"] = {fallbacks, "count"};
  L["cache.pins_per_window"] = {mean_of([](const W& w) { return w.pins; }), "count"};
  L["cache.unpins_per_window"] = {mean_of([](const W& w) { return w.unpins; }), "count"};
  report->info["traced_windows"] = static_cast<double>(windows.size());
  report->info["traced_cold_windows"] = static_cast<double>(cold.size());
}

// --------------------------------------------------------- socket side

struct Child {
  pid_t pid = -1;
  int fd = -1;
};

// Spawns opus_daemon and waits for its first ping reply. Returns the
// seconds from spawn to that reply, or a negative value on failure.
double SpawnDaemon(const std::string& binary,
                   const std::vector<std::string>& flags,
                   const std::string& socket, const std::string& log,
                   Child* child) {
  ::unlink(socket.c_str());
  std::vector<std::string> argv_s = {binary};
  argv_s.insert(argv_s.end(), flags.begin(), flags.end());
  std::vector<char*> argv;
  for (std::string& s : argv_s) argv.push_back(s.data());
  argv.push_back(nullptr);
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 1, log.c_str(),
                                   O_WRONLY | O_CREAT | O_APPEND, 0644);
  posix_spawn_file_actions_addopen(&actions, 2, log.c_str(),
                                   O_WRONLY | O_CREAT | O_APPEND, 0644);
  const auto t0 = Clock::now();
  const int rc = posix_spawn(&child->pid, binary.c_str(), &actions, nullptr,
                             argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) {
    child->pid = -1;
    return -1.0;
  }
  while (Since(t0) < 20.0) {
    const int fd = opus::serve::DialUnix(socket);
    if (fd >= 0) {
      std::string reply;
      if (opus::serve::WriteFrame(fd, "ping") &&
          opus::serve::ReadFrame(fd, &reply) && reply == "ok pong") {
        const double up = Since(t0);
        // A daemon that stops answering fails the read instead of hanging
        // the benchmark past its time limit.
        const timeval limit{60, 0};
        ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &limit, sizeof(limit));
        child->fd = fd;
        return up;
      }
      ::close(fd);
    }
    int status = 0;
    if (::waitpid(child->pid, &status, WNOHANG) == child->pid) {
      child->pid = -1;
      return -1.0;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return -1.0;
}

std::string Ask(const Child& c, const std::string& request) {
  std::string reply;
  if (!opus::serve::WriteFrame(c.fd, request) ||
      !opus::serve::ReadFrame(c.fd, &reply)) {
    return "err connection lost";
  }
  return reply;
}

// Asks for shutdown and reaps the child (kills it if it does not exit).
bool StopDaemon(Child* c) {
  bool clean = false;
  if (c->fd >= 0) {
    clean = Ask(*c, "shutdown") == "ok bye";
    ::close(c->fd);
    c->fd = -1;
  }
  if (c->pid > 0) {
    int status = 0;
    const auto t0 = Clock::now();
    while (::waitpid(c->pid, &status, WNOHANG) == 0) {
      if (Since(t0) > 10.0) {
        ::kill(c->pid, SIGKILL);
        ::waitpid(c->pid, &status, 0);
        clean = false;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    clean = clean && WIFEXITED(status) && WEXITSTATUS(status) == 0;
    c->pid = -1;
  }
  return clean;
}

double ReplyField(const std::string& reply, const std::string& key) {
  const std::string k = " " + key + "=";
  const std::size_t at = reply.find(k);
  if (at == std::string::npos) return -1.0;
  return std::strtod(reply.c_str() + at + k.size(), nullptr);
}

double PromQuantile(const std::string& prom, const std::string& family,
                    const std::string& q) {
  const std::string key = family + "{quantile=\"" + q + "\"} ";
  const std::size_t at = prom.find(key);
  if (at == std::string::npos) return -1.0;
  return std::strtod(prom.c_str() + at + key.size(), nullptr);
}

std::string ServeFrame(const Access& e) {
  return "serve " + std::to_string(e.user) + " " + std::to_string(e.file);
}

// Replays a command stream through an in-process Daemon::HandleRequest,
// timing each request and the part the daemon itself exports
// (daemon.request.ns). With a tracer, reallocation windows are attributed;
// without one they are checked (isolation, KKT, capacity).
struct ReplayResult {
  std::vector<double> handle_us;
  std::vector<double> exported_us;
  std::string status;
  std::string metrics;
  double effective_hits = 0.0;
};

ReplayResult Replay(const Workload& w, const DaemonConfig& config,
                    const std::vector<std::string>& frames,
                    WindowTracer* tracer, Report* report,
                    std::unique_ptr<Daemon>* keep = nullptr) {
  ReplayResult out;
  auto d = std::make_unique<Daemon>(config, MakeCatalog(w));
  opus::obs::LogLinearHistogram& exported =
      d->telemetry().histogram("daemon.request.ns");
  std::size_t windows = 0, errors = 0;
  for (std::size_t k = 0; k < frames.size(); ++k) {
    const std::string& f = frames[k];
    const bool serve = f.rfind("serve ", 0) == 0;
    const bool boundary = serve && d->master().accesses_until_update() == 1;
    const bool cold = tracer != nullptr && !tracer->warm();
    Exported before;
    if (tracer != nullptr && boundary) before = Exported::Read(*d);
    const std::uint64_t exported_before = exported.sum();
    const auto t0 = Clock::now();
    const std::string reply = d->HandleRequest(f);
    const double dt = Since(t0);
    out.handle_us.push_back(dt * 1e6);
    out.exported_us.push_back(
        static_cast<double>(exported.sum() - exported_before) / 1e3);
    if (reply.rfind("ok", 0) != 0) ++errors;
    if (serve) {
      out.effective_hits += ReplyField(reply, "effective_hit");
      if (ReplyField(reply, "reallocations") > 0) {
        report->Check(boundary, w.name + ": reallocation off the predicted "
                                         "boundary at frame " +
                                    std::to_string(k));
        if (tracer != nullptr) {
          tracer->OnWindow(*d, before, dt * 1e3, cold,
                           "frame " + std::to_string(k), report);
        } else {
          CheckWindow(d->master(), w, windows, report);
        }
        ++windows;
      }
    } else if (tracer != nullptr) {
      if (f.rfind("dropuser ", 0) == 0) {
        tracer->ForgetUser(std::stoul(f.substr(9)));
      } else if (f == "adduser") {
        tracer->ForgetUser(static_cast<std::size_t>(ReplyField(reply, "id")));
      } else if (f.rfind("reconfig capacity", 0) == 0) {
        tracer->Invalidate();
      }
    }
  }
  report->Check(errors == 0, w.name + ": " + std::to_string(errors) +
                                 " frames failed in the in-process replay");
  out.status = d->HandleRequest("status");
  out.metrics = d->HandleRequest("metrics text");
  if (keep != nullptr) *keep = std::move(d);
  return out;
}

// Serves single events (never crossing a reallocation boundary) through
// the engine directly: the one-event Serve cost the `serve` command pays.
std::vector<double> SingleServes(Daemon& d,
                                 const Schedule& events,
                                 std::size_t begin, std::size_t count) {
  std::vector<double> us;
  for (std::size_t k = 0; k < count && begin + k < events.size(); ++k) {
    if (d.master().accesses_until_update() <= 1) break;
    const auto t0 = Clock::now();
    d.engine().Serve({ToEvent(events[begin + k])});
    us.push_back(Since(t0) * 1e6);
  }
  return us;
}

void ReportEngineTelemetry(Daemon& d, Report* report) {
  const opus::obs::LogLinearHistogram* managed =
      d.telemetry().Find("serve.read.managed_ns");
  const opus::obs::LogLinearHistogram* unmanaged =
      d.telemetry().Find("serve.read.unmanaged_ns");
  const opus::obs::LogLinearHistogram* probe =
      managed != nullptr && managed->count() > 0 ? managed : unmanaged;
  report->layer["engine.probe_p50_ns"] = {
      probe != nullptr ? static_cast<double>(probe->ValueAtQuantile(0.5))
                       : 0.0,
      "ns"};
  report->info["engine.probe_samples"] =
      probe != nullptr ? static_cast<double>(probe->count()) : 0.0;
}

void ReportDaemonLayers(const std::vector<std::string>& frames,
                        const ReplayResult& replay,
                        const std::vector<double>& rtt_us, Report* report) {
  std::vector<double> serve_h, control_h, unexported, loop;
  for (std::size_t k = 0; k < frames.size(); ++k) {
    const bool serve = frames[k].rfind("serve ", 0) == 0;
    (serve ? serve_h : control_h).push_back(replay.handle_us[k]);
    unexported.push_back(replay.handle_us[k] - replay.exported_us[k]);
    if (k < rtt_us.size()) loop.push_back(rtt_us[k] - replay.handle_us[k]);
  }
  auto& L = report->layer;
  L["daemon.handle_serve_p50_us"] = {perfbench::Quantile(serve_h, 0.5), "us"};
  L["daemon.handle_serve_p99_us"] = {perfbench::Quantile(serve_h, 0.99), "us"};
  L["daemon.handle_control_p50_us"] = {perfbench::Quantile(control_h, 0.5), "us"};
  L["daemon.exported_request_p50_us"] = {
      perfbench::Quantile(replay.exported_us, 0.5), "us"};
  L["daemon.unexported_p50_us"] = {perfbench::Quantile(unexported, 0.5), "us"};
  L["daemon.rtt_p50_us"] = {perfbench::Quantile(rtt_us, 0.5), "us"};
  L["daemon.loop_p50_us"] = {perfbench::Quantile(loop, 0.5), "us"};
  report->info["daemon.handle_serve_samples"] = static_cast<double>(serve_h.size());
  report->info["daemon.handle_control_samples"] = static_cast<double>(control_h.size());
  report->Check(perfbench::PercentileReportable(serve_h.size(), 0.99),
                "too few serve samples for daemon.handle_serve_p99_us");
}

// ------------------------------------------------------ in-process run

struct RoundResult {
  std::uint64_t events = 0;
  double serve_sec = 0.0;
  double effective_hits = 0.0;
  std::uint64_t mem = 0, disk = 0;
  std::size_t reallocations = 0;
  std::vector<opus::obs::CounterSample> counters;
  std::string status;  // the daemon's final `status` reply
};

// Serial oracle: OpusMaster::OnAccess + CacheCluster::Read per event, with
// every window checked against the benchmark's own oracles. Untimed.
RoundResult SerialOracle(const Workload& w, const DaemonConfig& config,
                         const Schedule& events, Report* report) {
  opus::cache::ClusterConfig cc = config.cluster;
  cc.span_sample_every = 0;
  opus::cache::CacheCluster cluster(cc, MakeCatalog(w));
  std::unique_ptr<opus::CacheAllocator> allocator = opus::MakeAllocatorByName(
      config.policy, config.tax_threads, &config.opus_tuning);
  opus::sim::OpusMaster master(allocator.get(), &cluster, config.master);
  for (std::size_t u = 0; u < w.users; ++u) {
    master.RegisterClient("user" + std::to_string(u));
  }
  RoundResult out;
  for (const Access& a : events) {
    const AccessEvent e = ToEvent(a);
    const std::size_t before = master.reallocations();
    master.OnAccess(e);
    const opus::cache::ReadResult r = cluster.Read(e.user, e.file);
    out.mem += r.bytes_from_memory;
    out.disk += r.bytes_from_disk;
    out.effective_hits += r.effective_hit;
    ++out.events;
    if (master.reallocations() != before) {
      CheckWindow(master, w, master.reallocations(), report);
      report->Check(cluster.UsedBytes() <= cc.cache_capacity_bytes,
                    w.name + ": oracle used bytes above capacity");
    }
  }
  out.reallocations = master.reallocations();
  out.counters = cluster.metrics().Snapshot().counters;
  return out;
}

struct Samples {
  std::vector<double> setup_s;
  // Per round: events/s and the per-event serve latency quantiles, each
  // event charged the wall time of the ServeRange call that served it.
  std::vector<double> round_eps;
  std::vector<double> round_p50_us;
  std::vector<double> round_p99_us;
  std::size_t serve_calls = 0;
  std::vector<double> window_ms;
  std::vector<double> control_us;
  std::vector<double> batch_us;  // slices without a reallocation
  std::uint64_t batch_events = 0;
  double batch_sec = 0.0;
  std::uint64_t drain_ns = 0;
  std::uint64_t events = 0;
  double serve_sec = 0.0;
  std::vector<WindowTracer::Window> windows;  // traced rounds only
};

RoundResult RunRound(const Workload& w, const DaemonConfig& config,
                     const Schedule& events, bool traced,
                     Samples* s, std::unique_ptr<Daemon>* keep,
                     Report* report) {
  const auto t_setup = Clock::now();
  auto d = std::make_unique<Daemon>(config, MakeCatalog(w));
  s->setup_s.push_back(Since(t_setup));
  std::unique_ptr<WindowTracer> tracer;
  if (traced) tracer = std::make_unique<WindowTracer>(config, MakeCatalog(w));
  const std::uint64_t cap = config.cluster.cache_capacity_bytes;
  RoundResult out;
  std::vector<AccessEvent> slice;
  slice.reserve(kSlice);
  std::vector<std::pair<double, std::uint64_t>> per_event_us;  // (call, n)
  std::size_t calls = 0;
  std::size_t pos = 0;
  while (pos < events.size()) {
    std::size_t end = std::min(pos + kSlice, events.size());
    bool window_slice = false;
    Exported before;
    bool cold = false;
    if (traced) {
      // Cut at the boundary so the window's call ends exactly where the
      // master solved it: [pos, b-1) carries no reallocation, [b-1, b)
      // is the boundary event alone.
      const std::size_t b = pos + d->master().accesses_until_update();
      if (b <= end) {
        if (b - 1 > pos) {
          end = b - 1;
        } else {
          end = b;
          window_slice = true;
          before = Exported::Read(*d);
          cold = !tracer->warm();
        }
      }
    }
    Materialize(events, pos, end, &slice);
    const auto t0 = Clock::now();
    const ServeStats st = d->engine().ServeRange(slice, 0, slice.size());
    const double dt = Since(t0);
    const std::uint64_t n = end - pos;
    ++report->attempted;
    if (st.events != n) ++report->failed;
    per_event_us.push_back({dt * 1e6, n});
    s->events += n;
    s->serve_sec += dt;
    out.events += st.events;
    out.serve_sec += dt;
    out.mem += st.bytes_from_memory;
    out.disk += st.bytes_from_disk;
    out.effective_hits += st.effective_hit_sum;
    if (st.reallocations > 0) {
      s->window_ms.push_back(dt * 1e3);
      if (traced) {
        report->Check(window_slice, w.name + ": reallocation off the "
                                             "predicted boundary");
        tracer->OnWindow(*d, before, dt * 1e3, cold,
                         "event " + std::to_string(end - 1), report);
      }
      report->Check(d->cluster().UsedBytes() <= cap,
                    w.name + ": used_bytes above cache capacity");
    } else {
      s->batch_us.push_back(dt * 1e6);
      s->batch_events += n;
      s->batch_sec += dt;
    }
    if (++calls % kPollEvery == 0) {
      const auto tc = Clock::now();
      const std::string status = d->HandleRequest("status");
      s->control_us.push_back(Since(tc) * 1e6);
      ++report->attempted;
      if (status.rfind("ok", 0) != 0) ++report->failed;
    }
    pos = end;
  }
  s->round_eps.push_back(static_cast<double>(out.events) / out.serve_sec);
  s->round_p50_us.push_back(perfbench::WeightedQuantile(per_event_us, 0.5));
  s->round_p99_us.push_back(perfbench::WeightedQuantile(per_event_us, 0.99));
  s->serve_calls += per_event_us.size();
  const opus::obs::LogLinearHistogram* drain =
      d->telemetry().Find("serve.drain.wall_ns");
  if (drain != nullptr) s->drain_ns += drain->sum();
  out.reallocations = d->master().reallocations();
  out.counters = d->cluster().metrics().Snapshot().counters;
  out.status = d->HandleRequest("status");
  if (traced) {
    s->windows.insert(s->windows.end(), tracer->windows.begin(),
                      tracer->windows.end());
  }
  if (keep != nullptr) *keep = std::move(d);
  return out;
}

// Closed-loop serve frames over the socket (round-trip times), replayed
// in process (handle and exported times); then single-event engine
// serves. Gives the daemon-layer numbers of an in-process workload.
void DaemonProbe(const Workload& w, const Args& args,
                 const DaemonConfig& config,
                 const Schedule& events, Report* report) {
  std::vector<std::string> frames;
  for (std::size_t k = 0; k < kProbeFrames; ++k) {
    frames.push_back(k % 64 == 63 ? "status" : ServeFrame(events[k]));
  }
  const std::string socket = args.out_dir + "/probe.sock";
  Child child;
  const double up = SpawnDaemon(
      args.daemon, DaemonFlags(w, socket, args.out_dir + "/flight.json"),
      socket, args.out_dir + "/daemon.log", &child);
  report->Check(up >= 0.0, "opus_daemon did not start");
  std::vector<double> rtt;
  if (up >= 0.0) {
    for (const std::string& f : frames) {
      const auto t0 = Clock::now();
      const std::string reply = Ask(child, f);
      rtt.push_back(Since(t0) * 1e6);
      ++report->attempted;
      if (reply.rfind("ok", 0) != 0) ++report->failed;
    }
    const std::string prom = Ask(child, "metrics prom");
    report->layer["daemon.pipeline_depth_p99"] = {
        PromQuantile(prom, "opus_daemon_pipeline_depth", "0.99"), "count"};
  }
  report->Check(StopDaemon(&child), "opus_daemon did not shut down cleanly");
  std::unique_ptr<Daemon> kept;
  const ReplayResult replay =
      Replay(w, config, frames, nullptr, report, &kept);
  ReportDaemonLayers(frames, replay, rtt, report);
  const std::vector<double> singles =
      SingleServes(*kept, events, kProbeFrames, kProbeSingles);
  report->layer["engine.single_serve_p50_us"] = {
      perfbench::Quantile(singles, 0.5), "us"};
}

void RunInProcess(const Workload& w, const Args& args, Report* report) {
  const DaemonConfig config = MakeConfig(w, args.out_dir);
  Generator gen(w, args.seed);
  const std::vector<std::uint32_t> all = AllUsers(w.users);
  Schedule events(w.round_events);
  std::uint64_t expected_bytes = 0;
  for (Access& e : events) {
    e = gen.Next(all);
    expected_bytes += kFileBytes;
  }
  Samples untraced, traced;
  RoundResult first;
  const auto start = Clock::now();
  std::size_t rounds = 0;
  std::unique_ptr<Daemon> last;
  // A traced run starts with one untraced round: the tracing overhead is
  // the events/s difference between it and the traced rounds.
  const std::size_t min_rounds = args.trace ? 2 : 1;
  while (rounds < min_rounds || Since(start) < args.seconds) {
    const bool traced_round = args.trace && rounds > 0;
    const RoundResult r =
        RunRound(w, config, events, traced_round,
                 traced_round ? &traced : &untraced, &last, report);
    const std::string tag = w.name + " round " + std::to_string(rounds);
    report->Check(r.mem + r.disk == expected_bytes,
                  tag + ": memory + disk bytes != sum of file sizes");
    if (rounds == 0) {
      first = r;
    } else {
      report->Check(r.counters.size() == first.counters.size() &&
                        std::equal(r.counters.begin(), r.counters.end(),
                                   first.counters.begin(),
                                   [](const auto& a, const auto& b) {
                                     return a.name == b.name &&
                                            a.value == b.value;
                                   }),
                    tag + ": counters differ from round 0");
      // Slices sum their effective hits before the round does, so a traced
      // round (sliced at every boundary) may differ in the last bits.
      report->Check(std::fabs(r.effective_hits - first.effective_hits) <=
                        1e-9 * first.effective_hits,
                    tag + ": effective hits differ from round 0");
    }
    if (traced_round) ReportEngineTelemetry(*last, report);
    ++rounds;
    last.reset();
  }
  const double measured_sec = Since(start);
  const double peak = perfbench::PeakRssMib(0);
  report->info["rounds"] = static_cast<double>(rounds);
  report->info["measured_sec"] = measured_sec;
  report->info["events_per_round"] = static_cast<double>(events.size());
  report->info["reallocations_per_round"] = static_cast<double>(first.reallocations);
  // The daemon's own auditor and anomaly trips, for the record.
  report->info["daemon_audit_violations"] =
      StatusField(first.status, "audit_violations");
  report->info["daemon_flight_trips"] = StatusField(first.status, "flight_trips");
  for (const auto& c : first.counters) {
    if (c.name.find("pin_failures") != std::string::npos) {
      report->info["round0." + c.name] = static_cast<double>(c.value);
    }
  }

  const RoundResult oracle = SerialOracle(w, config, events, report);
  report->Check(oracle.reallocations == first.reallocations,
                w.name + ": serial oracle reallocation count differs");
  std::size_t hitmiss = 0, hitmiss_equal = 0;
  for (const auto& c : oracle.counters) {
    if (c.name.find("mem_hit") == std::string::npos &&
        c.name.find("misses") == std::string::npos) {
      continue;
    }
    ++hitmiss;
    for (const auto& f : first.counters) {
      if (f.name == c.name && f.value == c.value) ++hitmiss_equal;
    }
  }
  report->Check(hitmiss > 0 && hitmiss == hitmiss_equal,
                w.name + ": hit/miss counters differ from the serial oracle");
  report->Check(oracle.mem == first.mem && oracle.disk == first.disk,
                w.name + ": served bytes differ from the serial oracle");
  report->Check(std::fabs(oracle.effective_hits - first.effective_hits) <=
                    1e-9 * std::max(1.0, oracle.effective_hits),
                w.name + ": effective hits differ from the serial oracle");

  Samples& s = untraced;
  while (s.setup_s.size() < kMinSetups) {
    const auto t0 = Clock::now();
    { Daemon d(config, MakeCatalog(w)); s.setup_s.push_back(Since(t0)); }
  }
  auto& E = report->e2e;
  E["setup_s"] = {perfbench::Quantile(s.setup_s, 0.5), "s"};
  // Per-round figures, then their median: one round slowed by a noisy
  // neighbour does not move the result.
  E["events_per_s"] = {perfbench::Quantile(s.round_eps, 0.5), "events/s"};
  E["window_p50_ms"] = {perfbench::Quantile(s.window_ms, 0.5), "ms"};
  // Serve latency is reported, not bounded: on a shared 4-CPU host it
  // moves by more than a 25% bound between runs (README.md).
  report->info["serve_p50_us"] = perfbench::Quantile(s.round_p50_us, 0.5);
  report->info["serve_p99_us"] = perfbench::Quantile(s.round_p99_us, 0.5);
  E["effective_hits"] = {first.effective_hits, "hits"};
  E["peak_rss_mib"] = {peak, "MiB"};
  report->info["serve_samples_events"] = static_cast<double>(s.events);
  report->info["serve_samples_calls"] = static_cast<double>(s.serve_calls);
  report->info["window_samples"] = static_cast<double>(s.window_ms.size());
  // Control latency is not an end-to-end metric: a `status` right after a
  // window with new pin failures writes a flight dump, so its median flips
  // between seeds (README.md, observations).
  report->info["control_p50_us"] = perfbench::Quantile(s.control_us, 0.5);
  report->info["control_samples"] = static_cast<double>(s.control_us.size());
  report->info["setup_samples"] = static_cast<double>(s.setup_s.size());
  report->Check(!s.window_ms.empty(), w.name + ": no reallocation window");

  if (!args.trace) return;
  auto& L = report->layer;
  L["engine.batch_p50_us"] = {perfbench::Quantile(traced.batch_us, 0.5), "us"};
  L["engine.ns_per_event"] = {
      traced.batch_sec * 1e9 / static_cast<double>(std::max<std::uint64_t>(1, traced.batch_events)),
      "ns"};
  L["engine.drain_ns_per_event"] = {
      static_cast<double>(traced.drain_ns) / static_cast<double>(std::max<std::uint64_t>(1, traced.events)),
      "ns"};
  const double eps_plain = static_cast<double>(untraced.events) / untraced.serve_sec;
  const double eps_traced = static_cast<double>(traced.events) / traced.serve_sec;
  L["trace.events_per_s"] = {eps_traced, "events/s"};
  L["trace.overhead_pct"] = {100.0 * (eps_plain - eps_traced) / eps_plain, "%"};
  ReportWindowLayers(traced.windows, report);
  DaemonProbe(w, args, config, events, report);
}

// ---------------------------------------------------------- socket-mix

// One churn cycle of the socket-mix stream (a drop, an add, a capacity
// toggle, 16 control frames, about four windows); serve latency quantiles
// are taken per cycle and their median reported, as per round in process.
constexpr std::size_t kCycleFrames = 8000;

// The socket-mix command stream: mostly `serve USER FILE`; one frame in
// 500 is `status` or `metrics prom`; every 4000 frames one user is dropped
// and later re-added (never addressed while dropped), and every 8000 frames
// the allocator capacity is lowered and restored.
std::vector<std::string> SocketStream(const Workload& w, std::uint64_t seed,
                                      std::size_t frames,
                                      Schedule* served) {
  Generator gen(w, seed);
  std::vector<std::uint32_t> active = AllUsers(w.users);
  std::vector<std::string> out;
  std::uint32_t dropped = 0;
  bool has_dropped = false;
  bool low_capacity = false;
  const double low_units = 0.75 * static_cast<double>(w.files) / 4.0;
  for (std::size_t k = 0; k < frames; ++k) {
    if (k % 500 == 250) {
      out.push_back((k / 500) % 2 == 0 ? "status" : "metrics prom");
    } else if (k % 4000 == 1000 && !has_dropped) {
      const std::size_t at = gen.rng().Next() % active.size();
      dropped = active[at];
      active.erase(active.begin() + static_cast<std::ptrdiff_t>(at));
      has_dropped = true;
      out.push_back("dropuser " + std::to_string(dropped));
    } else if (k % 4000 == 3000 && has_dropped) {
      // adduser revives the lowest free slot: the one dropped above.
      active.insert(std::lower_bound(active.begin(), active.end(), dropped),
                    dropped);
      has_dropped = false;
      out.push_back("adduser");
    } else if (k % 8000 == 2000) {
      low_capacity = !low_capacity;
      std::ostringstream f;
      f << "reconfig capacity " << (low_capacity ? low_units : 0.0);
      out.push_back(f.str());
    } else {
      const Access e = gen.Next(active);
      served->push_back(e);
      out.push_back(ServeFrame(e));
    }
  }
  return out;
}

void RunSocket(const Workload& w, const Args& args, Report* report) {
  const DaemonConfig config = MakeConfig(w, args.out_dir);
  const std::size_t frames_n =
      static_cast<std::size_t>(std::llround(w.rate * args.seconds));
  Schedule served;
  const std::vector<std::string> frames =
      SocketStream(w, args.seed, frames_n, &served);
  const std::string socket = args.out_dir + "/mix.sock";
  const std::vector<std::string> flags =
      DaemonFlags(w, socket, args.out_dir + "/flight.json");
  const std::string log = args.out_dir + "/daemon.log";

  std::vector<double> setup;
  Child child;
  for (std::size_t k = 0; k < kMinSetups; ++k) {
    const double up = SpawnDaemon(args.daemon, flags, socket, log, &child);
    report->Check(up >= 0.0, "opus_daemon did not start");
    if (up < 0.0) return;
    setup.push_back(up);
    if (k + 1 < kMinSetups) {
      report->Check(StopDaemon(&child), "opus_daemon did not shut down");
    }
  }

  // Open loop: frame k is due at k / rate; a sender thread writes each
  // frame at its due time, this thread reads the FIFO replies.
  const std::size_t n = frames.size();
  std::vector<Clock::time_point> due(n), sent(n), got(n);
  std::vector<std::string> replies(n);
  const auto t0 = Clock::now() + std::chrono::milliseconds(20);
  for (std::size_t k = 0; k < n; ++k) {
    due[k] = t0 + std::chrono::nanoseconds(static_cast<std::int64_t>(
                      1e9 * static_cast<double>(k) / w.rate));
  }
  std::atomic<bool> send_ok{true};
  std::thread sender([&] {
    for (std::size_t k = 0; k < n; ++k) {
      std::this_thread::sleep_until(due[k]);
      sent[k] = Clock::now();
      if (!opus::serve::WriteFrame(child.fd, frames[k])) {
        send_ok = false;
        return;
      }
    }
  });
  std::size_t received = 0;
  for (; received < n; ++received) {
    if (!opus::serve::ReadFrame(child.fd, &replies[received])) break;
    got[received] = Clock::now();
  }
  sender.join();
  report->Check(send_ok && received == n, "socket stream broke off");
  if (received < n) {
    StopDaemon(&child);
    return;
  }
  const std::string status = Ask(child, "status");
  const std::string metrics = Ask(child, "metrics text");
  const std::string prom = Ask(child, "metrics prom");
  const double peak = perfbench::PeakRssMib(child.pid);
  report->Check(StopDaemon(&child), "opus_daemon did not shut down cleanly");

  std::vector<double> serve_us, control_us, window_ms, rtt_us, late_us;
  std::vector<double> cycle_us, cycle_p50_us, cycle_p99_us;
  std::size_t smallest_cycle = n;
  double effective_hits = 0.0;
  std::uint64_t mem = 0, disk = 0;
  for (std::size_t k = 0; k < received; ++k) {
    const double from_due =
        std::chrono::duration<double>(got[k] - due[k]).count() * 1e6;
    rtt_us.push_back(
        std::chrono::duration<double>(got[k] - sent[k]).count() * 1e6);
    late_us.push_back(
        std::chrono::duration<double>(sent[k] - due[k]).count() * 1e6);
    ++report->attempted;
    if (replies[k].rfind("ok", 0) != 0) ++report->failed;
    if (frames[k].rfind("serve ", 0) == 0) {
      serve_us.push_back(from_due);
      cycle_us.push_back(from_due);
      effective_hits += ReplyField(replies[k], "effective_hit");
      mem += static_cast<std::uint64_t>(ReplyField(replies[k], "mem_bytes"));
      disk += static_cast<std::uint64_t>(ReplyField(replies[k], "disk_bytes"));
      if (ReplyField(replies[k], "reallocations") > 0) {
        window_ms.push_back(rtt_us.back() / 1e3);
      }
    } else {
      control_us.push_back(from_due);
    }
    if ((k + 1) % kCycleFrames == 0 || (k + 1 == n && n < kCycleFrames)) {
      cycle_p50_us.push_back(perfbench::Quantile(cycle_us, 0.5));
      cycle_p99_us.push_back(perfbench::Quantile(cycle_us, 0.99));
      smallest_cycle = std::min(smallest_cycle, cycle_us.size());
      cycle_us.clear();
    }
  }
  report->Check(mem + disk == served.size() * kFileBytes,
                "socket-mix: memory + disk bytes != sum of file sizes");
  const double used = StatusField(status, "used_bytes");
  report->Check(used >= 0.0 && used <= static_cast<double>(
                                            config.cluster.cache_capacity_bytes),
                "socket-mix: used_bytes above cache capacity");
  const double span =
      std::chrono::duration<double>(got[n - 1] - due[0]).count();

  // The in-process replay of the same stream must end in the same state;
  // its windows go through the isolation/KKT/capacity checks.
  const ReplayResult replay = Replay(w, config, frames, nullptr, report);
  report->Check(replay.status == status,
                "socket-mix: in-process replay status differs");
  report->Check(replay.metrics == metrics,
                "socket-mix: in-process replay metrics differ");
  report->Check(replay.effective_hits == effective_hits,
                "socket-mix: in-process replay effective hits differ");

  auto& E = report->e2e;
  E["setup_s"] = {perfbench::Quantile(setup, 0.5), "s"};
  E["events_per_s"] = {static_cast<double>(serve_us.size()) / span, "events/s"};
  E["window_p50_ms"] = {perfbench::Quantile(window_ms, 0.5), "ms"};
  report->info["serve_p50_us"] = perfbench::Quantile(cycle_p50_us, 0.5);
  report->info["serve_p99_us"] = perfbench::Quantile(cycle_p99_us, 0.5);
  E["effective_hits"] = {effective_hits, "hits"};
  E["peak_rss_mib"] = {peak, "MiB"};
  report->info["serve_samples"] = static_cast<double>(serve_us.size());
  report->info["serve_cycles"] = static_cast<double>(cycle_p99_us.size());
  report->info["serve_p99_us_pooled"] = perfbench::Quantile(serve_us, 0.99);
  report->info["control_p50_us"] = perfbench::Quantile(control_us, 0.5);
  report->info["control_samples"] = static_cast<double>(control_us.size());
  report->info["window_samples"] = static_cast<double>(window_ms.size());
  report->info["generator_late_p99_us"] = perfbench::Quantile(late_us, 0.99);
  report->info["offered_rate"] = w.rate;
  report->Check(!window_ms.empty(), "socket-mix: no reallocation window");
  report->Check(perfbench::PercentileReportable(smallest_cycle, 0.99),
                "socket-mix: too few serve samples for p99");

  if (!args.trace) return;
  report->layer["daemon.pipeline_depth_p99"] = {
      PromQuantile(prom, "opus_daemon_pipeline_depth", "0.99"), "count"};
  WindowTracer tracer(config, MakeCatalog(w));
  std::unique_ptr<Daemon> kept;
  const ReplayResult traced =
      Replay(w, config, frames, &tracer, report, &kept);
  report->Check(traced.status == status,
                "socket-mix: traced replay status differs");
  ReportWindowLayers(tracer.windows, report);
  ReportDaemonLayers(frames, replay, rtt_us, report);
  ReportEngineTelemetry(*kept, report);
  const std::vector<double> singles =
      SingleServes(*kept, served, 0, kProbeSingles);
  double single_sum = 0.0;
  for (double v : singles) single_sum += v;
  auto& L = report->layer;
  L["engine.single_serve_p50_us"] = {perfbench::Quantile(singles, 0.5), "us"};
  // socket-mix serves one event per call: its engine batch is one event.
  L["engine.batch_p50_us"] = L["engine.single_serve_p50_us"];
  L["engine.ns_per_event"] = {
      single_sum * 1e3 / static_cast<double>(std::max<std::size_t>(1, singles.size())),
      "ns"};
  const opus::obs::LogLinearHistogram* drain =
      kept->telemetry().Find("serve.drain.wall_ns");
  L["engine.drain_ns_per_event"] = {
      drain != nullptr ? static_cast<double>(drain->sum()) /
                             static_cast<double>(served.size() + singles.size())
                       : 0.0,
      "ns"};
  double plain = 0.0, with_trace = 0.0;
  for (double v : replay.handle_us) plain += v;
  for (double v : traced.handle_us) with_trace += v;
  L["trace.events_per_s"] = {
      static_cast<double>(served.size()) / (with_trace / 1e6), "events/s"};
  L["trace.overhead_pct"] = {100.0 * (with_trace - plain) / plain, "%"};
}

// -------------------------------------------------------------- output

std::string HostJson(const Args& args) {
  std::ostringstream o;
  o << "{\"nproc\":" << std::thread::hardware_concurrency()
#if defined(__clang__)
    << ",\"compiler\":" << JsonString("clang " __VERSION__)
#else
    << ",\"compiler\":" << JsonString("gcc " __VERSION__)
#endif
    << ",\"build_type\":" << JsonString(OPUS_E2E_BUILD_TYPE)
    << ",\"git_rev\":" << JsonString(args.git_rev) << "}";
  return o.str();
}

std::string MetricsJson(const std::map<std::string, Metric>& m) {
  std::ostringstream o;
  o << "{";
  bool first = true;
  for (const auto& [name, metric] : m) {
    o << (first ? "" : ", ") << JsonString(name) << ": {\"value\": "
      << JsonNumber(metric.value) << ", \"unit\": " << JsonString(metric.unit)
      << "}";
    first = false;
  }
  return o.str() + "}";
}

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(a->seconds > 0.0)) return false;
    } else if (k == "--trace") {
      if (v != "0" && v != "1") return false;
      a->trace = v == "1";
    } else if (k == "--daemon") {
      a->daemon = v;
    } else if (k == "--out-dir") {
      a->out_dir = v;
    } else if (k == "--git-rev") {
      a->git_rev = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && !a->daemon.empty();
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: opus_e2e --workload NAME --seed N --seconds S "
                 "--trace 0|1 --daemon PATH [--out-dir DIR] [--git-rev R]\n");
    return 2;
  }
  const Workload* w = nullptr;
  for (const Workload& c : Workloads()) {
    if (c.name == args.workload) w = &c;
  }
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  Report report;
  if (w->rate > 0.0) {
    RunSocket(*w, args, &report);
  } else {
    RunInProcess(*w, args, &report);
  }
  const std::map<std::string, Metric>& shown =
      args.trace ? report.layer : report.e2e;
  for (const auto& [name, m] : shown) {
    std::printf("%-36s %16.6g %s\n", name.c_str(), m.value, m.unit.c_str());
  }
  if (!args.trace) {
    for (const char* name : {"serve_p50_us", "serve_p99_us", "control_p50_us"}) {
      std::printf("%-36s %16.6g us (reported, not bounded)\n", name,
                  report.info[name]);
    }
  }
  for (const std::string& f : report.failures) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }
  std::printf("checks passed: %zu/%zu\n",
              report.checks - report.failures.size(), report.checks);

  std::ostringstream full;
  full << "{\"workload\":" << JsonString(w->name) << ",\"seed\":" << args.seed
       << ",\"seconds\":" << JsonNumber(args.seconds)
       << ",\"trace\":" << (args.trace ? 1 : 0) << ",\"host\":" << HostJson(args)
       << ",\"correct\":" << (report.correct ? "true" : "false")
       << ",\"attempted\":" << report.attempted
       << ",\"failed\":" << report.failed << ",\"checks\":" << report.checks
       << ",\"check_failures\":[";
  for (std::size_t i = 0; i < report.failures.size(); ++i) {
    full << (i ? "," : "") << JsonString(report.failures[i]);
  }
  full << "],\"end_to_end\":" << MetricsJson(report.e2e)
       << ",\"per_layer\":" << MetricsJson(report.layer) << ",\"info\":{";
  bool first = true;
  for (const auto& [k, v] : report.info) {
    full << (first ? "" : ",") << JsonString(k) << ":" << JsonNumber(v);
    first = false;
  }
  full << "},\"windows\":[";
  for (std::size_t i = 0; i < report.windows.size(); ++i) {
    full << (i ? "," : "") << report.windows[i];
  }
  full << "]}\n";
  const std::string path = args.out_dir + "/report-" + w->name + "-" +
                           std::to_string(args.seed) + "-" +
                           (args.trace ? "1" : "0") + ".json";
  std::ofstream(path) << full.str();

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              report.correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed),
              MetricsJson(shown).c_str());
  return 0;
}
