// wss_perfbench: one pass of one benchmark workload (see README.md).
//
//   wss_perfbench --workload <bicgstab|allreduce_wave|stencilfe_heat>
//                 --seed <n> --seconds <s> [--traced] [--min-ops <n>]
//                 [--corrupt-op <i>] [--watched-dir <dir>]
//                 [--spans-out <file>]
//
// Generates the workload's inputs from the seed, sets the simulation up
// kMinSetups times, and more until kSetupSeconds have been spent (timing
// each; setup_s is their median), then runs ops until their timed host
// seconds reach --seconds and at least --min-ops have run. Every op is
// checked outside the timed region; a failing op counts as failed and is
// left out of every timing. The last stdout line is one JSON object:
// attempted, failed, errors, metrics.
//
// Every pass records SpanTracer spans around each public call (the tracer
// does not attach to the fabric, so the turbo backend stays on) and reads
// the fabric's public counters between ops. --traced also attaches a
// telemetry::Profiler and telemetry::NetMonitor to every op; the fabric
// then steps its reference loop, so timings of a traced pass measure the
// observers too. --watched-dir names the ledger directory the
// observer environment writes to; each op's new artifacts are loaded and
// self-checked. run.py composes passes into the benchmark's metrics.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "perfmodel/perf_report.hpp"
#include "telemetry/netmon.hpp"
#include "telemetry/profiler.hpp"
#include "telemetry/span_tracer.hpp"
#include "telemetry/timeseries.hpp"
#include "workloads.hpp"

namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;
using wss::telemetry::SpanTracer;

// Set-ups per pass: at least kMinSetups, more until kSetupSeconds are
// spent, at most kMaxSetups.
constexpr int kMinSetups = 5;
constexpr double kSetupSeconds = 2.0;
constexpr int kMaxSetups = 25;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  int min_ops = 3;
  int corrupt_op = -1;
  std::string watched_dir;
  std::string spans_out;
};

Options parse_args(int argc, char** argv) {
  Options o;
  auto value = [&](int& i) -> std::string {
    if (i + 1 >= argc) {
      throw std::invalid_argument(std::string("missing value for ") + argv[i]);
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--workload") o.workload = value(i);
    else if (a == "--seed") o.seed = std::stoull(value(i));
    else if (a == "--seconds") o.seconds = std::stod(value(i));
    else if (a == "--traced") o.traced = true;
    else if (a == "--min-ops") o.min_ops = std::stoi(value(i));
    else if (a == "--corrupt-op") o.corrupt_op = std::stoi(value(i));
    else if (a == "--watched-dir") o.watched_dir = value(i);
    else if (a == "--spans-out") o.spans_out = value(i);
    else throw std::invalid_argument("unknown argument " + a);
  }
  if (o.workload.empty()) throw std::invalid_argument("--workload is required");
  if (o.min_ops < 1 || o.seconds <= 0.0) {
    throw std::invalid_argument("--min-ops and --seconds must be > 0");
  }
  return o;
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Linear-interpolated quantile of an unsorted sample (q in [0, 1]).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double resident_bytes() {
  std::ifstream statm("/proc/self/statm");
  double size = 0.0, resident = 0.0;
  statm >> size >> resident;
  return resident * static_cast<double>(::sysconf(_SC_PAGESIZE));
}

double peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

/// Fabric-wide sums and maxima of the public per-tile counters.
struct Counters {
  double busy = 0, stall = 0, idle = 0;
  double flits_forwarded = 0, link_words = 0;
  double queue_highwater = 0, fifo_highwater = 0;
};

Counters read_counters(const wss::wse::Fabric& f) {
  Counters c;
  for (int y = 0; y < f.height(); ++y) {
    for (int x = 0; x < f.width(); ++x) {
      const auto& rs = f.router_stats(x, y);
      c.flits_forwarded += static_cast<double>(rs.flits_forwarded);
      for (const auto w : rs.link_words) c.link_words += static_cast<double>(w);
      c.queue_highwater =
          std::max(c.queue_highwater, static_cast<double>(rs.queue_highwater));
      if (!f.has_core(x, y)) continue;
      const auto& cs = f.core(x, y).stats();
      c.busy += static_cast<double>(cs.instr_cycles);
      c.stall += static_cast<double>(cs.stall_cycles);
      c.idle += static_cast<double>(cs.idle_cycles);
      c.fifo_highwater =
          std::max(c.fifo_highwater, static_cast<double>(cs.fifo_highwater));
    }
  }
  return c;
}

/// New observer artifacts in the watched directory since the last call:
/// each series / netflows file is loaded and self-checked.
class ArtifactWatch {
public:
  explicit ArtifactWatch(std::string dir) : dir_(std::move(dir)) {
    if (!dir_.empty()) (void)scan(nullptr);
  }
  [[nodiscard]] bool active() const { return !dir_.empty(); }
  [[nodiscard]] double bytes() const { return bytes_; }

  /// Checks the files that appeared since the previous scan against the
  /// expected count per op; "" when they all pass.
  std::string check_new(perfbench::ArtifactsPerOp want) {
    perfbench::ArtifactsPerOp got;
    std::string why = scan(&got);
    if (why.empty() && (got.series != want.series ||
                        got.netflows != want.netflows)) {
      why = "artifacts: " + std::to_string(got.series) + " series and " +
            std::to_string(got.netflows) + " netflows files, want " +
            std::to_string(want.series) + " and " +
            std::to_string(want.netflows);
    }
    return why;
  }

private:
  static bool ends_with(const std::string& s, const std::string& suffix) {
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
  }

  std::string scan(perfbench::ArtifactsPerOp* got) {
    std::string why;
    double total = 0.0;
    if (!fs::is_directory(dir_)) return "";
    for (const auto& e : fs::directory_iterator(dir_)) {
      if (!e.is_regular_file()) continue;
      total += static_cast<double>(e.file_size());
      const std::string path = e.path().string();
      if (!seen_.insert(path).second || got == nullptr) continue;
      std::string err;
      if (ends_with(path, ".timeseries.json")) {
        ++got->series;
        wss::telemetry::TimeSeries ts;
        if (!wss::telemetry::load_timeseries(path, &ts, &err) ||
            !wss::telemetry::self_check_timeseries(ts, &err)) {
          why = path + ": " + err;
        }
      } else if (ends_with(path, ".netflows.json")) {
        ++got->netflows;
        wss::telemetry::NetFlowsFile nf;
        if (!wss::telemetry::load_netflows(path, &nf, &err) ||
            !wss::telemetry::self_check_netflows(nf, &err)) {
          why = path + ": " + err;
        }
      }
    }
    if (got != nullptr) bytes_ += total - last_total_;
    last_total_ = total;
    return why;
  }

  std::string dir_;
  std::set<std::string> seen_;
  double last_total_ = 0.0;
  double bytes_ = 0.0;
};

/// Profiler / NetMonitor / perf-report metrics of one traced op. The
/// simulated schedule is deterministic, so every op gives the same values;
/// the last op's are reported.
void observe_traced_op(perfbench::Workload& wl,
                       const wss::telemetry::Profiler& prof,
                       const wss::telemetry::NetMonitor& net,
                       std::map<std::string, double>& m) {
  const auto totals = prof.totals();
  std::array<double, wss::telemetry::kNumCycleCats> cat{};
  double all = 0.0;
  for (const auto& row : totals) {
    for (int c = 0; c < wss::telemetry::kNumCycleCats; ++c) {
      cat[static_cast<std::size_t>(c)] +=
          static_cast<double>(row[static_cast<std::size_t>(c)]);
      all += static_cast<double>(row[static_cast<std::size_t>(c)]);
    }
  }
  using wss::telemetry::CycleCat;
  for (const CycleCat c : {CycleCat::Compute, CycleCat::SendBlocked,
                           CycleCat::RecvStarved, CycleCat::RouterStall,
                           CycleCat::Idle}) {
    m[std::string("telemetry.cat_frac.") + wss::telemetry::to_string(c)] =
        all > 0.0 ? cat[static_cast<std::size_t>(c)] / all : 0.0;
  }
  m["telemetry.profiled_tile_cycles"] = all;

  double worst_blocked = 0.0, worst_words = 0.0;
  const auto& f = wl.fabric();
  for (int y = 0; y < f.height(); ++y) {
    for (int x = 0; x < f.width(); ++x) {
      for (int d = 0; d < 4; ++d) {
        const auto dir = static_cast<wss::wse::Dir>(d);
        worst_blocked = std::max(
            worst_blocked, static_cast<double>(net.link_stall_cycles(x, y, dir)));
        worst_words =
            std::max(worst_words, static_cast<double>(net.link_words(x, y, dir)));
      }
    }
  }
  m["telemetry.worst_link_blocked_cycles"] = worst_blocked;
  m["telemetry.worst_link_words"] = worst_words;

  static const char* kPhases[] = {"spmv", "dot", "axpy", "allreduce",
                                  "control"};
  for (const char* p : kPhases) {
    m[std::string("perfmodel.meas_cycles_per_iter.") + p] = 0.0;
    m[std::string("perfmodel.err_pct.") + p] = 0.0;
  }
  m["perfmodel.wafer_iter_us"] = 0.0;
  if (wl.solver_iterations() > 0) {
    const auto rep = wss::perfmodel::make_perf_report(prof, wl.pencil(),
                                                      wl.solver_iterations());
    for (const auto& row : rep.phases) {
      m["perfmodel.meas_cycles_per_iter." + row.phase] = row.measured_cycles;
      m["perfmodel.err_pct." + row.phase] = std::abs(row.delta_pct());
    }
    m["perfmodel.wafer_iter_us"] = rep.wafer_us_per_iter;
  }
}

/// p50 of the durations of spans named `name`, in seconds (0 if none).
double span_p50_s(const SpanTracer& t, const std::string& name) {
  std::vector<double> d;
  for (const auto& s : t.spans()) {
    if (s.name == name) d.push_back(s.dur_us * 1e-6);
  }
  return quantile(d, 0.5);
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

int run(const Options& o) {
  std::unique_ptr<perfbench::Workload> wl =
      perfbench::make_workload(o.workload, o.seed, !o.watched_dir.empty());
  SpanTracer spans;
  std::map<std::string, double> m;

  // --- set-up, repeated; the first measures resident growth per tile ---
  std::vector<double> setup_s;
  double bytes_per_tile = 0.0;
  double setup_total = 0.0;
  for (int s = 0;
       s < kMinSetups || (setup_total < kSetupSeconds && s < kMaxSetups);
       ++s) {
    if (s > 0) wl->teardown();
    const double rss0 = resident_bytes();
    const auto t0 = Clock::now();
    wl->setup(&spans);
    setup_s.push_back(seconds_since(t0));
    setup_total += setup_s.back();
    if (s == 0) {
      const double tiles = static_cast<double>(wl->fabric().width()) *
                           wl->fabric().height();
      bytes_per_tile = (resident_bytes() - rss0) / tiles;
    }
  }
  wss::wse::Fabric& fabric = wl->fabric();
  const double tiles = static_cast<double>(fabric.width()) * fabric.height();

  // --- timed ops ---
  ArtifactWatch watch(o.watched_dir);
  const wss::wse::TurboStats turbo0 = fabric.turbo_stats();
  Counters before = read_counters(fabric);
  Counters sum; // deltas over passing ops
  std::vector<double> op_s;
  std::vector<double> tile_cycles_per_s; // per op
  double cycles_total = 0.0, transfers_total = 0.0;
  int attempted = 0, failed = 0;
  std::vector<std::string> errors;
  double timed = 0.0;
  while (timed < o.seconds || attempted < o.min_ops) {
    const int i = attempted++;
    wl->prepare_op(i);
    std::unique_ptr<wss::telemetry::Profiler> prof;
    std::unique_ptr<wss::telemetry::NetMonitor> net;
    if (o.traced) {
      prof = std::make_unique<wss::telemetry::Profiler>(fabric.width(),
                                                        fabric.height());
      net = std::make_unique<wss::telemetry::NetMonitor>();
      net->set_flow_table(wl->flow_table());
      fabric.set_profiler(prof.get());
      fabric.set_net_monitor(net.get());
    }
    const std::uint64_t cyc0 = fabric.stats().cycles;
    const std::uint64_t lt0 = fabric.stats().link_transfers;
    std::string why;
    const auto t0 = Clock::now();
    try {
      wl->run_op(i, &spans);
    } catch (const std::exception& e) {
      why = std::string("op threw: ") + e.what();
    }
    const double dt = seconds_since(t0);
    timed += dt;
    if (o.traced) {
      fabric.set_profiler(nullptr);
      fabric.set_net_monitor(nullptr);
    }
    const Counters after = read_counters(fabric);
    const double cycles = static_cast<double>(fabric.stats().cycles - cyc0);
    const double transfers =
        static_cast<double>(fabric.stats().link_transfers - lt0);
    if (why.empty()) why = wl->check_op(i, i == o.corrupt_op);
    if (why.empty() && after.link_words - before.link_words != transfers) {
      why = "router link_words sum != FabricStats::link_transfers";
    }
    if (why.empty() && watch.active()) why = watch.check_new(wl->artifacts_per_op());
    std::cerr << o.workload << " op " << i << ": " << dt << " s, "
              << cycles << " cycles" << (why.empty() ? "" : ", FAILED")
              << "\n";
    if (!why.empty()) {
      ++failed;
      errors.push_back("op " + std::to_string(i) + ": " + why);
      if (why.rfind("op threw", 0) == 0) break; // simulation state unknown
    } else {
      op_s.push_back(dt);
      tile_cycles_per_s.push_back(tiles * cycles / dt);
      cycles_total += cycles;
      transfers_total += transfers;
      sum.busy += after.busy - before.busy;
      sum.stall += after.stall - before.stall;
      sum.idle += after.idle - before.idle;
      sum.flits_forwarded += after.flits_forwarded - before.flits_forwarded;
      sum.link_words += after.link_words - before.link_words;
      if (o.traced) observe_traced_op(*wl, *prof, *net, m);
    }
    before = after;
  }
  const wss::wse::TurboStats turbo1 = fabric.turbo_stats();
  const double tile_memory = wl->tile_memory_bytes();
  wl->teardown();
  if (const std::string why = wl->final_check(); !why.empty()) {
    failed = attempted;
    errors.push_back("final: " + why);
    op_s.clear();
  }

  // --- metrics ---
  const double n = static_cast<double>(op_s.size());
  const double sim_per_op = n > 0 ? cycles_total / n : 0.0;
  m["ops"] = n;
  m["op_s_p50"] = quantile(op_s, 0.5);
  m["op_s_p90"] = quantile(op_s, 0.9);
  m["tile_cycles_per_s"] = quantile(tile_cycles_per_s, 0.5);
  m["sim_cycles_per_op"] = sim_per_op;
  m["model_err_ratio"] =
      sim_per_op > 0 ? 1.0 + std::abs(wl->model_cycles_per_op() - sim_per_op) /
                                 sim_per_op
                     : 0.0;
  m["setup_s"] = quantile(setup_s, 0.5);
  m["peak_rss_mb"] = peak_rss_mb();

  m["wsekernels.tile_memory_bytes"] = tile_memory;
  m["wsekernels.build_s"] = span_p50_s(spans, "wsekernels.build");
  m["stencilfe.build_s"] = span_p50_s(spans, "stencilfe.build");
  m["stencilfe.step_s_p50"] = span_p50_s(spans, "stencilfe.step");
  m["stencilfe.read_s_p50"] = span_p50_s(spans, "stencilfe.read");
  m["stencilfe.load_s_p50"] = span_p50_s(spans, "stencilfe.load");
  m["wse.bytes_per_tile"] = bytes_per_tile;
  const double core_cycles = sum.busy + sum.stall + sum.idle;
  m["wse.core_busy_frac"] = core_cycles > 0 ? sum.busy / core_cycles : 0.0;
  m["wse.core_stall_frac"] = core_cycles > 0 ? sum.stall / core_cycles : 0.0;
  m["wse.core_idle_frac"] = core_cycles > 0 ? sum.idle / core_cycles : 0.0;
  m["wse.link_transfers_per_op"] = n > 0 ? transfers_total / n : 0.0;
  m["wse.link_words_per_op"] = n > 0 ? sum.link_words / n : 0.0;
  m["wse.flits_forwarded_per_op"] = n > 0 ? sum.flits_forwarded / n : 0.0;
  m["wse.queue_highwater_max"] = before.queue_highwater;
  m["wse.fifo_highwater_max"] = before.fifo_highwater;
  const double att = static_cast<double>(attempted);
  m["wse.turbo_promotions_per_op"] =
      static_cast<double>(turbo1.promotions - turbo0.promotions) / att;
  m["wse.turbo_demotions_per_op"] =
      static_cast<double>(turbo1.demotions - turbo0.demotions) / att;
  m["telemetry.artifact_bytes_per_op"] = watch.bytes() / att;

  if (!o.spans_out.empty()) {
    std::ofstream(o.spans_out) << spans.to_chrome_json();
  }

  std::ostringstream out;
  out.precision(17);
  out << "{\"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"errors\": [";
  for (std::size_t k = 0; k < errors.size(); ++k) {
    out << (k ? ", " : "") << '"' << json_escape(errors[k]) << '"';
  }
  out << "], \"metrics\": {";
  bool first = true;
  for (const auto& [name, v] : m) {
    out << (first ? "" : ", ") << '"' << name << "\": " << v;
    first = false;
  }
  out << "}}";
  std::cout << out.str() << std::endl;
  return 0;
}

} // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "wss_perfbench: " << e.what() << "\n";
    return 2;
  }
}
