// Time-series analysis: the wss.timeseries/1 field lists (emitted and
// loaded through telemetry/artifact.hpp), the CI self-check, frame diffing
// and terminal rendering (sparklines). The recording half lives in
// timeseries.hpp (header-only, included by the fabric); see
// docs/TIMESERIES.md for the schema and the monitoring workflow.

#include "telemetry/timeseries.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <tuple>

#include "common/env.hpp"
#include "telemetry/artifact.hpp"
#include "telemetry/json.hpp"
#include "telemetry/postmortem.hpp"

namespace wss::telemetry {

std::uint64_t sample_cycles() {
  return env::parse_u64("WSS_SAMPLE_CYCLES", 0);
}

std::string timeseries_out() {
  return env::parse_string("WSS_TIMESERIES_OUT");
}

// --- the wss.timeseries/1 field lists ----------------------------------

void describe(artifact::Io& io, TimeSeriesFrame& f) {
  io.field("cycle", f.cycle);
  io.field("window", f.window_cycles);
  io.field("link_transfers", f.link_transfers);
  io.field("flits_forwarded", f.flits_forwarded);
  io.field("words_sent", f.words_sent);
  io.field("words_received", f.words_received);
  io.field("instr", f.instr_cycles);
  io.field("stall", f.stall_cycles);
  io.field("idle", f.idle_cycles);
  io.field("tasks", f.task_invocations);
  io.field("faults", f.faults);
  io.field("queued", f.router_queued_flits);
  io.field("queue_peak", f.router_queue_peak);
  io.field("fifo_hw", f.fifo_highwater);
  io.field("ramp_hw", f.ramp_highwater);
  io.field("iteration", f.max_iteration);
  io.field("done_tiles", f.done_tiles);
  io.field("phase_tiles", f.phase_tiles);
  if (io.present(f.has_profiler, "prof_phase")) {
    io.field("prof_phase", f.prof_phase);
    io.field("prof_cat", f.prof_cat);
  }
  if (io.present(f.has_net, "net_cycles")) {
    // Additive network-observatory block (netmon.hpp): per-flow /
    // per-direction windowed word deltas plus cumulative hotspot gauges.
    io.field("net_cycles", f.net_cycles);
    io.field("flow_words", f.flow_words);
    io.field("flow_blocked", f.flow_blocked);
    io.field("net_dir_words", f.net_dir_words);
    io.field("net_peak_queue", f.net_peak_queue);
    io.field("net_hot", std::tie(f.net_hot_words, f.net_hot_x, f.net_hot_y,
                                 f.net_hot_dir));
    io.field("net_stall", std::tie(f.net_stall_cycles, f.net_stall_x,
                                   f.net_stall_y, f.net_stall_dir));
  }
}

void describe(artifact::Io& io, TimeSeriesScalar& s) {
  io.field("iteration", s.iteration);
  io.field("name", s.name);
  io.field("value", s.value);
}

void describe(artifact::Io& io, HealthExpectations& e) {
  io.field("model", e.model);
  io.field("phase_cycles", e.phase_cycles);
}

void describe(artifact::Io& io, NetFlowExpectation& e) {
  io.field("flow", e.flow);
  io.field("words_per_iteration", e.words_per_iteration);
  io.field("exact", e.exact);
}

void describe(artifact::Io& io, TimeSeries& ts) {
  io.field("schema", ts.schema);
  io.field("program", ts.program);
  io.field("width", ts.width);
  io.field("height", ts.height);
  io.field("threads", ts.threads);
  io.field("sample_cycles", ts.sample_cycles);
  io.field("frames_dropped", ts.frames_dropped);
  io.field("frames", ts.frames);
  if (io.present(ts.has_scalars, "scalars")) {
    io.field("scalars", ts.scalars);
    io.field("scalars_dropped", ts.scalars_dropped);
  }
  // Additive blocks: older readers ignore them, so the schema tag stays
  // wss.timeseries/1. Carrying the model projection in the artifact lets
  // wss_top / wss_inspect recompute drift alerts offline; the network
  // sidecar names the frames' net vectors (docs/NETWORK.md).
  if (io.present(ts.has_expectations, "health_expectations")) {
    io.field("health_expectations", ts.expectations);
  }
  if (io.loading() || !ts.net_flows.empty()) {
    io.field("net_flows", ts.net_flows);
  }
  if (io.loading() || !ts.net_expectations.empty()) {
    io.field("net_expectations", ts.net_expectations);
  }
}

TimeSeries snapshot_timeseries(const TimeSeriesSampler& sampler,
                               const ScalarHistory* scalars) {
  TimeSeries ts;
  ts.schema = kTimeseriesSchema;
  ts.program = sampler.program();
  ts.width = sampler.width();
  ts.height = sampler.height();
  ts.threads = sampler.threads();
  ts.sample_cycles = sampler.interval();
  ts.frames_dropped = sampler.frames_dropped();
  ts.frames.assign(sampler.frames().begin(), sampler.frames().end());
  if (scalars != nullptr) {
    ts.has_scalars = true;
    ts.scalars = scalars->samples();
    ts.scalars_dropped = scalars->dropped();
  }
  if (const HealthExpectations* e = sampler.expectations(); e != nullptr) {
    ts.has_expectations = true;
    ts.expectations = *e;
  }
  ts.net_flows = sampler.net_flows();
  ts.net_expectations = sampler.net_expectations();
  return ts;
}

bool write_timeseries(const std::string& path,
                      const TimeSeriesSampler& sampler,
                      const ScalarHistory* scalars, std::string* error) {
  return artifact::write(path, snapshot_timeseries(sampler, scalars), error);
}

bool load_timeseries(const std::string& path, TimeSeries* out,
                     std::string* error) {
  return artifact::read(path, kTimeseriesSchema, out, error);
}

// --- self-check ----------------------------------------------------------

bool self_check_timeseries(const TimeSeries& ts, std::string* error) {
  using artifact::fail_with;
  if (!artifact::check_schema(ts.schema, kTimeseriesSchema, error)) {
    return false;
  }
  if (ts.width < 0 || ts.height < 0) {
    return fail_with(error, "negative fabric dimensions");
  }
  const std::uint64_t tiles = static_cast<std::uint64_t>(ts.width) *
                              static_cast<std::uint64_t>(ts.height);
  std::uint64_t prev_cycle = 0;
  for (std::size_t i = 0; i < ts.frames.size(); ++i) {
    const TimeSeriesFrame& f = ts.frames[i];
    const std::string at = "frame " + std::to_string(i);
    if (f.window_cycles == 0) {
      return fail_with(error, at + ": zero-cycle window");
    }
    if (i > 0 && f.cycle <= prev_cycle) {
      return fail_with(error, at + ": cycles not strictly increasing");
    }
    prev_cycle = f.cycle;
    if (tiles > 0) {
      std::uint64_t phase_sum = 0;
      for (const std::uint32_t n : f.phase_tiles) phase_sum += n;
      if (phase_sum > tiles) {
        return fail_with(error, at + ": phase tile counts exceed the fabric");
      }
      if (f.done_tiles > tiles) {
        return fail_with(error, at + ": done tile count exceeds the fabric");
      }
    }
    if (f.has_profiler) {
      // The profiler's conservation invariant, per window: every
      // attributed cycle has exactly one phase and one category, so the
      // two delta breakdowns sum to the same total.
      std::uint64_t by_phase = 0;
      std::uint64_t by_cat = 0;
      for (const std::uint64_t n : f.prof_phase) by_phase += n;
      for (const std::uint64_t n : f.prof_cat) by_cat += n;
      if (by_phase != by_cat) {
        return fail_with(error,
                         at + ": profiler phase/category sums disagree (" +
                             std::to_string(by_phase) + " vs " +
                             std::to_string(by_cat) + ")");
      }
    }
    if (f.has_net) {
      // The network observatory's conservation invariant, per window: the
      // flow map and the direction split each count every traversed flit
      // exactly once, so the two delta breakdowns sum to the same total.
      if (!ts.net_flows.empty() &&
          f.flow_words.size() != ts.net_flows.size()) {
        return fail_with(error, at + ": flow vector length (" +
                         std::to_string(f.flow_words.size()) +
                         ") disagrees with the declared flows (" +
                         std::to_string(ts.net_flows.size()) + ")");
      }
      std::uint64_t by_flow = 0;
      std::uint64_t by_dir = 0;
      for (const std::uint64_t n : f.flow_words) by_flow += n;
      for (const std::uint64_t n : f.net_dir_words) by_dir += n;
      if (by_flow != by_dir) {
        return fail_with(error, at + ": flow/direction word sums disagree (" +
                         std::to_string(by_flow) + " vs " +
                         std::to_string(by_dir) + ")");
      }
    }
  }
  for (std::size_t i = 1; i < ts.scalars.size(); ++i) {
    if (ts.scalars[i].iteration < ts.scalars[i - 1].iteration) {
      return fail_with(error, "scalar samples not iteration-ordered");
    }
  }
  if (ts.has_expectations) {
    for (const double v : ts.expectations.phase_cycles) {
      if (!std::isfinite(v) || v < 0.0) {
        return fail_with(error, "health expectations: non-finite or negative "
                         "phase cycles");
      }
    }
  }
  for (const NetFlowExpectation& e : ts.net_expectations) {
    if (!std::isfinite(e.words_per_iteration)) {
      return fail_with(error,
                       "net expectations: non-finite words per iteration "
                       "for flow '" + e.flow + "'");
    }
  }
  return true;
}

// --- diffing -------------------------------------------------------------

std::string summarize_frame(const TimeSeriesFrame& f) {
  std::ostringstream out;
  out << "c" << f.cycle << " w" << f.window_cycles << " instr="
      << f.instr_cycles << " stall=" << f.stall_cycles << " idle="
      << f.idle_cycles << " links=" << f.link_transfers << " queued="
      << f.router_queued_flits << " it=" << f.max_iteration << " done="
      << f.done_tiles;
  if (f.faults > 0) out << " faults=" << f.faults;
  if (f.has_net) {
    std::uint64_t net = 0;
    for (const std::uint64_t n : f.flow_words) net += n;
    out << " net=" << net;
  }
  return out.str();
}

Divergence first_divergence(const TimeSeries& a, const TimeSeries& b) {
  Divergence d = first_divergence_in("frame", "recorded frame streams",
                                     a.frames, b.frames, summarize_frame);
  d.note = program_mismatch(a.program, b.program);
  if (d.note.empty() && a.sample_cycles != b.sample_cycles) {
    d.note = "warning: sample interval mismatch (" +
             std::to_string(a.sample_cycles) + " vs " +
             std::to_string(b.sample_cycles) +
             ") — frames cover different windows";
  }
  return d;
}

// --- rendering -----------------------------------------------------------

std::string sparkline(const std::vector<double>& values, std::size_t width) {
  static constexpr const char kRamp[] = " .:-=+*#%@";
  static constexpr std::size_t kLevels = sizeof(kRamp) - 2; // top index
  if (width == 0) return {};
  if (values.empty()) return std::string(width, ' ');
  // Resample to `width` columns (bucket means), scale to the series max.
  std::vector<double> cols(width, 0.0);
  const std::size_t shown = std::min(width, values.size());
  for (std::size_t col = 0; col < shown; ++col) {
    const std::size_t lo = col * values.size() / shown;
    const std::size_t hi =
        std::max(lo + 1, (col + 1) * values.size() / shown);
    double sum = 0.0;
    for (std::size_t i = lo; i < hi && i < values.size(); ++i) {
      sum += values[i];
    }
    cols[col] = sum / static_cast<double>(hi - lo);
  }
  double maxv = 0.0;
  for (std::size_t col = 0; col < shown; ++col) {
    if (std::isfinite(cols[col])) maxv = std::max(maxv, cols[col]);
  }
  std::string out(width, ' ');
  for (std::size_t col = 0; col < shown; ++col) {
    const double v = std::isfinite(cols[col]) ? std::max(0.0, cols[col]) : 0.0;
    std::size_t level = 0;
    if (maxv > 0.0 && v > 0.0) {
      level = 1 + static_cast<std::size_t>(v / maxv *
                                           static_cast<double>(kLevels - 1));
      level = std::min(level, kLevels);
    }
    out[col] = kRamp[level];
  }
  return out;
}

namespace {

constexpr std::size_t kSparkWidth = 60;

void spark_row(std::ostringstream& out, const char* label,
               const std::vector<double>& values) {
  double maxv = 0.0;
  for (const double v : values) {
    if (std::isfinite(v)) maxv = std::max(maxv, v);
  }
  if (maxv <= 0.0) return; // nothing happened on this axis: skip the row
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%-12s", label);
  out << "  " << buf << "|" << sparkline(values, kSparkWidth) << "| max "
      << json::number(maxv) << "\n";
}

} // namespace

std::string pretty_timeseries(const TimeSeries& ts, std::size_t last_k) {
  std::ostringstream out;
  out << "time series (" << ts.schema << ")\n";
  if (!ts.program.empty()) out << "  program: " << ts.program << "\n";
  if (ts.width > 0) {
    out << "  fabric:  " << ts.width << "x" << ts.height << ", "
        << ts.threads << " sim thread(s)\n";
  }
  out << "  frames:  " << ts.frames.size() << " (every " << ts.sample_cycles
      << " cycles";
  if (ts.frames_dropped > 0) out << ", " << ts.frames_dropped << " dropped";
  out << ")";
  if (!ts.frames.empty()) {
    out << ", cycles " << ts.frames.front().cycle << ".."
        << ts.frames.back().cycle;
  }
  out << "\n";
  if (ts.frames.empty()) return out.str();

  const auto column = [&](auto&& field) {
    std::vector<double> vs;
    vs.reserve(ts.frames.size());
    for (const TimeSeriesFrame& f : ts.frames) {
      vs.push_back(static_cast<double>(field(f)) /
                   static_cast<double>(f.window_cycles));
    }
    return vs;
  };

  out << "\nper-cycle rates over the run:\n";
  spark_row(out, "compute", column([](const TimeSeriesFrame& f) {
              return f.instr_cycles;
            }));
  spark_row(out, "stall", column([](const TimeSeriesFrame& f) {
              return f.stall_cycles;
            }));
  spark_row(out, "idle", column([](const TimeSeriesFrame& f) {
              return f.idle_cycles;
            }));
  spark_row(out, "links", column([](const TimeSeriesFrame& f) {
              return f.link_transfers;
            }));
  spark_row(out, "tasks", column([](const TimeSeriesFrame& f) {
              return f.task_invocations;
            }));
  spark_row(out, "faults", column([](const TimeSeriesFrame& f) {
              return f.faults;
            }));

  // Gauges render raw (they are already instantaneous).
  const auto gauge = [&](auto&& field) {
    std::vector<double> vs;
    vs.reserve(ts.frames.size());
    for (const TimeSeriesFrame& f : ts.frames) {
      vs.push_back(static_cast<double>(field(f)));
    }
    return vs;
  };
  out << "\nqueue / FIFO pressure (instantaneous):\n";
  spark_row(out, "queued", gauge([](const TimeSeriesFrame& f) {
              return f.router_queued_flits;
            }));
  spark_row(out, "queue peak", gauge([](const TimeSeriesFrame& f) {
              return f.router_queue_peak;
            }));
  spark_row(out, "fifo hw", gauge([](const TimeSeriesFrame& f) {
              return f.fifo_highwater;
            }));
  spark_row(out, "ramp hw", gauge([](const TimeSeriesFrame& f) {
              return f.ramp_highwater;
            }));

  bool any_profiler = false;
  for (const TimeSeriesFrame& f : ts.frames) any_profiler |= f.has_profiler;
  if (any_profiler) {
    out << "\nprofiler cycles per simulated cycle, by program phase:\n";
    for (int p = 0; p < wse::kNumProgPhases; ++p) {
      spark_row(out, wse::to_string(static_cast<wse::ProgPhase>(p)),
                column([p](const TimeSeriesFrame& f) {
                  return f.prof_phase[static_cast<std::size_t>(p)];
                }));
    }
  } else {
    out << "\ntiles per program phase:\n";
    for (int p = 0; p < wse::kNumProgPhases; ++p) {
      spark_row(out, wse::to_string(static_cast<wse::ProgPhase>(p)),
                gauge([p](const TimeSeriesFrame& f) {
                  return f.phase_tiles[static_cast<std::size_t>(p)];
                }));
    }
  }

  if (!ts.scalars.empty()) {
    std::vector<double> residuals;
    for (const TimeSeriesScalar& s : ts.scalars) {
      if (s.name == "residual") residuals.push_back(s.value);
    }
    if (!residuals.empty()) {
      // Convergence spans orders of magnitude; sparkline -log10 so the
      // ramp rises as the residual falls.
      std::vector<double> logs;
      logs.reserve(residuals.size());
      for (const double r : residuals) {
        logs.push_back(r > 0.0 && std::isfinite(r) ? -std::log10(r) : 0.0);
      }
      const double shift =
          *std::min_element(logs.begin(), logs.end());
      for (double& v : logs) v -= shift;
      out << "\nresidual convergence (-log10, " << residuals.size()
          << " iterations, last " << json::number(residuals.back()) << "):\n";
      out << "  residual    |" << sparkline(logs, kSparkWidth) << "|\n";
    }
  }

  const std::size_t n = ts.frames.size();
  const std::size_t start = n > last_k ? n - last_k : 0;
  out << "\nlast " << (n - start) << " of " << n << " frames:\n";
  for (std::size_t i = start; i < n; ++i) {
    out << "  " << summarize_frame(ts.frames[i]) << "\n";
  }
  return out.str();
}

} // namespace wss::telemetry
