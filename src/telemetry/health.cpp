// Health-engine evaluation and the wss.alerts/1 artifact (docs/HEALTH.md).
// The rules read recorded frames/scalars only — no fabric hooks — so the
// engine is non-perturbing and bit-identical wherever the frames are.

#include "telemetry/health.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/env.hpp"
#include "telemetry/artifact.hpp"
#include "telemetry/json.hpp"
#include "telemetry/postmortem.hpp"

namespace wss::telemetry {

const char* to_string(AlertSeverity s) {
  switch (s) {
    case AlertSeverity::Info: return "info";
    case AlertSeverity::Warn: return "warn";
    case AlertSeverity::Critical: return "critical";
  }
  return "unknown";
}

bool health_enabled() { return env::parse_int("WSS_HEALTH", 1, 0, 1) != 0; }

HealthConfig health_config() {
  HealthConfig cfg;
  cfg.tol_pct =
      static_cast<double>(env::parse_int("WSS_HEALTH_TOL_PCT", 50, 1, 10000));
  cfg.warmup_frames = env::parse_u64("WSS_HEALTH_WARMUP", 2);
  cfg.queue_windows = env::parse_u64("WSS_HEALTH_QUEUE_WINDOWS", 4);
  cfg.fault_burst = env::parse_u64("WSS_HEALTH_FAULT_BURST", 16);
  cfg.residual_iters = env::parse_u64("WSS_HEALTH_RESIDUAL_ITERS", 10);
  cfg.congestion_floor =
      static_cast<double>(
          env::parse_int("WSS_HEALTH_CONGESTION_PCT", 50, 1, 100)) /
      100.0;
  return cfg;
}

// --- detectors -----------------------------------------------------------

namespace {

void push_input(HealthAlert* a, const char* name, double value) {
  a->inputs.push_back(AlertInput{name, value});
}

/// (a) perfmodel expectation gates: cumulative per-phase cycle attribution
/// divided by tiles x iterations, against the analytic projection carried
/// in the series. Only phases the builder gated (expectation > 0) and only
/// once the run has enough iterations for the ratio to be meaningful.
void check_perfmodel_drift(const TimeSeries& ts, const HealthConfig& cfg,
                           std::vector<HealthAlert>* out) {
  if (!ts.has_expectations || !ts.expectations.any()) return;
  const std::uint64_t tiles = static_cast<std::uint64_t>(ts.width) *
                              static_cast<std::uint64_t>(ts.height);
  if (tiles == 0 || ts.frames.empty()) return;
  const std::uint64_t iters = ts.frames.back().max_iteration;
  if (iters < cfg.min_iterations) return;

  std::array<std::uint64_t, wse::kNumProgPhases> phase_cycles{};
  std::size_t first_prof = ts.frames.size();
  std::size_t last_prof = 0;
  bool any_prof = false;
  for (std::size_t i = 0; i < ts.frames.size(); ++i) {
    const TimeSeriesFrame& f = ts.frames[i];
    if (!f.has_profiler) continue;
    if (!any_prof) first_prof = i;
    any_prof = true;
    last_prof = i;
    for (std::size_t p = 0; p < phase_cycles.size(); ++p) {
      phase_cycles[p] += f.prof_phase[p];
    }
  }
  if (!any_prof) return;

  const double denom = static_cast<double>(tiles) * static_cast<double>(iters);
  for (int p = 0; p < wse::kNumProgPhases; ++p) {
    const double expect =
        ts.expectations.phase_cycles[static_cast<std::size_t>(p)];
    if (expect <= 0.0) continue; // ungated phase
    const double measured =
        static_cast<double>(phase_cycles[static_cast<std::size_t>(p)]) / denom;
    const double delta_pct = (measured - expect) / expect * 100.0;
    // One-sided gate: only slowdowns are a health problem. The analytic
    // models overshoot some phases on small fabrics (allreduce runs ~+34%
    // of model on the 6x6 Section-V anchor), so the default tolerance must
    // clear that; a run *faster* than the model never alerts.
    if (delta_pct <= cfg.tol_pct) continue;
    HealthAlert a;
    a.rule = "perfmodel_drift";
    a.severity = delta_pct > 2.0 * cfg.tol_pct ? AlertSeverity::Critical
                                               : AlertSeverity::Warn;
    std::ostringstream d;
    d << wse::to_string(static_cast<wse::ProgPhase>(p)) << ": measured "
      << json::number(measured) << " cycles/tile/iter vs "
      << (ts.expectations.model.empty() ? "model" : ts.expectations.model)
      << " projection " << json::number(expect) << " ("
      << (delta_pct >= 0.0 ? "+" : "") << json::number(delta_pct)
      << "% beyond tol " << json::number(cfg.tol_pct) << "%)";
    a.detail = d.str();
    a.first_frame = first_prof;
    a.last_frame = last_prof;
    a.first_cycle = ts.frames[first_prof].cycle;
    a.last_cycle = ts.frames[last_prof].cycle;
    push_input(&a, "phase", static_cast<double>(p));
    push_input(&a, "measured_cycles_per_tile_iter", measured);
    push_input(&a, "model_cycles_per_tile_iter", expect);
    push_input(&a, "delta_pct", delta_pct);
    push_input(&a, "iterations", static_cast<double>(iters));
    out->push_back(std::move(a));
  }
}

/// (a2) per-flow bandwidth gates: cumulative per-flow link words divided
/// by solver iterations, against the traffic projection carried in the
/// series' net_expectations. One-sided like perfmodel_drift, but in the
/// opposite direction: only *under-delivery* is a health problem — a flow
/// moving fewer words per iteration than the route compiler declared means
/// traffic is being starved or dropped, while extra words (retries, wider
/// windows) are routine. Anchored (non-exact) projections use the same
/// tolerance; exact ones too, because even they see partial leading/
/// trailing iterations at the observation edges.
void check_flow_bandwidth_drift(const TimeSeries& ts, const HealthConfig& cfg,
                                std::vector<HealthAlert>* out) {
  if (ts.net_expectations.empty() || ts.net_flows.empty()) return;
  if (ts.frames.empty()) return;
  const std::uint64_t iters = ts.frames.back().max_iteration;
  if (iters < cfg.min_iterations) return;

  std::vector<std::uint64_t> totals(ts.net_flows.size(), 0);
  std::size_t first_net = ts.frames.size();
  std::size_t last_net = 0;
  bool any_net = false;
  for (std::size_t i = 0; i < ts.frames.size(); ++i) {
    const TimeSeriesFrame& f = ts.frames[i];
    if (!f.has_net) continue;
    if (!any_net) first_net = i;
    any_net = true;
    last_net = i;
    for (std::size_t j = 0; j < totals.size() && j < f.flow_words.size();
         ++j) {
      totals[j] += f.flow_words[j];
    }
  }
  if (!any_net) return;

  for (const NetFlowExpectation& e : ts.net_expectations) {
    if (e.words_per_iteration <= 0.0) continue; // ungated flow
    std::size_t idx = ts.net_flows.size();
    for (std::size_t j = 0; j < ts.net_flows.size(); ++j) {
      if (ts.net_flows[j] == e.flow) {
        idx = j;
        break;
      }
    }
    if (idx == ts.net_flows.size()) continue; // projection for unknown flow
    const double measured = static_cast<double>(totals[idx]) /
                            static_cast<double>(iters);
    const double shortfall_pct =
        (e.words_per_iteration - measured) / e.words_per_iteration * 100.0;
    if (shortfall_pct <= cfg.tol_pct) continue;
    HealthAlert a;
    a.rule = "flow_bandwidth_drift";
    a.severity = shortfall_pct > 2.0 * cfg.tol_pct ? AlertSeverity::Critical
                                                   : AlertSeverity::Warn;
    std::ostringstream d;
    d << "flow '" << e.flow << "': measured " << json::number(measured)
      << " words/iter vs " << (e.exact ? "exact" : "anchored")
      << " projection " << json::number(e.words_per_iteration) << " (-"
      << json::number(shortfall_pct) << "% below, tol "
      << json::number(cfg.tol_pct) << "%)";
    a.detail = d.str();
    a.first_frame = first_net;
    a.last_frame = last_net;
    a.first_cycle = ts.frames[first_net].cycle;
    a.last_cycle = ts.frames[last_net].cycle;
    push_input(&a, "measured_words_per_iter", measured);
    push_input(&a, "model_words_per_iter", e.words_per_iteration);
    push_input(&a, "shortfall_pct", shortfall_pct);
    push_input(&a, "iterations", static_cast<double>(iters));
    out->push_back(std::move(a));
  }
}

/// (a3) link congestion: the most stall-attributed link spent more than
/// cfg.congestion_floor of the observed cycles with a backpressure-blocked
/// head flit. The floor is high on purpose (0.5): transient backpressure
/// is routine multiplexing on a healthy fabric, while a stalled router
/// pushes the links feeding it toward a ratio of 1.0. The alert names the
/// link — "(x,y)->D" is the out-link of tile (x,y) toward mesh dir D, so
/// the faulted/overloaded *destination* is one `step(D)` away.
void check_link_congestion(const TimeSeries& ts, const HealthConfig& cfg,
                           std::vector<HealthAlert>* out) {
  std::size_t first_net = ts.frames.size();
  std::size_t last_net = 0;
  bool any_net = false;
  for (std::size_t i = 0; i < ts.frames.size(); ++i) {
    if (!ts.frames[i].has_net) continue;
    if (!any_net) first_net = i;
    any_net = true;
    last_net = i;
  }
  if (!any_net) return;
  // The hotspot gauges are cumulative, so the last net-bearing frame holds
  // the whole observation's worst link.
  const TimeSeriesFrame& f = ts.frames[last_net];
  if (f.net_cycles == 0 || f.net_stall_cycles == 0) return;
  const double ratio = static_cast<double>(f.net_stall_cycles) /
                       static_cast<double>(f.net_cycles);
  if (ratio <= cfg.congestion_floor) return;
  HealthAlert a;
  a.rule = "link_congestion";
  a.severity = ratio > 2.0 * cfg.congestion_floor ? AlertSeverity::Critical
                                                  : AlertSeverity::Warn;
  std::ostringstream d;
  d << "link (" << f.net_stall_x << "," << f.net_stall_y << ")->"
    << wse::to_string(static_cast<wse::Dir>(f.net_stall_dir))
    << " backpressure-blocked for " << f.net_stall_cycles << " of "
    << f.net_cycles << " observed cycles (ratio " << json::number(ratio)
    << " over floor " << json::number(cfg.congestion_floor)
    << "), peak backlog " << f.net_peak_queue << " halfwords";
  a.detail = d.str();
  a.first_frame = first_net;
  a.last_frame = last_net;
  a.first_cycle = ts.frames[first_net].cycle;
  a.last_cycle = ts.frames[last_net].cycle;
  push_input(&a, "stall_cycles", static_cast<double>(f.net_stall_cycles));
  push_input(&a, "observed_cycles", static_cast<double>(f.net_cycles));
  push_input(&a, "ratio", ratio);
  push_input(&a, "floor", cfg.congestion_floor);
  push_input(&a, "link_x", static_cast<double>(f.net_stall_x));
  push_input(&a, "link_y", static_cast<double>(f.net_stall_y));
  push_input(&a, "link_dir", static_cast<double>(f.net_stall_dir));
  out->push_back(std::move(a));
}

/// (b) monotone growth of a gauge over >= cfg.queue_windows consecutive
/// strictly-increasing windows after warmup. One coalesced alert spanning
/// the first and last offending run.
template <typename Field>
void check_monotone_growth(const TimeSeries& ts, const HealthConfig& cfg,
                           const char* rule, const char* what, Field field,
                           std::vector<HealthAlert>* out) {
  if (cfg.queue_windows == 0) return;
  const std::size_t warmup = static_cast<std::size_t>(cfg.warmup_frames);
  if (ts.frames.size() <= warmup + cfg.queue_windows) return;
  std::size_t run_start = warmup; // index of the run's first frame
  std::uint64_t steps = 0;        // increasing transitions in the run
  std::uint64_t best_steps = 0;
  std::size_t first_bad = 0;
  std::size_t last_bad = 0;
  bool found = false;
  for (std::size_t i = warmup + 1; i < ts.frames.size(); ++i) {
    if (field(ts.frames[i]) > field(ts.frames[i - 1])) {
      if (steps == 0) run_start = i - 1;
      ++steps;
      if (steps >= cfg.queue_windows) {
        if (!found) first_bad = run_start;
        found = true;
        last_bad = i;
        best_steps = std::max(best_steps, steps);
      }
    } else {
      steps = 0;
    }
  }
  if (!found) return;
  HealthAlert a;
  a.rule = rule;
  a.severity = AlertSeverity::Warn;
  std::ostringstream d;
  d << what << " grew monotonically for " << best_steps
    << " consecutive windows (threshold " << cfg.queue_windows << "), "
    << field(ts.frames[first_bad]) << " -> " << field(ts.frames[last_bad]);
  a.detail = d.str();
  a.first_frame = first_bad;
  a.last_frame = last_bad;
  a.first_cycle = ts.frames[first_bad].cycle;
  a.last_cycle = ts.frames[last_bad].cycle;
  push_input(&a, "windows", static_cast<double>(best_steps));
  push_input(&a, "start_value",
             static_cast<double>(field(ts.frames[first_bad])));
  push_input(&a, "end_value", static_cast<double>(field(ts.frames[last_bad])));
  out->push_back(std::move(a));
}

/// (c) ratio spikes vs the run's own typical window: the frame ratio must
/// exceed both an absolute floor and 3x the (lower-)median post-warmup
/// ratio. The median — not the warmup mean — is the baseline on purpose:
/// ramp-in frames are mostly idle, so a solver whose steady state
/// legitimately stalls (dot/allreduce waits) would read as a "spike"
/// against its own warmup, while a sustained-high run is its own median
/// and stays quiet. Warmup frames are excluded from baseline and scan.
/// One coalesced alert.
template <typename Ratio>
void check_ratio_spike(const TimeSeries& ts, const HealthConfig& cfg,
                       const char* rule, const char* what, Ratio ratio,
                       std::vector<HealthAlert>* out) {
  const std::size_t warmup = static_cast<std::size_t>(cfg.warmup_frames);
  if (warmup == 0 || ts.frames.size() <= warmup) return;
  std::vector<double> ratios;
  for (std::size_t i = warmup; i < ts.frames.size(); ++i) {
    double r = 0.0;
    if (ratio(ts.frames[i], &r)) ratios.push_back(r);
  }
  if (ratios.empty()) return;
  // Lower median: biased toward the quiet half, so a spike covering up to
  // half the windows still registers against the calm remainder.
  std::sort(ratios.begin(), ratios.end());
  const double baseline = ratios[(ratios.size() - 1) / 2];
  const double threshold = std::max(cfg.spike_floor, 3.0 * baseline);
  std::size_t first_bad = 0;
  std::size_t last_bad = 0;
  std::uint64_t bad_windows = 0;
  double worst = 0.0;
  for (std::size_t i = warmup; i < ts.frames.size(); ++i) {
    double r = 0.0;
    if (!ratio(ts.frames[i], &r)) continue;
    if (r <= threshold) continue;
    if (bad_windows == 0) first_bad = i;
    last_bad = i;
    ++bad_windows;
    worst = std::max(worst, r);
  }
  if (bad_windows == 0) return;
  HealthAlert a;
  a.rule = rule;
  a.severity = AlertSeverity::Warn;
  std::ostringstream d;
  d << what << " ratio peaked at " << json::number(worst) << " across "
    << bad_windows << " window(s), vs run median "
    << json::number(baseline) << " (threshold " << json::number(threshold)
    << ")";
  a.detail = d.str();
  a.first_frame = first_bad;
  a.last_frame = last_bad;
  a.first_cycle = ts.frames[first_bad].cycle;
  a.last_cycle = ts.frames[last_bad].cycle;
  push_input(&a, "worst_ratio", worst);
  push_input(&a, "baseline_ratio", baseline);
  push_input(&a, "threshold", threshold);
  push_input(&a, "windows", static_cast<double>(bad_windows));
  out->push_back(std::move(a));
}

/// (d) fault bursts: any single window with >= cfg.fault_burst injected
/// faults is critical. One coalesced alert.
void check_fault_burst(const TimeSeries& ts, const HealthConfig& cfg,
                       std::vector<HealthAlert>* out) {
  if (cfg.fault_burst == 0) return; // 0 disables the rule
  std::size_t first_bad = 0;
  std::size_t last_bad = 0;
  std::uint64_t bad_windows = 0;
  std::uint64_t worst = 0;
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < ts.frames.size(); ++i) {
    total += ts.frames[i].faults;
    if (ts.frames[i].faults < cfg.fault_burst) continue;
    if (bad_windows == 0) first_bad = i;
    last_bad = i;
    ++bad_windows;
    worst = std::max(worst, ts.frames[i].faults);
  }
  if (bad_windows == 0) return;
  HealthAlert a;
  a.rule = "fault_burst";
  a.severity = AlertSeverity::Critical;
  std::ostringstream d;
  d << worst << " injected faults in one sample window (threshold "
    << cfg.fault_burst << "), " << bad_windows << " burst window(s), "
    << total << " faults over the run";
  a.detail = d.str();
  a.first_frame = first_bad;
  a.last_frame = last_bad;
  a.first_cycle = ts.frames[first_bad].cycle;
  a.last_cycle = ts.frames[last_bad].cycle;
  push_input(&a, "worst_window_faults", static_cast<double>(worst));
  push_input(&a, "threshold", static_cast<double>(cfg.fault_burst));
  push_input(&a, "total_faults", static_cast<double>(total));
  out->push_back(std::move(a));
}

/// (e) residual stagnation: the best -log10(residual) seen so far fails to
/// improve for >= cfg.residual_iters consecutive recorded iterations. A
/// residual that climbs back up keeps the plateau growing, so non-monotone
/// convergence is covered by the same counter.
void check_residual_stagnation(const std::vector<TimeSeriesScalar>& scalars,
                               const HealthConfig& cfg,
                               std::vector<HealthAlert>* out) {
  if (cfg.residual_iters == 0) return;
  double best = -1.0e300;
  std::uint64_t best_iteration = 0;
  std::uint64_t plateau = 0;
  bool seeded = false;
  bool found = false;
  std::uint64_t first_bad = 0;
  std::uint64_t last_bad = 0;
  std::uint64_t worst_plateau = 0;
  double last_residual = 0.0;
  for (const TimeSeriesScalar& s : scalars) {
    if (s.name != "residual") continue;
    if (!std::isfinite(s.value) || s.value <= 0.0) continue;
    const double neglog = -std::log10(s.value);
    last_residual = s.value;
    if (!seeded || neglog > best) {
      best = neglog;
      best_iteration = s.iteration;
      seeded = true;
      plateau = 0;
      continue;
    }
    ++plateau;
    if (plateau >= cfg.residual_iters) {
      if (!found) first_bad = best_iteration;
      found = true;
      last_bad = s.iteration;
      worst_plateau = std::max(worst_plateau, plateau);
    }
  }
  if (!found) return;
  HealthAlert a;
  a.rule = "residual_stagnation";
  a.severity = AlertSeverity::Warn;
  std::ostringstream d;
  d << "-log10 residual made no progress for " << worst_plateau
    << " consecutive iterations (threshold " << cfg.residual_iters
    << "); best " << json::number(best) << " at iteration " << best_iteration
    << ", last residual " << json::number(last_residual);
  a.detail = d.str();
  a.first_frame = first_bad; // solver iterations, not frame indices
  a.last_frame = last_bad;
  push_input(&a, "stalled_iterations", static_cast<double>(worst_plateau));
  push_input(&a, "threshold", static_cast<double>(cfg.residual_iters));
  push_input(&a, "best_neg_log10", best);
  push_input(&a, "last_residual", last_residual);
  out->push_back(std::move(a));
}

/// Any recorded scalar going NaN/Inf is critical: the solver state is
/// poisoned even if the run later "finishes".
void check_scalar_nonfinite(const std::vector<TimeSeriesScalar>& scalars,
                            std::vector<HealthAlert>* out) {
  bool found = false;
  std::uint64_t first_bad = 0;
  std::uint64_t last_bad = 0;
  std::uint64_t count = 0;
  std::string first_name;
  for (const TimeSeriesScalar& s : scalars) {
    if (std::isfinite(s.value)) continue;
    if (!found) {
      first_bad = s.iteration;
      first_name = s.name;
    }
    found = true;
    last_bad = s.iteration;
    ++count;
  }
  if (!found) return;
  HealthAlert a;
  a.rule = "scalar_nonfinite";
  a.severity = AlertSeverity::Critical;
  std::ostringstream d;
  d << count << " non-finite solver scalar(s), first '" << first_name
    << "' at iteration " << first_bad;
  a.detail = d.str();
  a.first_frame = first_bad; // solver iterations, not frame indices
  a.last_frame = last_bad;
  push_input(&a, "count", static_cast<double>(count));
  out->push_back(std::move(a));
}

} // namespace

std::vector<HealthAlert> evaluate_scalar_health(
    const std::vector<TimeSeriesScalar>& scalars, const HealthConfig& cfg) {
  std::vector<HealthAlert> alerts;
  check_residual_stagnation(scalars, cfg, &alerts);
  check_scalar_nonfinite(scalars, &alerts);
  return alerts;
}

std::vector<HealthAlert> evaluate_scalar_health(const ScalarHistory& scalars,
                                                const HealthConfig& cfg) {
  std::vector<TimeSeriesScalar> copy;
  copy.reserve(scalars.samples().size());
  for (const ScalarSample& s : scalars.samples()) {
    copy.push_back(TimeSeriesScalar{s.iteration, s.name, s.value});
  }
  return evaluate_scalar_health(copy, cfg);
}

std::vector<HealthAlert> evaluate_health(const TimeSeries& ts,
                                         const HealthConfig& cfg) {
  std::vector<HealthAlert> alerts;
  check_perfmodel_drift(ts, cfg, &alerts);
  check_flow_bandwidth_drift(ts, cfg, &alerts);
  check_link_congestion(ts, cfg, &alerts);
  check_monotone_growth(
      ts, cfg, "queue_growth", "router queue occupancy",
      [](const TimeSeriesFrame& f) { return f.router_queued_flits; }, &alerts);
  check_monotone_growth(
      ts, cfg, "fifo_growth", "software-FIFO high-water",
      [](const TimeSeriesFrame& f) { return f.fifo_highwater; }, &alerts);
  check_ratio_spike(
      ts, cfg, "stall_spike", "stall",
      [](const TimeSeriesFrame& f, double* r) {
        const std::uint64_t denom =
            f.instr_cycles + f.stall_cycles + f.idle_cycles;
        if (denom == 0) return false;
        *r = static_cast<double>(f.stall_cycles) / static_cast<double>(denom);
        return true;
      },
      &alerts);
  check_ratio_spike(
      ts, cfg, "recv_starvation", "recv-starved",
      [](const TimeSeriesFrame& f, double* r) {
        if (!f.has_profiler) return false;
        std::uint64_t denom = 0;
        for (const std::uint64_t n : f.prof_cat) denom += n;
        if (denom == 0) return false;
        *r = static_cast<double>(
                 f.prof_cat[static_cast<std::size_t>(CycleCat::RecvStarved)]) /
             static_cast<double>(denom);
        return true;
      },
      &alerts);
  check_fault_burst(ts, cfg, &alerts);
  std::vector<HealthAlert> scalar_alerts = evaluate_scalar_health(ts.scalars, cfg);
  for (HealthAlert& a : scalar_alerts) alerts.push_back(std::move(a));
  return alerts;
}

bool any_critical(const std::vector<HealthAlert>& alerts) {
  return std::any_of(alerts.begin(), alerts.end(), [](const HealthAlert& a) {
    return a.severity == AlertSeverity::Critical;
  });
}

// --- the wss.alerts/1 field lists ---------------------------------------

void describe(artifact::Io& io, AlertInput& in) {
  io.field("name", in.name);
  io.field("value", in.value);
}

void describe(artifact::Io& io, HealthAlert& a) {
  io.field("rule", a.rule);
  io.field("severity", a.severity, to_string, 3);
  io.field("detail", a.detail);
  io.field("first_frame", a.first_frame);
  io.field("last_frame", a.last_frame);
  io.field("first_cycle", a.first_cycle);
  io.field("last_cycle", a.last_cycle);
  io.field("inputs", a.inputs);
}

void describe(artifact::Io& io, AlertsFile& a) {
  io.field("schema", a.schema);
  io.field("program", a.program);
  io.field("run_id", a.run_id);
  io.field("tol_pct", a.tol_pct);
  io.field("alerts", a.alerts);
}

std::string build_alerts_json(const AlertsFile& a) { return artifact::emit(a); }

bool write_alerts(const std::string& path, const AlertsFile& a,
                  std::string* error) {
  return artifact::write(path, a, error);
}

bool load_alerts(const std::string& path, AlertsFile* out,
                 std::string* error) {
  return artifact::read(path, kAlertsSchema, out, error);
}

// --- self-check ----------------------------------------------------------

bool self_check_alerts(const AlertsFile& a, std::string* error) {
  using artifact::fail_with;
  if (!artifact::check_schema(a.schema, kAlertsSchema, error)) return false;
  if (!std::isfinite(a.tol_pct) || a.tol_pct < 0.0) {
    return fail_with(error, "negative or non-finite tolerance");
  }
  for (std::size_t i = 0; i < a.alerts.size(); ++i) {
    const HealthAlert& al = a.alerts[i];
    const std::string at = "alert " + std::to_string(i);
    if (al.rule.empty()) return fail_with(error, at + ": empty rule name");
    if (al.first_frame > al.last_frame) {
      return fail_with(error, at + ": frame range not ordered");
    }
    if (al.first_cycle > al.last_cycle) {
      return fail_with(error, at + ": cycle range not ordered");
    }
    for (const AlertInput& in : al.inputs) {
      if (in.name.empty()) return fail_with(error, at + ": unnamed rule input");
    }
  }
  return true;
}

// --- diffing -------------------------------------------------------------

std::string summarize_alert(const HealthAlert& a) {
  std::ostringstream out;
  out << "[" << to_string(a.severity) << "] " << a.rule;
  if (a.first_cycle != 0 || a.last_cycle != 0) {
    out << " frames " << a.first_frame << ".." << a.last_frame << " cycles "
        << a.first_cycle << ".." << a.last_cycle;
  } else {
    out << " iterations " << a.first_frame << ".." << a.last_frame;
  }
  out << ": " << a.detail;
  return out.str();
}

Divergence first_divergence(const AlertsFile& a, const AlertsFile& b) {
  Divergence d = first_divergence_in("alert", "alert streams", a.alerts,
                                     b.alerts, summarize_alert);
  d.note = program_mismatch(a.program, b.program);
  if (d.note.empty() && a.tol_pct != b.tol_pct) {
    d.note = "warning: tolerance mismatch (" + json::number(a.tol_pct) +
             " vs " + json::number(b.tol_pct) +
             ") — rules fired against different gates";
  }
  return d;
}

// --- rendering -----------------------------------------------------------

namespace {

[[nodiscard]] std::string severity_tally(
    const std::vector<HealthAlert>& alerts) {
  std::size_t crit = 0;
  std::size_t warn = 0;
  std::size_t info = 0;
  for (const HealthAlert& a : alerts) {
    switch (a.severity) {
      case AlertSeverity::Critical: ++crit; break;
      case AlertSeverity::Warn: ++warn; break;
      case AlertSeverity::Info: ++info; break;
    }
  }
  std::ostringstream out;
  out << alerts.size() << " alert(s)";
  if (!alerts.empty()) {
    out << " [";
    bool first = true;
    const auto item = [&](std::size_t n, const char* label) {
      if (n == 0) return;
      if (!first) out << ", ";
      first = false;
      out << n << " " << label;
    };
    item(crit, "critical");
    item(warn, "warn");
    item(info, "info");
    out << "]";
  }
  return out.str();
}

} // namespace

std::string pretty_alerts(const AlertsFile& a) {
  std::ostringstream out;
  out << "alerts (" << a.schema << ")\n";
  if (!a.program.empty()) out << "  program: " << a.program << "\n";
  if (!a.run_id.empty()) out << "  run:     " << a.run_id << "\n";
  out << "  drift tolerance: " << json::number(a.tol_pct) << "%\n";
  out << "  " << severity_tally(a.alerts) << "\n";
  for (const HealthAlert& al : a.alerts) {
    out << "\n  " << summarize_alert(al) << "\n";
    for (const AlertInput& in : al.inputs) {
      out << "      " << in.name << " = " << json::number(in.value) << "\n";
    }
  }
  return out.str();
}

std::string pretty_health_pane(const TimeSeries& ts, const HealthConfig& cfg) {
  const std::vector<HealthAlert> alerts = evaluate_health(ts, cfg);
  std::ostringstream out;
  if (alerts.empty()) {
    out << "health: ok — no alerts (tol " << json::number(cfg.tol_pct)
        << "%)\n";
    return out.str();
  }
  out << "health: " << severity_tally(alerts) << ", tol "
      << json::number(cfg.tol_pct) << "%\n";
  for (const HealthAlert& a : alerts) {
    out << "  " << summarize_alert(a) << "\n";
  }
  return out.str();
}

} // namespace wss::telemetry
