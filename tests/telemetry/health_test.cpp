// Health-engine tests (telemetry/health.hpp): per-detector unit tests over
// synthetic frames/scalars, the wss.alerts/1 artifact round trip + golden
// schema guard + first-divergent-alert diff, and the end-to-end acceptance
// matrix — the engine must be non-perturbing (result bits and cycle counts
// identical with WSS_HEALTH on/off), the drift gate must fire on a
// stalled-router slowdown and stay silent on a clean run, and a fault
// storm must yield a critical alert whose auto-captured post-mortem and
// ledger manifest reference the alert. Satellite proptests: clean random
// scenarios raise zero alerts at any thread count; fault-storm scenarios
// raise bit-identical alert streams at WSS_SIM_THREADS 1/2/8.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "perfmodel/health_expectations.hpp"
#include "stencil/generators.hpp"
#include "support/env_guard.hpp"
#include "support/proptest.hpp"
#include "telemetry/artifact.hpp"
#include "telemetry/health.hpp"
#include "telemetry/io.hpp"
#include "telemetry/ledger.hpp"
#include "telemetry/postmortem.hpp"
#include "telemetry/profiler.hpp"
#include "telemetry/timeseries.hpp"
#include "wse/fabric.hpp"
#include "wse/fault.hpp"
#include "wsekernels/bicgstab_program.hpp"
#include "wsekernels/spmv3d_program.hpp"

namespace wss::telemetry {
namespace {

using testsupport::CleanSimEnv;
using testsupport::EnvGuard;
using wse::CS1Params;
using wse::Fabric;
using wse::SimParams;

/// Scrub the health knobs on top of the observer scrub: these tests set
/// their own HealthConfig explicitly and must not inherit CI's.
struct CleanHealthEnv {
  CleanSimEnv sim;
  EnvGuard health{"WSS_HEALTH"};
  EnvGuard tol{"WSS_HEALTH_TOL_PCT"};
  EnvGuard warmup{"WSS_HEALTH_WARMUP"};
  EnvGuard queue{"WSS_HEALTH_QUEUE_WINDOWS"};
  EnvGuard burst{"WSS_HEALTH_FAULT_BURST"};
  EnvGuard residual{"WSS_HEALTH_RESIDUAL_ITERS"};
};

TimeSeriesFrame frame(std::uint64_t cycle, std::uint64_t window) {
  TimeSeriesFrame f;
  f.cycle = cycle;
  f.window_cycles = window;
  f.instr_cycles = 100;
  return f;
}

/// A minimal valid series: 2x2 fabric, 100-cycle windows, no rules armed.
TimeSeries synth_series(std::size_t nframes) {
  TimeSeries ts;
  ts.schema = kTimeseriesSchema;
  ts.program = "synthetic";
  ts.width = 2;
  ts.height = 2;
  ts.sample_cycles = 100;
  for (std::size_t i = 0; i < nframes; ++i) {
    ts.frames.push_back(frame(100 * (i + 1), 100));
  }
  return ts;
}

std::vector<std::string> rules_of(const std::vector<HealthAlert>& alerts) {
  std::vector<std::string> out;
  for (const HealthAlert& a : alerts) out.push_back(a.rule);
  return out;
}

const HealthAlert* find_rule(const std::vector<HealthAlert>& alerts,
                             const std::string& rule) {
  for (const HealthAlert& a : alerts) {
    if (a.rule == rule) return &a;
  }
  return nullptr;
}

// --- perfmodel drift -----------------------------------------------------

/// Series with one profiled frame measuring `measured` cycles/tile/iter on
/// SpMV against an expectation of 100.
TimeSeries drift_series(double measured, std::uint64_t iterations) {
  TimeSeries ts = synth_series(3);
  ts.has_expectations = true;
  ts.expectations.model = "unit";
  ts.expectations.phase_cycles[static_cast<std::size_t>(wse::ProgPhase::SpMV)] =
      100.0;
  const double tiles = 4.0;
  TimeSeriesFrame& f = ts.frames[1];
  f.has_profiler = true;
  f.prof_phase[static_cast<std::size_t>(wse::ProgPhase::SpMV)] =
      static_cast<std::uint64_t>(measured * tiles *
                                 static_cast<double>(iterations));
  ts.frames.back().max_iteration = iterations;
  return ts;
}

TEST(Health, DriftGateIsOneSidedWithCriticalAt2x) {
  HealthConfig cfg;
  cfg.tol_pct = 50.0;

  // On the model: silent.
  EXPECT_TRUE(evaluate_health(drift_series(100.0, 4), cfg).empty());
  // +40%: inside tolerance.
  EXPECT_TRUE(evaluate_health(drift_series(140.0, 4), cfg).empty());
  // Faster than the model is not a health problem (one-sided gate).
  EXPECT_TRUE(evaluate_health(drift_series(10.0, 4), cfg).empty());

  // +60%: warn, with the rule inputs a forensics reader needs.
  const auto warn = evaluate_health(drift_series(160.0, 4), cfg);
  ASSERT_EQ(warn.size(), 1u);
  EXPECT_EQ(warn[0].rule, "perfmodel_drift");
  EXPECT_EQ(warn[0].severity, AlertSeverity::Warn);
  EXPECT_EQ(warn[0].first_frame, 1u);
  EXPECT_EQ(warn[0].last_frame, 1u);
  EXPECT_EQ(warn[0].first_cycle, 200u);
  EXPECT_NE(warn[0].detail.find("unit"), std::string::npos) << warn[0].detail;
  bool saw_measured = false;
  for (const AlertInput& in : warn[0].inputs) {
    if (in.name == "measured_cycles_per_tile_iter") {
      saw_measured = true;
      EXPECT_DOUBLE_EQ(in.value, 160.0);
    }
  }
  EXPECT_TRUE(saw_measured);

  // +150% (> 2x tol): critical.
  const auto crit = evaluate_health(drift_series(250.0, 4), cfg);
  ASSERT_EQ(crit.size(), 1u);
  EXPECT_EQ(crit[0].severity, AlertSeverity::Critical);
}

TEST(Health, DriftNeedsIterationsAndExpectations) {
  HealthConfig cfg;
  cfg.tol_pct = 50.0;
  cfg.min_iterations = 2;
  // One iteration: not enough signal for the per-iteration ratio.
  EXPECT_TRUE(evaluate_health(drift_series(500.0, 1), cfg).empty());
  // No expectations block at all: the rule is disarmed.
  TimeSeries ts = drift_series(500.0, 4);
  ts.has_expectations = false;
  EXPECT_TRUE(evaluate_health(ts, cfg).empty());
  // Ungated phase (expectation 0) never fires, however big the counters.
  TimeSeries ungated = drift_series(500.0, 4);
  ungated.expectations.phase_cycles.fill(0.0);
  ungated.expectations.phase_cycles[static_cast<std::size_t>(
      wse::ProgPhase::Dot)] = 0.0;
  EXPECT_FALSE(ungated.expectations.any());
  EXPECT_TRUE(evaluate_health(ungated, cfg).empty());
}

// --- queue / fifo growth -------------------------------------------------

TEST(Health, MonotoneQueueGrowthCoalescesIntoOneAlert) {
  HealthConfig cfg;
  cfg.warmup_frames = 2;
  cfg.queue_windows = 3;
  TimeSeries ts = synth_series(9);
  // Frames 3..8 strictly increasing; warmup frames noisy on purpose.
  ts.frames[0].router_queued_flits = 50;
  ts.frames[1].router_queued_flits = 10;
  ts.frames[2].router_queued_flits = 10;
  for (std::size_t i = 3; i < 9; ++i) {
    ts.frames[i].router_queued_flits = 10 + 5 * i;
  }
  const auto alerts = evaluate_health(ts, cfg);
  ASSERT_EQ(alerts.size(), 1u) << ::testing::PrintToString(rules_of(alerts));
  EXPECT_EQ(alerts[0].rule, "queue_growth");
  EXPECT_EQ(alerts[0].severity, AlertSeverity::Warn);
  EXPECT_EQ(alerts[0].first_frame, 2u); // run starts at the pre-growth frame
  EXPECT_EQ(alerts[0].last_frame, 8u);

  // A plateau resets the run: 2-step climbs never reach the threshold.
  TimeSeries calm = synth_series(9);
  for (std::size_t i = 0; i < 9; ++i) {
    calm.frames[i].router_queued_flits = (i % 3 == 2) ? 10 : 10 + i;
  }
  EXPECT_TRUE(evaluate_health(calm, cfg).empty());
}

TEST(Health, FifoHighwaterGrowthIsItsOwnRule) {
  HealthConfig cfg;
  cfg.warmup_frames = 1;
  cfg.queue_windows = 3;
  TimeSeries ts = synth_series(6);
  for (std::size_t i = 1; i < 6; ++i) {
    ts.frames[i].fifo_highwater = 100 * i;
  }
  const auto alerts = evaluate_health(ts, cfg);
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].rule, "fifo_growth");
}

// --- stall / recv-starvation spikes --------------------------------------

TEST(Health, StallSpikeComparesAgainstRunMedian) {
  HealthConfig cfg;
  cfg.warmup_frames = 2;
  cfg.spike_floor = 0.25;
  TimeSeries ts = synth_series(6);
  for (TimeSeriesFrame& f : ts.frames) {
    f.instr_cycles = 95;
    f.stall_cycles = 5; // typical ratio 0.05
  }
  // Frames 3 and 4 stall hard: ratio 0.6 > max(0.25, 3 * median 0.05).
  ts.frames[3].stall_cycles = 150;
  ts.frames[4].stall_cycles = 150;
  const auto alerts = evaluate_health(ts, cfg);
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].rule, "stall_spike");
  EXPECT_EQ(alerts[0].first_frame, 3u);
  EXPECT_EQ(alerts[0].last_frame, 4u);

  // A uniformly-stalling run is its own median: no window stands out, so
  // steady solver phases that legitimately stall (allreduce waits) never
  // spike against their own ramp-in.
  TimeSeries calm = synth_series(6);
  for (TimeSeriesFrame& f : calm.frames) {
    f.instr_cycles = 95;
    f.stall_cycles = 140; // uniformly high: median ~0.6, threshold ~1.8
  }
  EXPECT_TRUE(evaluate_health(calm, cfg).empty());
}

TEST(Health, RecvStarvationReadsProfiledFramesOnly) {
  HealthConfig cfg;
  cfg.warmup_frames = 2;
  TimeSeries ts = synth_series(6);
  for (std::size_t i = 0; i < 6; ++i) {
    TimeSeriesFrame& f = ts.frames[i];
    f.has_profiler = true;
    f.prof_cat[static_cast<std::size_t>(CycleCat::Compute)] = 90;
    f.prof_cat[static_cast<std::size_t>(CycleCat::RecvStarved)] = 10;
  }
  TimeSeriesFrame& bad = ts.frames[4];
  bad.prof_cat[static_cast<std::size_t>(CycleCat::Compute)] = 10;
  bad.prof_cat[static_cast<std::size_t>(CycleCat::RecvStarved)] = 90;
  const auto alerts = evaluate_health(ts, cfg);
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].rule, "recv_starvation");

  // Unprofiled frames carry no category split: the rule must stay quiet
  // rather than read stale zeros.
  for (TimeSeriesFrame& f : ts.frames) f.has_profiler = false;
  EXPECT_TRUE(evaluate_health(ts, cfg).empty());
}

// --- fault bursts --------------------------------------------------------

TEST(Health, FaultBurstIsCriticalAndZeroDisables) {
  HealthConfig cfg;
  cfg.fault_burst = 16;
  TimeSeries ts = synth_series(4);
  ts.frames[1].faults = 20;
  ts.frames[3].faults = 40;
  const auto alerts = evaluate_health(ts, cfg);
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].rule, "fault_burst");
  EXPECT_EQ(alerts[0].severity, AlertSeverity::Critical);
  EXPECT_EQ(alerts[0].first_frame, 1u);
  EXPECT_EQ(alerts[0].last_frame, 3u);
  const HealthAlert* a = find_rule(alerts, "fault_burst");
  ASSERT_NE(a, nullptr);
  bool saw_worst = false;
  for (const AlertInput& in : a->inputs) {
    if (in.name == "worst_window_faults") {
      saw_worst = true;
      EXPECT_DOUBLE_EQ(in.value, 40.0);
    }
  }
  EXPECT_TRUE(saw_worst);

  cfg.fault_burst = 0; // explicit off-switch
  EXPECT_TRUE(evaluate_health(ts, cfg).empty());
  cfg.fault_burst = 64; // below threshold everywhere
  EXPECT_TRUE(evaluate_health(ts, cfg).empty());
}

// --- residual rules ------------------------------------------------------

std::vector<TimeSeriesScalar> residual_track(
    const std::vector<double>& values) {
  std::vector<TimeSeriesScalar> out;
  for (std::size_t i = 0; i < values.size(); ++i) {
    out.push_back(TimeSeriesScalar{i, "residual", values[i]});
  }
  return out;
}

TEST(Health, ResidualStagnationCoversPlateauAndClimb) {
  HealthConfig cfg;
  cfg.residual_iters = 4;

  // Steady convergence: silent.
  std::vector<double> good;
  for (int i = 0; i < 12; ++i) good.push_back(std::pow(10.0, -i));
  EXPECT_TRUE(evaluate_scalar_health(residual_track(good), cfg).empty());

  // Converges, then flatlines for > 4 iterations: warn.
  std::vector<double> flat = {1.0, 0.1, 0.01, 0.01, 0.01,
                              0.01, 0.01, 0.01, 0.01};
  const auto alerts = evaluate_scalar_health(residual_track(flat), cfg);
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].rule, "residual_stagnation");
  EXPECT_EQ(alerts[0].severity, AlertSeverity::Warn);
  // Scalar rules carry iteration numbers in the frame fields, cycles 0.
  EXPECT_EQ(alerts[0].first_cycle, 0u);
  EXPECT_EQ(alerts[0].first_frame, 2u); // iteration of the best residual
  EXPECT_NE(summarize_alert(alerts[0]).find("iterations"), std::string::npos);

  // Non-monotone: residual climbs back above its best and stays there —
  // the best--log10 plateau keeps growing, same rule fires.
  std::vector<double> climb = {1.0, 1e-4, 1e-2, 1e-1, 1e-1, 1e-2, 1e-3};
  EXPECT_EQ(evaluate_scalar_health(residual_track(climb), cfg).size(), 1u);
}

TEST(Health, NonFiniteScalarIsCritical) {
  HealthConfig cfg;
  std::vector<TimeSeriesScalar> scalars = {
      {0, "residual", 1.0},
      {1, "rho", std::numeric_limits<double>::quiet_NaN()},
      {2, "residual", std::numeric_limits<double>::infinity()},
  };
  const auto alerts = evaluate_scalar_health(scalars, cfg);
  const HealthAlert* a = find_rule(alerts, "scalar_nonfinite");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->severity, AlertSeverity::Critical);
  EXPECT_EQ(a->first_frame, 1u);
  EXPECT_EQ(a->last_frame, 2u);
  EXPECT_NE(a->detail.find("rho"), std::string::npos) << a->detail;
  EXPECT_TRUE(any_critical(alerts));
}

// --- artifact round trip / golden / diff ---------------------------------

AlertsFile sample_alerts() {
  AlertsFile file;
  file.schema = kAlertsSchema;
  file.program = "roundtrip 2x2";
  file.run_id = "roundtrip-1";
  file.tol_pct = 50.0;
  HealthAlert a;
  a.rule = "fault_burst";
  a.severity = AlertSeverity::Critical;
  a.detail = "20 injected faults in one sample window";
  a.first_frame = 1;
  a.last_frame = 3;
  a.first_cycle = 200;
  a.last_cycle = 400;
  a.inputs = {{"worst_window_faults", 20.0}, {"threshold", 16.0}};
  file.alerts.push_back(a);
  HealthAlert b;
  b.rule = "residual_stagnation";
  b.severity = AlertSeverity::Warn;
  b.detail = "no progress for 6 iterations";
  b.first_frame = 4;
  b.last_frame = 10;
  file.alerts.push_back(b);
  return file;
}

TEST(Health, AlertsFileRoundTripsBitForBit) {
  const AlertsFile want = sample_alerts();
  const std::string path =
      ::testing::TempDir() + "wss_health_roundtrip/alerts.json";
  std::string error;
  ASSERT_TRUE(write_alerts(path, want, &error)) << error;
  AlertsFile got;
  ASSERT_TRUE(load_alerts(path, &got, &error)) << error;
  EXPECT_TRUE(self_check_alerts(got, &error)) << error;
  EXPECT_EQ(got.schema, want.schema);
  EXPECT_EQ(got.program, want.program);
  EXPECT_EQ(got.run_id, want.run_id);
  EXPECT_EQ(got.tol_pct, want.tol_pct);
  ASSERT_EQ(got.alerts.size(), want.alerts.size());
  for (std::size_t i = 0; i < want.alerts.size(); ++i) {
    EXPECT_EQ(got.alerts[i], want.alerts[i]) << "alert " << i;
  }
  // Re-emitting the loaded file reproduces the bytes: the artifact is a
  // fixed point, so goldens stay stable.
  EXPECT_EQ(build_alerts_json(got), build_alerts_json(want));
}

TEST(Health, LoaderAndSelfCheckRejectMalformedFiles) {
  std::string error;
  const std::string dir = ::testing::TempDir() + "wss_health_malformed/";
  ASSERT_TRUE(ensure_directory(::testing::TempDir() + "wss_health_malformed",
                               &error))
      << error;

  // Wrong schema tag (the writer always stamps the current schema, so the
  // bad file has to be forged at the text level).
  std::string forged = build_alerts_json(sample_alerts());
  const std::size_t tag = forged.find(kAlertsSchema);
  ASSERT_NE(tag, std::string::npos);
  forged.replace(tag, std::string(kAlertsSchema).size(), "wss.alerts/999");
  ASSERT_TRUE(write_text_file(dir + "schema.json", forged, &error)) << error;
  AlertsFile out;
  EXPECT_FALSE(load_alerts(dir + "schema.json", &out, &error));
  EXPECT_NE(error.find("schema"), std::string::npos) << error;

  // Unknown severity text is a load error (strict parse).
  AlertsFile ok = sample_alerts();
  std::string json = build_alerts_json(ok);
  const std::size_t at = json.find("\"critical\"");
  ASSERT_NE(at, std::string::npos);
  json.replace(at, 10, "\"severe!!\"");
  ASSERT_TRUE(write_text_file(dir + "severity.json", json, &error)) << error;
  EXPECT_FALSE(load_alerts(dir + "severity.json", &out, &error));
  EXPECT_NE(error.find("severity"), std::string::npos) << error;

  // Structural invariants: unordered ranges, unnamed inputs, empty rule.
  AlertsFile bad = sample_alerts();
  bad.alerts[0].first_cycle = 500; // > last_cycle
  EXPECT_FALSE(self_check_alerts(bad, &error));
  EXPECT_NE(error.find("cycle range"), std::string::npos) << error;
  bad = sample_alerts();
  bad.alerts[0].inputs.push_back({"", 1.0});
  EXPECT_FALSE(self_check_alerts(bad, &error));
  bad = sample_alerts();
  bad.alerts[1].rule.clear();
  EXPECT_FALSE(self_check_alerts(bad, &error));
  bad = sample_alerts();
  bad.tol_pct = -1.0;
  EXPECT_FALSE(self_check_alerts(bad, &error));
}

TEST(Health, GoldenAlertsFileSelfChecks) {
  AlertsFile file;
  std::string error;
  ASSERT_TRUE(load_alerts(WSS_ALERTS_GOLDEN, &file, &error)) << error;
  EXPECT_TRUE(self_check_alerts(file, &error)) << error;
  EXPECT_GT(file.alerts.size(), 0u);
  EXPECT_FALSE(pretty_alerts(file).empty());
}

TEST(Health, FirstAlertDivergenceLocalizesTheDifference) {
  const AlertsFile a = sample_alerts();
  AlertsFile b = a;
  EXPECT_FALSE(first_divergence(a, b).found);

  b.alerts[1].last_frame = 11;
  const Divergence d = first_divergence(a, b);
  ASSERT_TRUE(d.found);
  EXPECT_EQ(d.index, 1u);
  EXPECT_NE(d.a, d.b);
  EXPECT_FALSE(pretty_divergence(d).empty());

  // A shorter stream diverges at its end, against "-".
  AlertsFile shorter = a;
  shorter.alerts.pop_back();
  const Divergence tail = first_divergence(a, shorter);
  ASSERT_TRUE(tail.found);
  EXPECT_EQ(tail.index, 1u);
  EXPECT_EQ(tail.b, "-");

  // Cross-program diffs carry a warning note but still diff.
  AlertsFile other = a;
  other.program = "something else";
  const Divergence warned = first_divergence(a, other);
  EXPECT_FALSE(warned.found);
  EXPECT_NE(warned.note.find("program mismatch"), std::string::npos);
}

TEST(Health, PaneRendersOkAndAlertStates) {
  HealthConfig cfg;
  const TimeSeries calm = synth_series(3);
  const std::string ok = pretty_health_pane(calm, cfg);
  EXPECT_NE(ok.find("health: ok"), std::string::npos) << ok;

  TimeSeries noisy = synth_series(4);
  noisy.frames[2].faults = cfg.fault_burst + 1;
  const std::string bad = pretty_health_pane(noisy, cfg);
  EXPECT_NE(bad.find("fault_burst"), std::string::npos) << bad;
  EXPECT_NE(bad.find("critical"), std::string::npos) << bad;
}

// --- end to end: non-perturbation ----------------------------------------

struct System {
  Stencil7<fp16_t> a;
  Field3<fp16_t> b;
};

System make_system(Grid3 g, std::uint64_t seed) {
  auto ad = make_momentum_like7(g, 0.5, seed);
  const auto xref = make_smooth_solution(g);
  auto bd = make_rhs(ad, xref);
  Field3<double> bp = precondition_jacobi(ad, bd);
  return {convert_stencil<fp16_t>(ad), convert_field<fp16_t>(bp)};
}

TEST(HealthEndToEnd, EngineToggleIsNonPerturbing) {
  // The full forensics pipeline (sampler + ledger + post-mortem dir) with
  // the health engine on vs off: result bits and cycle counts must be
  // identical — evaluation rides recorded frames after the run, never the
  // fabric. A fault storm makes the engine actually fire in the on-run.
  CleanHealthEnv env;
  const Grid3 g(6, 6, 8);
  auto ad = make_random_dominant7(g, 0.5, 99);
  Field3<double> bd(g, 1.0);
  (void)precondition_jacobi(ad, bd);
  const auto a = convert_stencil<fp16_t>(ad);
  Field3<fp16_t> v(g);
  Rng rng(100);
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = fp16_t(rng.uniform(-1.0, 1.0));
  }
  wse::FaultPlan plan;
  plan.seed = 7;
  for (int y = 0; y < g.ny; ++y) {
    plan.link_faults.push_back({.x = 2,
                                .y = y,
                                .dir = wse::Dir::East,
                                .kind = wse::FaultKind::CorruptWavelet,
                                .probability = 0.5,
                                .corrupt_mask = 0x0000u});
  }

  const auto run_once = [&](const char* health, const std::string& dir) {
    env.sim.sample.set("64");
    env.sim.ledger.set(dir.c_str());
    env.sim.postmortem.set(dir.c_str());
    env.health.set(health);
    env.burst.set("8");
    static const CS1Params arch;
    wsekernels::SpMV3DSimulation s(a, arch, SimParams{});
    s.fabric().set_fault_plan(&plan);
    struct Out {
      Field3<fp16_t> u;
      std::uint64_t cycles;
    };
    Out out{s.run(v), s.fabric().stats().cycles};
    return out;
  };

  const std::string dir_off =
      ::testing::TempDir() + "wss_health_perturb/off";
  const std::string dir_on = ::testing::TempDir() + "wss_health_perturb/on";
  const auto off = run_once("0", dir_off);
  const auto on = run_once("1", dir_on);

  ASSERT_EQ(off.u.size(), on.u.size());
  for (std::size_t i = 0; i < off.u.size(); ++i) {
    ASSERT_EQ(off.u[i].bits(), on.u[i].bits()) << "u[" << i << "]";
  }
  EXPECT_EQ(off.cycles, on.cycles);

  // The on-run raised alerts; the off-run recorded none in its ledger.
  Ledger on_ledger;
  Ledger off_ledger;
  std::string error;
  ASSERT_TRUE(load_ledger(dir_on, &on_ledger, &error)) << error;
  ASSERT_TRUE(load_ledger(dir_off, &off_ledger, &error)) << error;
  // Append-only ledger: a re-run test process adds lines, so read the last.
  ASSERT_FALSE(on_ledger.runs.empty());
  ASSERT_FALSE(off_ledger.runs.empty());
  EXPECT_FALSE(on_ledger.runs.back().alerts.empty());
  EXPECT_TRUE(off_ledger.runs.back().alerts.empty());
}

// --- end to end: drift gate ----------------------------------------------

struct BicgstabRun {
  std::vector<HealthAlert> alerts;
  std::uint64_t cycles = 0;
};

/// One sampled+profiled bicgstab run with cs1 expectations attached;
/// optionally slowed by a fault plan. Evaluates health on the snapshot.
BicgstabRun run_bicgstab_health(const System& s, const wse::FaultPlan* plan,
                                const HealthConfig& cfg, int threads = 1) {
  static const CS1Params arch;
  SimParams sim;
  wsekernels::BicgstabSimulation simulation(s.a, 2, arch, sim);
  simulation.fabric().set_threads(threads);
  if (plan != nullptr) simulation.fabric().set_fault_plan(plan);
  Profiler prof(s.a.grid.nx, s.a.grid.ny);
  simulation.fabric().set_profiler(&prof);
  TimeSeriesSampler sampler(64);
  sampler.set_expectations(perfmodel::bicgstab_expectations(
      s.a.grid.nz, s.a.grid.nx, s.a.grid.ny));
  simulation.fabric().set_sampler(&sampler);
  (void)simulation.run(s.b);
  simulation.fabric().sample_now();
  BicgstabRun out;
  out.cycles = simulation.fabric().stats().cycles;
  out.alerts = evaluate_health(snapshot_timeseries(sampler, nullptr), cfg);
  simulation.fabric().set_sampler(nullptr);
  simulation.fabric().set_profiler(nullptr);
  return out;
}

TEST(HealthEndToEnd, DriftFiresOnStalledRouterAndStaysSilentClean) {
  CleanHealthEnv env;
  const System s = make_system(Grid3(4, 4, 12), 7);
  HealthConfig cfg; // defaults: tol 50%

  const BicgstabRun clean = run_bicgstab_health(s, nullptr, cfg);
  EXPECT_EQ(find_rule(clean.alerts, "perfmodel_drift"), nullptr)
      << ::testing::PrintToString(rules_of(clean.alerts));

  // Park a stalled router in the middle of the fabric for a window about
  // as long as the whole clean run: every phase crossing it slows far
  // beyond the model projection.
  wse::FaultPlan plan;
  wse::RouterStallFault stall;
  stall.x = 2;
  stall.y = 2;
  stall.from_cycle = 0;
  stall.until_cycle = clean.cycles;
  plan.router_stalls.push_back(stall);
  const BicgstabRun slow = run_bicgstab_health(s, &plan, cfg);
  const HealthAlert* drift = find_rule(slow.alerts, "perfmodel_drift");
  ASSERT_NE(drift, nullptr)
      << "stalled-router run raised: "
      << ::testing::PrintToString(rules_of(slow.alerts));
  EXPECT_GT(slow.cycles, clean.cycles);
}

// --- end to end: fault storm => critical + post-mortem + ledger ----------

TEST(HealthEndToEnd, FaultStormAutoCapturesPostmortemAndLedgerAlerts) {
  CleanHealthEnv env;
  const std::string dir = ::testing::TempDir() + "wss_health_storm";
  env.sim.sample.set("128");
  env.sim.ledger.set(dir.c_str());
  env.sim.postmortem.set(dir.c_str());
  env.burst.set("8");

  const Grid3 g(6, 6, 8);
  auto ad = make_random_dominant7(g, 0.5, 41);
  Field3<double> bd(g, 1.0);
  (void)precondition_jacobi(ad, bd);
  const auto a = convert_stencil<fp16_t>(ad);
  Field3<fp16_t> v(g);
  Rng rng(42);
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = fp16_t(rng.uniform(-1.0, 1.0));
  }
  wse::FaultPlan plan;
  plan.seed = 11;
  for (int y = 0; y < g.ny; ++y) {
    for (int x = 0; x < g.nx; ++x) {
      plan.link_faults.push_back({.x = x,
                                  .y = y,
                                  .dir = wse::Dir::East,
                                  .kind = wse::FaultKind::CorruptWavelet,
                                  .probability = 0.5,
                                  .corrupt_mask = 0x0000u});
    }
  }
  static const CS1Params arch;
  wsekernels::SpMV3DSimulation sim(a, arch, SimParams{});
  sim.fabric().set_fault_plan(&plan);
  (void)sim.run(v);

  // The ledger manifest carries the alert summary and the artifact paths.
  Ledger ledger;
  std::string error;
  ASSERT_TRUE(load_ledger(dir, &ledger, &error)) << error;
  // Append-only ledger: a re-run test process adds lines, so read the last.
  ASSERT_FALSE(ledger.runs.empty());
  const RunManifest& run = ledger.runs.back();
  ASSERT_FALSE(run.alerts.empty());
  bool saw_burst = false;
  for (const RunAlert& ra : run.alerts) {
    if (ra.rule == "fault_burst") {
      saw_burst = true;
      EXPECT_EQ(ra.severity, "critical");
    }
  }
  EXPECT_TRUE(saw_burst);
  std::string alerts_path;
  std::string bundle_path;
  for (const RunArtifact& art : run.artifacts) {
    if (art.kind == "alerts") alerts_path = art.path;
    if (art.kind == "postmortem") bundle_path = art.path;
  }
  ASSERT_FALSE(alerts_path.empty());
  ASSERT_FALSE(bundle_path.empty());

  // The alerts artifact self-checks and contains the critical burst.
  AlertsFile alerts;
  ASSERT_TRUE(load_alerts(alerts_path, &alerts, &error)) << error;
  EXPECT_TRUE(self_check_alerts(alerts, &error)) << error;
  const HealthAlert* burst = find_rule(alerts.alerts, "fault_burst");
  ASSERT_NE(burst, nullptr);
  EXPECT_EQ(burst->severity, AlertSeverity::Critical);
  EXPECT_EQ(alerts.run_id, run.run_id);

  // The auto-captured post-mortem is a health-kind bundle whose anomaly
  // detail quotes the alert and points back at the alerts artifact.
  Bundle bundle;
  ASSERT_TRUE(load_bundle(bundle_path, &bundle, &error)) << error;
  EXPECT_TRUE(self_check_bundle(bundle, &error)) << error;
  EXPECT_EQ(bundle.anomaly_kind, "health");
  EXPECT_NE(bundle.anomaly_detail.find("fault_burst"), std::string::npos)
      << bundle.anomaly_detail;
  EXPECT_NE(bundle.anomaly_detail.find(alerts_path), std::string::npos)
      << bundle.anomaly_detail;
}

// --- satellite: seeded proptest coverage ---------------------------------

/// Run a generated scenario at `threads`, sampled every `interval`, and
/// evaluate health on the snapshot with `cfg`.
std::vector<HealthAlert> scenario_alerts(const proptest::fabricgen::Scenario& sc,
                                         int threads, std::uint64_t interval,
                                         const HealthConfig& cfg,
                                         wse::Backend backend) {
  static const CS1Params arch;
  SimParams sim;
  sim.sim_threads = threads;
  sim.backend = backend;
  Fabric f = sc.instantiate(arch, sim);
  f.set_watchdog(0);
  if (sc.has_faults) f.set_fault_plan(&sc.faults);
  TimeSeriesSampler sampler(interval);
  f.set_sampler(&sampler);
  (void)f.run(sc.budget);
  f.sample_now();
  f.set_sampler(nullptr);
  return evaluate_health(snapshot_timeseries(sampler, nullptr), cfg);
}

TEST(HealthProptest, CleanScenariosRaiseZeroAlerts) {
  CleanHealthEnv env;
  proptest::check(
      "clean scenarios are alert-free at any thread count and backend",
      [](proptest::Case& c) {
        const auto sc = proptest::fabricgen::make_scenario(c, false);
        const std::uint64_t interval =
            static_cast<std::uint64_t>(c.size(16, 200));
        const HealthConfig cfg; // env-free defaults
        for (const wse::Backend backend :
             {wse::Backend::Reference, wse::Backend::Turbo}) {
          for (const int threads : {1, 2, 8}) {
            const auto alerts =
                scenario_alerts(sc, threads, interval, cfg, backend);
            EXPECT_TRUE(alerts.empty())
                << threads << " threads raised "
                << ::testing::PrintToString(rules_of(alerts));
          }
        }
      },
      {.cases = 4, .seed = 2026});
}

TEST(HealthProptest, StormScenariosAlertBitIdenticallyAcrossThreads) {
  CleanHealthEnv env;
  proptest::check(
      "fault-storm alert streams replay bit-identically",
      [](proptest::Case& c) {
        const auto sc = proptest::fabricgen::make_scenario(c, true);
        const std::uint64_t interval =
            static_cast<std::uint64_t>(c.size(16, 200));
        HealthConfig cfg;
        cfg.fault_burst = 1; // any faulted window alerts
        const auto want =
            scenario_alerts(sc, 1, interval, cfg, wse::Backend::Reference);
        for (const int threads : {2, 8}) {
          const auto got = scenario_alerts(sc, threads, interval, cfg,
                                           wse::Backend::Reference);
          ASSERT_EQ(want.size(), got.size()) << threads << " threads";
          for (std::size_t i = 0; i < want.size(); ++i) {
            EXPECT_EQ(want[i], got[i])
                << "alert " << i << " diverged at " << threads << " threads";
          }
        }
      },
      {.cases = 4, .seed = 2027});
}

} // namespace
} // namespace wss::telemetry
