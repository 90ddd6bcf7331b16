#pragma once

// The runtime health engine (docs/HEALTH.md): a streaming rule evaluator
// over the cycle-windowed time series (timeseries.hpp) and the solver
// scalar history (postmortem.hpp), turning frames into verdicts.
//
// Rule catalog:
//   perfmodel_drift     measured per-phase cycles/tile/iteration above the
//                       analytic projection carried in HealthExpectations
//                       (WSS_HEALTH_TOL_PCT; one-sided — only slowdowns
//                       alert; >2x tolerance -> critical)
//   flow_bandwidth_drift per-flow words/iteration below the route
//                       compiler's traffic projection carried in
//                       net_expectations (one-sided — only under-delivery
//                       alerts; >2x tolerance -> critical)
//   link_congestion     the most stall-attributed link backpressure-
//                       blocked for more than WSS_HEALTH_CONGESTION_PCT of
//                       the observed cycles; the alert names the link
//   queue_growth        router queue occupancy strictly increasing over
//                       WSS_HEALTH_QUEUE_WINDOWS consecutive frames
//   fifo_growth         software-FIFO high-water strictly increasing over
//                       the same window count
//   stall_spike         windowed stall ratio far above the run's median
//                       post-warmup ratio
//   recv_starvation     windowed recv-starved ratio far above the run's
//                       median post-warmup ratio (profiled runs only)
//   fault_burst         >= WSS_HEALTH_FAULT_BURST injected faults inside a
//                       single sample window (critical)
//   residual_stagnation best -log10 residual fails to improve across
//                       WSS_HEALTH_RESIDUAL_ITERS consecutive iterations
//   scalar_nonfinite    a recorded solver scalar went NaN/Inf (critical)
//
// The engine is evaluation-only: it reads recorded frames/scalars after
// the fact (RunForensics::finalize, wss_top renders, wss_inspect), never
// hooks the fabric, so it is non-perturbing by construction and inherits
// the frames' bit-identity across WSS_SIM_THREADS and backends. Alerts
// are coalesced per rule (first/last offending frame) and emitted in a
// fixed rule order, so a given frame stream always yields the same alert
// stream byte for byte.

#include <cstdint>
#include <string>
#include <vector>

#include "telemetry/timeseries.hpp"

namespace wss::telemetry {

class ScalarHistory; // telemetry/postmortem.hpp

/// Alerts schema identifier; bump on breaking layout changes.
inline constexpr const char* kAlertsSchema = "wss.alerts/1";

enum class AlertSeverity : std::uint8_t {
  Info = 0,
  Warn = 1,
  Critical = 2,
};

[[nodiscard]] const char* to_string(AlertSeverity s);

/// One named input the triggering rule evaluated (measured value, model
/// projection, threshold, ...), carried for forensics.
struct AlertInput {
  std::string name;
  double value = 0.0;

  [[nodiscard]] bool operator==(const AlertInput&) const = default;
};

/// One coalesced alert: a rule that fired, with the offending frame range.
/// Frame-based rules set first/last frame indices and cycles; scalar-based
/// rules (residual_stagnation, scalar_nonfinite) reuse the frame fields for
/// solver iteration numbers and leave cycles at 0.
struct HealthAlert {
  std::string rule;
  AlertSeverity severity = AlertSeverity::Info;
  std::string detail;
  std::uint64_t first_frame = 0;
  std::uint64_t last_frame = 0;
  std::uint64_t first_cycle = 0;
  std::uint64_t last_cycle = 0;
  std::vector<AlertInput> inputs;

  [[nodiscard]] bool operator==(const HealthAlert&) const = default;
};

/// Tuning knobs; defaults come from the WSS_HEALTH_* environment variables
/// (docs/OBSERVABILITY.md) via health_config().
struct HealthConfig {
  /// perfmodel drift tolerance, percent: the measured phase may run this
  /// much slower than the model before the rule fires (warn above it,
  /// critical above 2x; faster-than-model never alerts).
  double tol_pct = 50.0;
  /// Leading frames excluded from spike scans/baselines and growth scans
  /// (ramp-up noise).
  std::uint64_t warmup_frames = 2;
  /// Consecutive strictly-increasing windows before queue/FIFO growth fires.
  std::uint64_t queue_windows = 4;
  /// Injected faults inside one sample window that constitute a burst.
  std::uint64_t fault_burst = 16;
  /// Consecutive iterations without a new best -log10 residual.
  std::uint64_t residual_iters = 10;
  /// Minimum solver iterations before the drift gate has enough signal.
  std::uint64_t min_iterations = 2;
  /// Stall/recv-starved ratio must exceed both this absolute floor and 3x
  /// the run's median ratio to spike. The floor filters near-zero-baseline
  /// noise AND normal phase bimodality: allreduce-heavy windows of a
  /// healthy 6x6 BiCGStab solve stall ~0.33 while the rest of the run sits
  /// near zero, so the floor must clear that; a genuinely stalled fabric
  /// pushes windows toward 1.0.
  double spike_floor = 0.5;
  /// Stall-attributed-cycle ratio of the worst link (stall cycles over
  /// observed cycles) above which link_congestion fires. High on purpose:
  /// transient backpressure is routine multiplexing on a healthy fabric —
  /// clean CI runs must stay silent — while a stalled router drives the
  /// links feeding it toward 1.0. (WSS_HEALTH_CONGESTION_PCT / 100.)
  double congestion_floor = 0.5;
};

/// WSS_HEALTH: master switch for the engine (default on).
[[nodiscard]] bool health_enabled();

/// Config assembled from WSS_HEALTH_TOL_PCT, WSS_HEALTH_WARMUP,
/// WSS_HEALTH_QUEUE_WINDOWS, WSS_HEALTH_FAULT_BURST,
/// WSS_HEALTH_RESIDUAL_ITERS and WSS_HEALTH_CONGESTION_PCT (strict parse
/// via common/env.hpp).
[[nodiscard]] HealthConfig health_config();

// --- evaluation ----------------------------------------------------------

/// Evaluate every rule over a recorded series (frames + scalars +
/// expectations). Deterministic: identical inputs yield an identical alert
/// vector, ordered by rule then first offending frame.
[[nodiscard]] std::vector<HealthAlert> evaluate_health(
    const TimeSeries& ts, const HealthConfig& cfg);

/// Scalar-only rules (residual stagnation, non-finite scalars) for hosts
/// without a fabric sampler — the pure host solver path.
[[nodiscard]] std::vector<HealthAlert> evaluate_scalar_health(
    const std::vector<TimeSeriesScalar>& scalars, const HealthConfig& cfg);

/// Convenience overload over the live ScalarHistory ring.
[[nodiscard]] std::vector<HealthAlert> evaluate_scalar_health(
    const ScalarHistory& scalars, const HealthConfig& cfg);

[[nodiscard]] bool any_critical(const std::vector<HealthAlert>& alerts);

// --- the wss.alerts/1 artifact -------------------------------------------

/// A loaded (or to-be-written) `wss.alerts/1` file.
struct AlertsFile {
  std::string schema;
  std::string program;
  std::string run_id;
  double tol_pct = 0.0; ///< drift tolerance the alerts were evaluated with
  std::vector<HealthAlert> alerts;
};

[[nodiscard]] std::string build_alerts_json(const AlertsFile& a);

/// Write the alerts file to `path` (parent directories created). Returns
/// false + `*error` on I/O failure.
bool write_alerts(const std::string& path, const AlertsFile& a,
                  std::string* error = nullptr);

/// Parse an alerts file. Returns false + `*error` (with context) on
/// unreadable files, JSON errors, schema mismatch, or a bad field (an
/// unknown severity included).
bool load_alerts(const std::string& path, AlertsFile* out,
                 std::string* error = nullptr);

/// Schema guard for CI: schema tag, known severities, non-empty rule
/// names, ordered frame/cycle ranges. Returns false + `*error` on drift.
bool self_check_alerts(const AlertsFile& a, std::string* error = nullptr);

/// First divergent alert between two alert streams (exit 3 in
/// wss_inspect).
[[nodiscard]] Divergence first_divergence(const AlertsFile& a,
                                          const AlertsFile& b);

/// The wss.alerts/1 field lists (telemetry/artifact.hpp).
void describe(artifact::Io& io, AlertInput& in);
void describe(artifact::Io& io, HealthAlert& a);
void describe(artifact::Io& io, AlertsFile& a);

/// One-line alert summary used by list mode, the diff, and postmortem
/// anomaly details.
[[nodiscard]] std::string summarize_alert(const HealthAlert& a);

/// Full rendering of an alerts file (show mode): every alert with its
/// rule inputs.
[[nodiscard]] std::string pretty_alerts(const AlertsFile& a);

/// The wss_top pane: evaluate a loaded series on the fly and render a
/// compact health section ("health: ok ..." when nothing fired).
[[nodiscard]] std::string pretty_health_pane(const TimeSeries& ts,
                                             const HealthConfig& cfg);

} // namespace wss::telemetry
