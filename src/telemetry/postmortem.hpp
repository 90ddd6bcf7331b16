#pragma once

// Post-mortem forensics (docs/POSTMORTEM.md): when a run goes wrong —
// deadlock watchdog, NaN/Inf solver scalar, breakdown restart, fault
// storm — snapshot everything an investigation needs into one versioned
// JSON bundle:
//
//   * the flight-recorder rings (last events per tile, flightrec.hpp),
//   * a blocked-task wait-for graph: tile -> awaited color/FIFO ->
//     upstream tile, with cycle detection that names deadlock loops in
//     fabric (Fig. 5) coordinates,
//   * the per-tile heatmap counters and profiler category layers,
//   * solver scalar history (rho/alpha/omega/residual per iteration),
//   * the fault-injection stats and event log when a plan was attached.
//
// Bundles are written under $WSS_POSTMORTEM_DIR (or an explicit dir) and
// loaded back through one field list (telemetry/artifact.hpp) —
// `wss_inspect` pretty-prints one bundle or diffs two from runs of the
// same program to localize the first divergence (earliest differing
// cycle/tile/event triple), e.g. a fault-injected run against its clean
// twin.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "telemetry/flightrec.hpp"
#include "telemetry/heatmap.hpp"
#include "telemetry/netmon.hpp"
#include "telemetry/timeseries.hpp"
#include "wse/fault.hpp"

namespace wss::wse {
class Fabric;
struct StopInfo;
}

namespace wss::telemetry {

class Profiler;

/// Bundle schema identifier; bump on breaking layout changes.
inline constexpr const char* kPostmortemSchema = "wss.postmortem/1";

// --- anomaly triggers ---------------------------------------------------

struct AnomalyInfo {
  enum class Kind : std::uint8_t {
    Deadlock = 0,   ///< watchdog / quiescent-with-work stop
    NanScalar = 1,  ///< non-finite scalar observed by a solver probe
    Breakdown = 2,  ///< BiCGStab breakdown / restart (docs/ROBUSTNESS.md)
    FaultStorm = 3, ///< injected-fault count crossed WSS_FAULT_STORM
    Manual = 4,     ///< explicitly requested snapshot (e.g. a clean twin)
    Health = 5,     ///< critical health-engine alert (docs/HEALTH.md)
  };
  Kind kind = Kind::Manual;
  std::uint64_t cycle = 0; ///< fabric cycle (or iteration) at detection
  std::string detail;      ///< human-readable: what tripped, where
};

[[nodiscard]] const char* to_string(AnomalyInfo::Kind kind);

// --- solver scalar history ----------------------------------------------

/// Bounded history of named solver scalars (rho, alpha, omega, residual,
/// ...) per iteration — the "cycles leading up to the NaN" on the host
/// side. Null-tolerant recording mirrors SolverProbe: pass a nullptr and
/// every call is a pointer test. A sample is the series' scalar record.
using ScalarSample = TimeSeriesScalar;

class ScalarHistory {
public:
  static constexpr std::size_t kMaxSamples = 8192;

  void record(std::uint64_t iteration, std::string name, double value) {
    if (samples_.size() >= kMaxSamples) {
      ++dropped_;
      return;
    }
    samples_.push_back({iteration, std::move(name), value});
  }
  [[nodiscard]] const std::vector<ScalarSample>& samples() const {
    return samples_;
  }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }
  void clear() {
    samples_.clear();
    dropped_ = 0;
  }

private:
  std::vector<ScalarSample> samples_;
  std::uint64_t dropped_ = 0;
};

// --- wait-for graph -----------------------------------------------------

/// One blocked-on relation: tile `from` cannot progress until tile `to`
/// moves (color = the awaited virtual channel; -1 for non-color waits,
/// e.g. a self-edge on a full software FIFO).
struct WaitForEdge {
  int from_x = 0, from_y = 0;
  int to_x = 0, to_y = 0;
  int color = -1;
  std::string why;
};

struct WaitForCycle {
  std::vector<std::pair<int, int>> tiles; ///< loop order, first = entry
  std::string name; ///< "(0,0) --c2--> (1,0) --c1--> (0,0)"
};

struct WaitForGraph {
  std::vector<WaitForEdge> edges;
  std::vector<WaitForCycle> cycles; ///< deadlock loops, Fig. 5 coordinates
  /// Blocked tiles with no outgoing edge — the terminal suspects a stall
  /// chain drains into (e.g. a dead tile that stopped consuming).
  std::vector<std::pair<int, int>> terminals;
  /// Per blocked tile: current task / wait summary for the report.
  struct TileState {
    int x = 0, y = 0;
    std::string task;  ///< current task name ("-" when between tasks)
    std::string state; ///< TileCore::debug_state()
  };
  std::vector<TileState> blocked;
};

/// Build the wait-for graph of a (presumed stuck) fabric: read-only
/// introspection of core waits, routing rules and queue occupancy.
[[nodiscard]] WaitForGraph build_wait_for_graph(const wse::Fabric& fabric);

// --- bundle writing -----------------------------------------------------

/// Everything the writer may snapshot. Only `program` is required; every
/// pointer is optional (host-side solver anomalies have no fabric).
struct PostmortemInputs {
  const wse::Fabric* fabric = nullptr;
  const FlightRecorder* recorder = nullptr;
  const Profiler* profiler = nullptr;
  const ScalarHistory* scalars = nullptr;
  const wse::StopInfo* stop = nullptr;
  /// When set, the bundle embeds the tail of the active time series (last
  /// kPostmortemTimeseriesTail frames) — the lead-up trajectory, not just
  /// the final state.
  const TimeSeriesSampler* timeseries = nullptr;
  /// Program identity (name + shape), used by `wss_inspect diff` to check
  /// two bundles are comparable.
  std::string program;
};

/// Time-series frames a bundle retains (the trajectory leading up to the
/// anomaly; the full series lives in its own artifact).
inline constexpr std::size_t kPostmortemTimeseriesTail = 32;

struct Bundle;

/// Snapshot the inputs into the bundle the writer emits.
[[nodiscard]] Bundle snapshot_bundle(const AnomalyInfo& anomaly,
                                     const PostmortemInputs& in);

/// Write a bundle under `dir` (created if needed) as
/// `<dir>/postmortem_<kind>[ _2, _3, ...].json` (claim_output_stem keeps
/// bundles from clobbering each other in one process). Returns false +
/// `*error` on I/O failure; `*path_out` receives the path written.
bool write_postmortem(const std::string& dir, const AnomalyInfo& anomaly,
                      const PostmortemInputs& in,
                      std::string* path_out = nullptr,
                      std::string* error = nullptr);

/// $WSS_POSTMORTEM_DIR or "" (strict parse; see common/env.hpp).
[[nodiscard]] std::string postmortem_dir();

/// Write a bundle iff WSS_POSTMORTEM_DIR is set. Returns the path written
/// ("" when disabled); I/O failures are reported on stderr, not thrown —
/// forensics must never turn a diagnosed failure into a different one.
std::string maybe_write_postmortem(const AnomalyInfo& anomaly,
                                   const PostmortemInputs& in);

/// WSS_FAULT_STORM threshold (0 = disabled): total injected faults at or
/// above this count trigger a FaultStorm bundle even on a finished run.
[[nodiscard]] std::uint64_t fault_storm_threshold();

/// WSS_FLIGHTREC_DEPTH (default FlightRecorder::kDefaultDepth).
[[nodiscard]] std::size_t flightrec_depth();

/// Env-driven observability attachment shared by every fabric-owning
/// kernel simulation. Three independent env switches compose:
///  * WSS_POSTMORTEM_DIR: when set (and the fabric has no recorder
///    already), construct a FlightRecorder sized to the fabric (depth
///    WSS_FLIGHTREC_DEPTH) and attach it for the scope's lifetime;
///  * WSS_SAMPLE_CYCLES: when nonzero (and the fabric has no sampler
///    already), attach an owned TimeSeriesSampler and, at the end of the
///    run (finished() or deadlock()), close the final window and flush the
///    series to WSS_TIMESERIES_OUT (or `<ledger_dir>/<run_id>.timeseries.
///    json` when only the ledger is configured);
///  * WSS_LEDGER_DIR: when set, mint a run ID and append a RunManifest
///    (outcome, metrics, artifact paths) to the ledger at end of run.
/// Carries the two anomaly triggers every kernel shares:
///  * deadlock(): a failed run — writes a Deadlock bundle and returns the
///    error message enriched with the stop report and bundle path,
///  * finished(): a successful run — writes a FaultStorm bundle when the
///    injected-fault total crossed WSS_FAULT_STORM.
/// With all three unset this is inert (no recorder, no sampler, no
/// bundles, no ledger), and every attachment only observes
/// (flightrec.hpp, timeseries.hpp).
class RunForensics {
public:
  RunForensics(wse::Fabric& fabric, std::string program);
  ~RunForensics();
  RunForensics(const RunForensics&) = delete;
  RunForensics& operator=(const RunForensics&) = delete;

  /// The recorder observing the fabric (ours or a pre-attached one);
  /// nullptr when forensics are disabled.
  [[nodiscard]] FlightRecorder* recorder() const;

  /// The sampler observing the fabric (ours or a pre-attached one);
  /// nullptr when sampling is disabled.
  [[nodiscard]] TimeSeriesSampler* sampler() const;

  /// This run's ledger identity ("" when neither ledger nor sampler is
  /// active).
  [[nodiscard]] const std::string& run_id() const { return run_id_; }

  /// Optional host-side scalar history to embed in the flushed time
  /// series (rho/omega/residual per iteration). Must outlive this scope.
  void set_scalars(const ScalarHistory* scalars) { scalars_ = scalars; }

  /// Arm the network observatory (docs/NETWORK.md) for this run: attach
  /// an owned NetMonitor declared with the program's flow `table`, and
  /// carry the per-flow traffic `expectations` into the sampled series
  /// (the flow_bandwidth_drift gate). No-op unless WSS_NETFLOWS=1, and
  /// never displaces a monitor the caller attached directly. finalize()
  /// then writes the `wss.netflows/1` artifact next to the series (or to
  /// WSS_NETFLOWS_OUT) and records per-flow word metrics in the ledger.
  void set_net_flows(wse::FlowTable table,
                     std::vector<NetFlowExpectation> expectations = {});

  /// The monitor observing the fabric (ours or a pre-attached one);
  /// nullptr when netflow capture is disabled.
  [[nodiscard]] NetMonitor* net_monitor() const;

  /// Failed run: write a Deadlock bundle (if enabled), flush the time
  /// series, append the ledger entry, and return `what` enriched with the
  /// stop report (and bundle path when one was written).
  [[nodiscard]] std::string deadlock(const wse::StopInfo& stop,
                                     const std::string& what);

  /// Successful run: fault-storm trigger (see fault_storm_threshold),
  /// time-series flush and ledger append. Pass the StopInfo when you have
  /// it so the ledger records the real outcome ("finished" otherwise).
  void finished(const wse::StopInfo* stop = nullptr);

private:
  /// Close the sampling window, write the series artifact, append the
  /// ledger manifest. `outcome`/`deadlock` describe the run's end;
  /// `postmortem_path` links the bundle artifact when one was written.
  void finalize(const std::string& outcome, bool deadlock,
                const std::string& postmortem_path);

  wse::Fabric& fabric_;
  std::string program_;
  std::unique_ptr<FlightRecorder> owned_;
  bool attached_ = false;
  std::unique_ptr<TimeSeriesSampler> owned_sampler_;
  bool sampler_attached_ = false;
  std::unique_ptr<NetMonitor> owned_netmon_;
  bool netmon_attached_ = false;
  std::vector<NetFlowExpectation> net_expectations_;
  std::string run_id_;
  const ScalarHistory* scalars_ = nullptr;
  bool finalized_ = false;
};

// --- bundle loading / inspection ----------------------------------------

struct BundleEvent {
  std::uint64_t cycle = 0;
  std::string kind;
  std::int64_t a = 0, b = 0, c = 0, d = 0;

  [[nodiscard]] bool operator==(const BundleEvent&) const = default;
  [[nodiscard]] std::string summary() const;
};

struct BundleTile {
  int x = 0, y = 0;
  std::uint64_t total = 0;
  std::uint64_t dropped = 0;
  std::vector<BundleEvent> events; ///< chronological
};

/// One fault-log entry of the bundle's fault summary.
struct BundleFault {
  std::uint64_t cycle = 0;
  int x = 0, y = 0;
  wse::Dir dir = wse::Dir::Ramp; ///< Ramp for non-link faults
  wse::FaultKind kind{};
};

/// A loaded (or to-be-written) `wss.postmortem/1` bundle. The has_* flags
/// record which optional blocks the file carries; the wait-for graph,
/// heatmaps and fault summary ride with the fabric block.
struct Bundle {
  std::string schema;
  std::string anomaly_kind;
  std::uint64_t anomaly_cycle = 0;
  std::string anomaly_detail;
  std::string program;
  bool has_fabric = false;
  int width = 0, height = 0;
  std::uint64_t cycles = 0;
  std::uint64_t link_transfers = 0;
  int threads = 0;
  // stop info (absent for host-side bundles)
  bool has_stop = false;
  std::string stop_reason;
  std::uint64_t stop_cycles = 0;
  bool deadlock = false;
  std::uint64_t stalled_cycles = 0;
  std::vector<std::pair<int, int>> blocked_tiles;
  std::string stop_report;
  // wait-for graph
  std::vector<WaitForEdge> wait_edges;
  std::vector<std::string> wait_cycles; ///< rendered names
  std::vector<std::pair<int, int>> wait_terminals;
  std::vector<WaitForGraph::TileState> wait_blocked;
  // flight rings
  bool has_flight = false;
  std::uint64_t flight_depth = 0;
  std::vector<BundleTile> tiles;
  // heatmaps
  std::vector<Heatmap> heatmaps;
  // the profiler's own JSON, verbatim ("" when no profiler was attached)
  std::string profiler_json;
  // scalar history
  bool has_scalars = false;
  std::vector<ScalarSample> scalars;
  std::uint64_t scalars_dropped = 0;
  // time-series tail (empty when no sampler was attached)
  bool has_timeseries = false;
  std::uint64_t ts_sample_cycles = 0;
  std::uint64_t ts_frames_total = 0; ///< frames the sampler held in all
  std::vector<TimeSeriesFrame> ts_frames; ///< last retained frames
  // fault summary (zero when no plan was attached)
  std::uint64_t fault_total = 0;
  wse::FaultStats fault_stats;
  std::uint64_t fault_log_dropped = 0;
  std::vector<BundleFault> fault_log;
};

/// Parse a bundle file. Returns false + `*error` (with context) on
/// unreadable files, JSON errors, schema mismatch, or a bad field.
bool load_bundle(const std::string& path, Bundle* out,
                 std::string* error = nullptr);

/// Terminal rendering: anomaly, stop reason, top blocked tiles, wait-for
/// cycles, last `last_k` events of the busiest/blocked tiles, scalars.
[[nodiscard]] std::string pretty_bundle(const Bundle& bundle,
                                        std::size_t last_k = 8);

/// First divergence between two bundles of the same program: the earliest
/// (cycle, tile, event) at which the recorded streams differ.
[[nodiscard]] Divergence first_divergence(const Bundle& a, const Bundle& b);

/// Schema guard for CI: checks the schema tag and the structural
/// invariants wss_inspect depends on. Returns false + `*error` on drift.
bool self_check_bundle(const Bundle& bundle, std::string* error = nullptr);

/// The wss.postmortem/1 field lists (telemetry/artifact.hpp).
void describe(artifact::Io& io, WaitForEdge& e);
void describe(artifact::Io& io, WaitForGraph::TileState& t);
void describe(artifact::Io& io, BundleEvent& e);
void describe(artifact::Io& io, BundleTile& t);
void describe(artifact::Io& io, Heatmap& h);
void describe(artifact::Io& io, BundleFault& f);
void describe(artifact::Io& io, Bundle& b);

} // namespace wss::telemetry
