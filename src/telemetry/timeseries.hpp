#pragma once

// Cycle-windowed time series for the fabric simulator (docs/TIMESERIES.md).
//
// End-of-run telemetry (metrics snapshots, profiler totals, post-mortem
// bundles) describes a run after it finished; the time series describes it
// *while it happens*. A TimeSeriesSampler attached via Fabric::set_sampler
// records, every K cycles (WSS_SAMPLE_CYCLES, default off), one compact
// frame: windowed deltas of the monotone activity counters (link
// transfers, router forwards, core instr/stall/idle cycles, words moved,
// faults) and of the profiler's phase x category matrix, plus
// instantaneous gauges (router queue occupancy, FIFO high-water marks,
// per-phase tile counts, iteration progress). Frames land in a bounded
// in-memory ring flushed to a versioned `wss.timeseries/1` JSON file that
// wss_top renders live and wss_inspect self-checks/diffs in CI.
//
// Determinism and non-perturbation: the fabric collects every sample from
// the *serial tail* of Fabric::step(), after all row bands have merged —
// the same quiescent point where stats_.cycles advances — so frames are
// bit-identical at any WSS_SIM_THREADS by construction, and collection
// only reads simulated state (tests/telemetry/timeseries_test.cpp proves
// result bits, cycle counts and heatmaps are identical sampler-on/off).
//
// Like profiler.hpp and flightrec.hpp, the recording surface is
// header-only on purpose: wss_wse does not link wss_telemetry, so
// fabric.cpp may include this header and call the inline recorder without
// creating a library cycle. Analysis (the artifact's field list, self-check,
// frame diffing, sparkline rendering) lives in timeseries.cpp inside
// wss_telemetry.

#include <array>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "telemetry/profiler.hpp"
#include "wse/types.hpp"

namespace wss::telemetry {

namespace artifact {
class Io; // telemetry/artifact.hpp
}
struct Divergence;   // telemetry/artifact.hpp
class ScalarHistory; // telemetry/postmortem.hpp

/// Timeseries schema identifier; bump on breaking layout changes.
inline constexpr const char* kTimeseriesSchema = "wss.timeseries/1";

/// Analytic-model expectations the health engine (docs/HEALTH.md) gates
/// frames against: expected cycles per tile per solver iteration for each
/// program phase. A phase left at 0 is ungated (e.g. Control, whose fixed
/// per-iteration overhead is too small a denominator for a robust relative
/// gate). Builders live in src/perfmodel/health_expectations.hpp —
/// wss_telemetry cannot link wss_perfmodel, so the model side constructs
/// this struct and hands it to TimeSeriesSampler::set_expectations; the
/// series JSON then carries it, making drift alerts computable from the
/// artifact alone (wss_top replay and --follow need no side channel).
struct HealthExpectations {
  std::string model; ///< provenance label, e.g. "cs1" or "stencilfe"
  std::array<double, wse::kNumProgPhases> phase_cycles{};

  /// True when at least one phase is gated.
  [[nodiscard]] bool any() const {
    for (double v : phase_cycles) {
      if (v > 0.0) return true;
    }
    return false;
  }

  [[nodiscard]] bool operator==(const HealthExpectations&) const = default;
};

/// Modeled traffic for one declared network flow: expected link-word
/// count per solver iteration / stencil generation. Builders live in
/// src/perfmodel/flow_expectations.hpp (same layering as
/// HealthExpectations above); TimeSeriesSampler::set_net_expectations
/// attaches them, the series JSON carries them, and the health engine's
/// flow_bandwidth_drift gate evaluates them offline (docs/NETWORK.md).
struct NetFlowExpectation {
  std::string flow;
  double words_per_iteration = 0.0; ///< <= 0 means ungated
  bool exact = false; ///< analytically exact (stencilfe legs) vs anchored

  [[nodiscard]] bool operator==(const NetFlowExpectation&) const = default;
};

/// Cumulative snapshot of fabric-wide counters and gauges, collected by
/// Fabric::step()'s serial tail (row-major aggregation over tiles). The
/// sampler turns consecutive snapshots into windowed frames.
struct TimeSeriesSample {
  std::uint64_t cycle = 0;
  int threads = 0;
  // Monotone cumulative counters (frame = delta vs the previous sample).
  std::uint64_t link_transfers = 0;
  std::uint64_t flits_forwarded = 0;
  std::uint64_t words_sent = 0;
  std::uint64_t words_received = 0;
  std::uint64_t instr_cycles = 0;
  std::uint64_t stall_cycles = 0;
  std::uint64_t idle_cycles = 0;
  std::uint64_t task_invocations = 0;
  std::uint64_t fault_total = 0;
  // Instantaneous gauges (frame copies them).
  std::uint64_t router_queued_flits = 0; ///< sum of queued flits, all tiles
  std::uint64_t router_queue_peak = 0;   ///< max queued flits on one tile
  std::uint64_t fifo_highwater = 0;      ///< max software-FIFO high-water
  std::uint64_t ramp_highwater = 0;      ///< max ramp-queue high-water
  std::uint64_t max_iteration = 0;       ///< max core iteration counter
  std::uint32_t done_tiles = 0;
  std::array<std::uint32_t, wse::kNumProgPhases> phase_tiles{};
  // Profiler phase/category cumulative totals (valid iff has_profiler).
  bool has_profiler = false;
  std::array<std::uint64_t, wse::kNumProgPhases> prof_phase{};
  std::array<std::uint64_t, kNumCycleCats> prof_cat{};
  // Network-observatory rollup (valid iff has_net; filled by an attached
  // telemetry::NetMonitor — see netmon.hpp). Vectors are index-aligned
  // with the monitor's declared flow names ([0] = "control").
  bool has_net = false;
  std::uint64_t net_cycles = 0; ///< cycles observed since monitor attach
  std::vector<std::uint64_t> flow_words;   ///< cumulative per flow
  std::vector<std::uint64_t> flow_blocked; ///< backpressure-blocked cycles
  std::array<std::uint64_t, 4> net_dir_words{}; ///< cumulative per mesh dir
  std::uint64_t net_peak_queue = 0; ///< max link backlog halfwords seen
  // Hottest link by cumulative words, and the most stall-attributed link
  // (first in row-major tile-then-dir scan order on ties).
  std::uint64_t net_hot_words = 0;
  std::int32_t net_hot_x = 0, net_hot_y = 0, net_hot_dir = 0;
  std::uint64_t net_stall_cycles = 0;
  std::int32_t net_stall_x = 0, net_stall_y = 0, net_stall_dir = 0;
};

/// One recorded frame: the window (cycle - window_cycles, cycle]. Counter
/// fields are windowed deltas; gauge fields are the values at `cycle`.
struct TimeSeriesFrame {
  std::uint64_t cycle = 0;
  std::uint64_t window_cycles = 0;
  std::uint64_t link_transfers = 0;
  std::uint64_t flits_forwarded = 0;
  std::uint64_t words_sent = 0;
  std::uint64_t words_received = 0;
  std::uint64_t instr_cycles = 0;
  std::uint64_t stall_cycles = 0;
  std::uint64_t idle_cycles = 0;
  std::uint64_t task_invocations = 0;
  std::uint64_t faults = 0;
  std::uint64_t router_queued_flits = 0;
  std::uint64_t router_queue_peak = 0;
  std::uint64_t fifo_highwater = 0;
  std::uint64_t ramp_highwater = 0;
  std::uint64_t max_iteration = 0;
  std::uint32_t done_tiles = 0;
  std::array<std::uint32_t, wse::kNumProgPhases> phase_tiles{};
  bool has_profiler = false;
  std::array<std::uint64_t, wse::kNumProgPhases> prof_phase{};
  std::array<std::uint64_t, kNumCycleCats> prof_cat{};
  // Network-observatory block (valid iff has_net): windowed per-flow /
  // per-direction word deltas plus cumulative hotspot gauges.
  bool has_net = false;
  std::uint64_t net_cycles = 0;
  std::vector<std::uint64_t> flow_words;
  std::vector<std::uint64_t> flow_blocked;
  std::array<std::uint64_t, 4> net_dir_words{};
  std::uint64_t net_peak_queue = 0;
  std::uint64_t net_hot_words = 0;
  std::int32_t net_hot_x = 0, net_hot_y = 0, net_hot_dir = 0;
  std::uint64_t net_stall_cycles = 0;
  std::int32_t net_stall_x = 0, net_stall_y = 0, net_stall_dir = 0;

  [[nodiscard]] bool operator==(const TimeSeriesFrame&) const = default;
};

/// The sampler: a bounded ring of frames fed by the fabric. Attach with
/// Fabric::set_sampler (which captures the delta baseline), let the fabric
/// tick it every `interval_cycles` cycles, and close the final partial
/// window with Fabric::sample_now() before flushing to disk.
class TimeSeriesSampler {
public:
  /// Frames retained before the ring drops the oldest. 2^16 frames at the
  /// minimum interval of 1 is ~9 MB; at realistic intervals the ring never
  /// wraps and frames_dropped() stays 0 (the conservation tests rely on
  /// that, and self-check only enforces delta/total agreement when it is).
  static constexpr std::size_t kDefaultCapacity = std::size_t{1} << 16;

  explicit TimeSeriesSampler(std::uint64_t interval_cycles,
                             std::size_t capacity = kDefaultCapacity)
      : interval_(interval_cycles), capacity_(capacity > 0 ? capacity : 1) {}

  // --- recording (inline; called by the fabric's serial tail) ---

  /// True when the fabric should collect a sample after finishing `cycle`
  /// cycles (called with the already-incremented stats_.cycles).
  [[nodiscard]] bool due(std::uint64_t cycle) const {
    return interval_ != 0 && cycle % interval_ == 0;
  }

  /// Capture the delta baseline at attach time. Frames record activity
  /// *since attachment*, so a profiler attached alongside the sampler sums
  /// exactly: sum over frames of prof deltas == profiler totals.
  void on_attach(int width, int height, const TimeSeriesSample& baseline) {
    width_ = width;
    height_ = height;
    prev_ = baseline;
    baseline_cycle_ = baseline.cycle;
    has_baseline_ = true;
  }

  /// Record one frame from a cumulative snapshot. Core, router and fault
  /// counters are cumulative (reset_control() leaves them alone), but a
  /// profiler swapped in mid-run restarts its totals from zero: a counter
  /// that shrank restarts the delta from the new cumulative value instead
  /// of underflowing.
  void record(const TimeSeriesSample& s) {
    const auto delta = [](std::uint64_t cur, std::uint64_t prev) {
      return cur >= prev ? cur - prev : cur;
    };
    TimeSeriesFrame f;
    f.cycle = s.cycle;
    f.window_cycles = delta(s.cycle, prev_.cycle);
    if (f.window_cycles == 0) return; // no cycles elapsed: nothing to frame
    f.link_transfers = delta(s.link_transfers, prev_.link_transfers);
    f.flits_forwarded = delta(s.flits_forwarded, prev_.flits_forwarded);
    f.words_sent = delta(s.words_sent, prev_.words_sent);
    f.words_received = delta(s.words_received, prev_.words_received);
    f.instr_cycles = delta(s.instr_cycles, prev_.instr_cycles);
    f.stall_cycles = delta(s.stall_cycles, prev_.stall_cycles);
    f.idle_cycles = delta(s.idle_cycles, prev_.idle_cycles);
    f.task_invocations = delta(s.task_invocations, prev_.task_invocations);
    f.faults = delta(s.fault_total, prev_.fault_total);
    f.router_queued_flits = s.router_queued_flits;
    f.router_queue_peak = s.router_queue_peak;
    f.fifo_highwater = s.fifo_highwater;
    f.ramp_highwater = s.ramp_highwater;
    f.max_iteration = s.max_iteration;
    f.done_tiles = s.done_tiles;
    f.phase_tiles = s.phase_tiles;
    f.has_profiler = s.has_profiler;
    if (s.has_profiler) {
      for (std::size_t p = 0; p < f.prof_phase.size(); ++p) {
        f.prof_phase[p] = delta(s.prof_phase[p], prev_.prof_phase[p]);
      }
      for (std::size_t c = 0; c < f.prof_cat.size(); ++c) {
        f.prof_cat[c] = delta(s.prof_cat[c], prev_.prof_cat[c]);
      }
    }
    f.has_net = s.has_net;
    if (s.has_net) {
      // A monitor attached mid-run makes the previous sample's vectors
      // shorter (or empty) — missing baseline entries delta from zero.
      const auto vec_prev = [](const std::vector<std::uint64_t>& prev,
                               std::size_t i) {
        return i < prev.size() ? prev[i] : std::uint64_t{0};
      };
      f.flow_words.resize(s.flow_words.size());
      for (std::size_t i = 0; i < s.flow_words.size(); ++i) {
        f.flow_words[i] = delta(s.flow_words[i], vec_prev(prev_.flow_words, i));
      }
      f.flow_blocked.resize(s.flow_blocked.size());
      for (std::size_t i = 0; i < s.flow_blocked.size(); ++i) {
        f.flow_blocked[i] =
            delta(s.flow_blocked[i], vec_prev(prev_.flow_blocked, i));
      }
      for (std::size_t d = 0; d < f.net_dir_words.size(); ++d) {
        f.net_dir_words[d] = delta(s.net_dir_words[d], prev_.net_dir_words[d]);
      }
      f.net_cycles = s.net_cycles;
      f.net_peak_queue = s.net_peak_queue;
      f.net_hot_words = s.net_hot_words;
      f.net_hot_x = s.net_hot_x;
      f.net_hot_y = s.net_hot_y;
      f.net_hot_dir = s.net_hot_dir;
      f.net_stall_cycles = s.net_stall_cycles;
      f.net_stall_x = s.net_stall_x;
      f.net_stall_y = s.net_stall_y;
      f.net_stall_dir = s.net_stall_dir;
    }
    prev_ = s;
    threads_ = s.threads;
    if (frames_.size() >= capacity_) {
      frames_.pop_front();
      ++dropped_;
    }
    frames_.push_back(f);
  }

  /// Cycle of the last recorded frame (the baseline cycle before any frame
  /// exists) — Fabric::sample_now() skips duplicate/empty closing frames.
  [[nodiscard]] std::uint64_t last_cycle() const {
    return frames_.empty() ? baseline_cycle_ : frames_.back().cycle;
  }

  // --- host-side configuration / inspection ---

  void set_program(std::string program) { program_ = std::move(program); }
  [[nodiscard]] const std::string& program() const { return program_; }
  /// Attach analytic-model expectations (perfmodel builders); flushed into
  /// the series JSON and consumed by the health engine's drift gate.
  void set_expectations(HealthExpectations e) {
    expectations_ = std::move(e);
    has_expectations_ = true;
  }
  [[nodiscard]] const HealthExpectations* expectations() const {
    return has_expectations_ ? &expectations_ : nullptr;
  }
  /// Declared network-flow names, index-aligned with the frames' net
  /// vectors (Fabric::set_net_monitor snapshots them from the monitor's
  /// flow table at attach time).
  void set_net_flows(std::vector<std::string> names) {
    net_flows_ = std::move(names);
  }
  [[nodiscard]] const std::vector<std::string>& net_flows() const {
    return net_flows_;
  }
  /// Attach per-flow traffic expectations (perfmodel builders); flushed
  /// into the series JSON and consumed by flow_bandwidth_drift.
  void set_net_expectations(std::vector<NetFlowExpectation> e) {
    net_expectations_ = std::move(e);
  }
  [[nodiscard]] const std::vector<NetFlowExpectation>& net_expectations()
      const {
    return net_expectations_;
  }
  [[nodiscard]] std::uint64_t interval() const { return interval_; }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] int width() const { return width_; }
  [[nodiscard]] int height() const { return height_; }
  [[nodiscard]] int threads() const { return threads_; }
  [[nodiscard]] bool attached_once() const { return has_baseline_; }
  [[nodiscard]] std::uint64_t frames_dropped() const { return dropped_; }
  [[nodiscard]] const std::deque<TimeSeriesFrame>& frames() const {
    return frames_;
  }

  /// Drop every frame and the dropped count; the baseline survives, so
  /// recording can continue for a fresh window set.
  void clear() {
    frames_.clear();
    dropped_ = 0;
  }

private:
  std::uint64_t interval_;
  std::size_t capacity_;
  std::string program_;
  int width_ = 0;
  int height_ = 0;
  int threads_ = 0;
  bool has_expectations_ = false;
  HealthExpectations expectations_;
  std::vector<std::string> net_flows_;
  std::vector<NetFlowExpectation> net_expectations_;
  bool has_baseline_ = false;
  std::uint64_t baseline_cycle_ = 0;
  TimeSeriesSample prev_;
  std::deque<TimeSeriesFrame> frames_;
  std::uint64_t dropped_ = 0;
};

// --- env knobs (timeseries.cpp; strict parse via common/env.hpp) --------

/// WSS_SAMPLE_CYCLES: frame interval in cycles (0 = sampling off).
[[nodiscard]] std::uint64_t sample_cycles();

/// WSS_TIMESERIES_OUT: output file for the flushed series ("" = unset).
[[nodiscard]] std::string timeseries_out();

// --- flushing / loading / analysis (timeseries.cpp) ---------------------

/// Host-side solver scalar to correlate with the cycle windows (residual,
/// rho, omega per iteration — the ScalarHistory's ScalarSample).
struct TimeSeriesScalar {
  std::uint64_t iteration = 0;
  std::string name;
  double value = 0.0;
};

/// A loaded `wss.timeseries/1` file.
struct TimeSeries {
  std::string schema;
  std::string program;
  int width = 0, height = 0, threads = 0;
  std::uint64_t sample_cycles = 0;
  std::uint64_t frames_dropped = 0;
  std::vector<TimeSeriesFrame> frames;
  bool has_scalars = false; ///< a solver scalar history was attached
  std::vector<TimeSeriesScalar> scalars;
  std::uint64_t scalars_dropped = 0;
  bool has_expectations = false;
  HealthExpectations expectations;
  /// Network-observatory sidecar (empty when no NetMonitor was attached):
  /// declared flow names aligned with the frames' net vectors, plus any
  /// per-flow traffic expectations.
  std::vector<std::string> net_flows;
  std::vector<NetFlowExpectation> net_expectations;
};

/// In-memory snapshot of a live sampler (+ optional solver scalars) in the
/// loaded-series shape, so the health engine evaluates identical inputs
/// whether fed from a running fabric or a flushed artifact.
[[nodiscard]] TimeSeries snapshot_timeseries(const TimeSeriesSampler& sampler,
                                             const ScalarHistory* scalars);

/// Write snapshot_timeseries(sampler, scalars) to `path` (parent
/// directories created). Returns false + `*error` on I/O failure.
bool write_timeseries(const std::string& path, const TimeSeriesSampler& sampler,
                      const ScalarHistory* scalars = nullptr,
                      std::string* error = nullptr);

/// Parse a series file. Returns false + `*error` (with context) on
/// unreadable files, JSON errors, schema mismatch, or a bad field.
bool load_timeseries(const std::string& path, TimeSeries* out,
                     std::string* error = nullptr);

/// Schema guard for CI: schema tag, chronological frames, positive
/// windows, per-frame profiler phase/category conservation, tile-count
/// bounds. Returns false + `*error` on drift.
bool self_check_timeseries(const TimeSeries& ts, std::string* error = nullptr);

/// First divergent frame between two series of the same program: the
/// earliest frame index at which the two disagree (pretty_divergence
/// renders it).
[[nodiscard]] Divergence first_divergence(const TimeSeries& a,
                                          const TimeSeries& b);

/// One-line frame summary used by the diff and the print mode.
[[nodiscard]] std::string summarize_frame(const TimeSeriesFrame& f);

/// ASCII sparkline of `values` resampled to `width` columns (ramp
/// " .:-=+*#%@", scaled to the series max; empty input -> all blanks).
[[nodiscard]] std::string sparkline(const std::vector<double>& values,
                                    std::size_t width);

/// Terminal rendering: header plus per-category utilization, per-phase
/// throughput, queue/FIFO pressure, fault activity and residual
/// convergence sparklines, ending with a table of the last `last_k`
/// frames. Shared by wss_top (replay + follow) and wss_inspect.
[[nodiscard]] std::string pretty_timeseries(const TimeSeries& ts,
                                            std::size_t last_k = 8);

/// The wss.timeseries/1 field lists (telemetry/artifact.hpp). The frame
/// and scalar lists are shared with the post-mortem bundle, which embeds
/// the tail of the active series.
void describe(artifact::Io& io, TimeSeriesFrame& f);
void describe(artifact::Io& io, TimeSeriesScalar& s);
void describe(artifact::Io& io, TimeSeries& ts);

} // namespace wss::telemetry
