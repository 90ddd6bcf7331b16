#pragma once

// The fabric: a 2D array of tiles (core + router), stepped cycle by cycle.
// Each cycle has three deterministic phases:
//   1. route  — words in input latches are forwarded per the routing rules
//               (multicast fanout happens here, with backpressure),
//   2. core   — every core runs one datapath/scheduler cycle and may inject,
//   3. link   — each output link moves one word into the neighbor's latch.
// This yields one-word-per-link-per-cycle bandwidth and ~1 cycle/hop
// latency, the paper's stated fabric characteristics.
//
// The fabric is dataflow-driven, so each phase is written once as an
// occupancy-indexed loop (docs/BACKENDS.md): the route and link phases
// visit only virtual channels that hold flits, and cores in the absorbing
// idle state are parked. The reference backend is the same code
// instantiated to scan every tile, every color and every core — the
// conformance oracle for the fast instantiation.
//
// Host-side parallelism: within each phase, every tile reads only its own
// state plus queues it uniquely owns (the link phase writes a neighbor's
// per-direction input queue, which no other tile — including the neighbor
// itself — touches during that phase), so the phases are data-parallel over
// tiles. step() shards the grid into contiguous row bands across a
// persistent thread pool with a barrier between phases; fabric-global
// counters are accumulated per band and reduced in band order, and tracer
// events are staged per band and merged in band order, so a parallel run is
// bit-identical to a serial one for any thread count (the determinism
// contract in docs/SIMULATOR.md, enforced by
// tests/wse/parallel_conformance_test.cpp).

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "wse/core.hpp"
#include "wse/fault.hpp"
#include "wse/sim_pool.hpp"

namespace wss::telemetry {
class Profiler;          // telemetry/profiler.hpp (header-only surface)
class FlightRecorder;    // telemetry/flightrec.hpp (header-only surface)
class TimeSeriesSampler; // telemetry/timeseries.hpp (header-only surface)
struct TimeSeriesSample;
class NetMonitor;        // telemetry/netmon.hpp (header-only surface)
}

namespace wss::wse {

struct FabricStats {
  std::uint64_t cycles = 0;
  std::uint64_t link_transfers = 0;

  [[nodiscard]] double seconds(const CS1Params& arch) const {
    return static_cast<double>(cycles) / arch.clock_hz;
  }
};

/// Host-side counters of the occupancy-indexed loop: how it ran, never what
/// it simulated (simulated results are backend-invariant). They advance only
/// on turbo steps and are bit-identical at any thread count.
struct TurboStats {
  /// Entries onto the fast loop: the first turbo step, and the first turbo
  /// step after any reference step (a set_backend switch).
  std::uint64_t promotions = 0;
  /// Always 0: observers and fault plans run on the fast loop, so nothing
  /// demotes it. Kept so existing readers of the counter keep working.
  std::uint64_t demotions = 0;
  /// Cycles stepped by the fast loop.
  std::uint64_t turbo_cycles = 0;
  /// Core steps satisfied by parking (one per parked tile per turbo cycle).
  std::uint64_t parked_tile_cycles = 0;
  /// Backpressure events in the route phase: a flit held in its virtual
  /// channel because a forward queue or ramp was full.
  std::uint64_t contended_tile_cycles = 0;
};

/// Why Fabric::run returned, with the forensics a deadlock investigation
/// needs. run() used to return a bare cycle count, losing the reason —
/// a deadlocked fabric and a finished one looked identical to the caller.
struct StopInfo {
  enum class Reason : std::uint8_t {
    AllDone = 0,   ///< every tile raised its done flag
    Quiescent = 1, ///< nothing left in flight (but not all done: stuck)
    MaxCycles = 2, ///< the cycle budget elapsed
    Watchdog = 3,  ///< the no-progress watchdog fired (see set_watchdog)
  };
  Reason reason = Reason::MaxCycles;
  /// Cycles executed by this run() call.
  std::uint64_t cycles = 0;
  /// True when the fabric stopped with unfinished work it can (Watchdog,
  /// Quiescent) or may (stalled at MaxCycles) never finish.
  bool deadlock = false;
  /// Cycles since the last observed progress (watchdog stops only).
  std::uint64_t stalled_cycles = 0;
  /// Tiles with unfinished work at stop time, row-major, capped at
  /// kMaxBlockedTiles (deadlock stops only).
  std::vector<std::pair<int, int>> blocked_tiles;
  /// Human-readable watchdog report: per-tile debug_state() of the first
  /// blocked tiles (deadlock stops only).
  std::string report;

  [[nodiscard]] static const char* to_string(Reason r) {
    switch (r) {
      case Reason::AllDone: return "all_done";
      case Reason::Quiescent: return "quiescent";
      case Reason::MaxCycles: return "max_cycles";
      case Reason::Watchdog: return "watchdog";
    }
    return "?";
  }
};

class Fabric {
public:
  Fabric(int width, int height, const CS1Params& arch, const SimParams& sim);
  ~Fabric();
  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;
  Fabric(Fabric&&) noexcept = default;
  Fabric& operator=(Fabric&&) noexcept = default;

  /// Install a tile's program and routing table. Must be called for every
  /// tile before running. Coordinates: x east, y south. The program is
  /// interned: a tile whose program equals one installed before shares
  /// that tile's read-only TileCode (validated once, when first seen; see
  /// TileCode for what it rejects).
  void configure_tile(int x, int y, TileProgram program, RoutingTable routes);

  /// Distinct programs installed so far (TileCode objects interned).
  [[nodiscard]] std::size_t distinct_programs() const { return codes_.size(); }

  [[nodiscard]] TileCore& core(int x, int y) {
    return *tiles_[tile_index(x, y)].core;
  }
  [[nodiscard]] const TileCore& core(int x, int y) const {
    return *tiles_[tile_index(x, y)].core;
  }
  /// True once configure_tile was called for (x, y).
  [[nodiscard]] bool has_core(int x, int y) const {
    return tiles_[tile_index(x, y)].core != nullptr;
  }
  /// Per-router activity counters (telemetry heatmaps).
  [[nodiscard]] const RouterStats& router_stats(int x, int y) const {
    return tiles_[tile_index(x, y)].router.stats;
  }
  /// Full router-side state of tile (x, y) — read-only introspection for
  /// the post-mortem wait-for graph (queue occupancy + routing rules).
  [[nodiscard]] const RouterState& router_state(int x, int y) const {
    return tiles_[tile_index(x, y)].router;
  }

  /// Advance one cycle.
  void step();

  /// Run until every tile raised its done flag, the whole fabric went
  /// quiescent, the no-progress watchdog fired (see set_watchdog), or
  /// `max_cycles` elapsed. The StopInfo says which, with blocked-tile
  /// forensics attached on deadlock stops.
  StopInfo run(std::uint64_t max_cycles);

  [[nodiscard]] bool all_done() const;
  [[nodiscard]] bool quiescent() const;
  [[nodiscard]] const FabricStats& stats() const { return stats_; }
  [[nodiscard]] const SimParams& sim_params() const { return sim_; }
  [[nodiscard]] int width() const { return width_; }
  [[nodiscard]] int height() const { return height_; }

  /// Reset per-run control state (descriptors, tasks, router and ramp
  /// queues, arbiters) on every tile so the loaded data can be reused for
  /// another kernel invocation, which then runs exactly as on a fresh
  /// fabric. Memory contents and the cumulative core and router stats
  /// persist.
  void reset_control();

  /// Attach an execution tracer to every configured tile (nullptr
  /// detaches). Use Tracer::focus to limit recording to one tile. When the
  /// fabric steps in parallel, core events are staged into per-band
  /// buffers and merged into `tracer` in serial (row-major) order at the
  /// end of each core phase, so the recorded stream — including capacity
  /// drops — is bit-identical to a serial run.
  void set_tracer(Tracer* tracer);

  /// Override the host-side simulation thread count (see
  /// SimParams::sim_threads). Clamped to [1, 256]; bands never exceed the
  /// fabric height. Any value produces bit-identical results.
  void set_threads(int threads);
  [[nodiscard]] int threads() const { return threads_; }

  /// Attach a cycle-attribution profiler (nullptr detaches; see
  /// docs/PROFILING.md). The profiler must outlive its attachment and
  /// match the fabric dimensions (std::invalid_argument otherwise). With
  /// none attached the hooks are a null-pointer test per tile per phase.
  /// All recording writes tile-owned state from the band that owns the
  /// tile, so — like counters and traces — profiles are bit-identical at
  /// any thread count.
  void set_profiler(telemetry::Profiler* profiler);
  [[nodiscard]] telemetry::Profiler* profiler() const { return profiler_; }

  /// Attach a black-box flight recorder (nullptr detaches; see
  /// docs/POSTMORTEM.md). The recorder must outlive its attachment and
  /// match the fabric dimensions (std::invalid_argument otherwise). With
  /// none attached the taps are a null-pointer test; with one attached the
  /// simulation is still bit-identical — recording only observes, and all
  /// writes are tile-owned under the banded determinism contract, so rings
  /// are bit-identical at any thread count too.
  void set_flight_recorder(telemetry::FlightRecorder* rec);
  [[nodiscard]] telemetry::FlightRecorder* flight_recorder() const {
    return flightrec_;
  }

  /// Attach a time-series sampler (nullptr detaches; see
  /// docs/TIMESERIES.md). The sampler must outlive its attachment.
  /// Attaching captures the delta baseline at the current cycle, so frames
  /// cover activity since attachment. Every sample is collected in the
  /// serial tail of step(), after all row bands merged — frames are
  /// bit-identical at any thread count, and collection only reads
  /// simulated state (non-perturbation proven by
  /// tests/telemetry/timeseries_test.cpp).
  void set_sampler(telemetry::TimeSeriesSampler* sampler);
  [[nodiscard]] telemetry::TimeSeriesSampler* sampler() const {
    return sampler_;
  }
  /// Force one frame at the current cycle, closing the final partial
  /// window — without this, runs shorter than the interval (or whose
  /// length is not a multiple of it) would lose their tail and the
  /// summed-deltas == profiler-totals invariant would not hold. No-op
  /// when no sampler is attached or no cycles elapsed since the last
  /// frame.
  void sample_now();

  /// Attach a network monitor (nullptr detaches; see docs/NETWORK.md).
  /// The monitor must outlive its attachment; set its flow table first.
  /// Attaching sizes the counter planes and captures the observation
  /// baseline at the current cycle, and snapshots the declared flow names
  /// into any attached sampler (set_sampler does the same in the other
  /// attach order). Recording happens in the link phase, every counter
  /// cell owned by the source tile's band, and the per-flow rollup joins
  /// samples in the serial tail — so netflow streams are bit-identical at
  /// any thread count, and recording only observes (non-perturbation
  /// proven by tests/telemetry/netmon_test.cpp).
  void set_net_monitor(telemetry::NetMonitor* monitor);
  [[nodiscard]] telemetry::NetMonitor* net_monitor() const { return netmon_; }

  /// No-progress watchdog: when nonzero, run() samples a monotone
  /// progress signature (instructions retired, words moved, tasks started)
  /// every `cycles` cycles and stops with StopInfo::Reason::Watchdog once
  /// a full window passes with no change — a routing deadlock or a wedged
  /// task tree can then be examined instead of burning the whole cycle
  /// budget. 0 disables (the default; SimParams::watchdog_cycles or
  /// WSS_WATCHDOG_CYCLES seed the initial value). Observation only: the
  /// watchdog never changes simulated state, just when run() returns.
  void set_watchdog(std::uint64_t cycles) { watchdog_cycles_ = cycles; }
  [[nodiscard]] std::uint64_t watchdog() const { return watchdog_cycles_; }

  /// Select the execution backend (docs/BACKENDS.md). Backend::Auto is
  /// resolved against WSS_SIM_BACKEND at call time (the constructor applies
  /// SimParams::backend the same way). A backend is a host execution
  /// strategy only: switching never changes simulated results — the
  /// conformance suite holds turbo bit-identical to reference for results,
  /// cycles, heatmaps, counters and observer outputs at any thread count.
  /// Both backends keep the per-tile flags exact, so switching mid-run is
  /// free. Composes with set_threads: both step the same row bands.
  void set_backend(Backend backend);
  [[nodiscard]] Backend backend() const { return backend_; }
  /// True when step() takes the occupancy-indexed loop, i.e. turbo is
  /// selected. Observers, the watchdog and fault plans run on that loop,
  /// so attaching them does not change this.
  [[nodiscard]] bool turbo_active() const { return backend_ == Backend::Turbo; }
  /// Fast-loop bookkeeping counters (zeros until the first turbo step).
  [[nodiscard]] TurboStats turbo_stats() const { return turbo_stats_; }

  /// Tiles with unfinished work right now (row-major, capped at `cap`):
  /// active-but-stalled tiles first; if none, not-done quiescent tiles
  /// (wedged waiting for an activation that will never come).
  [[nodiscard]] std::vector<std::pair<int, int>> blocked_tiles(
      std::size_t cap = kMaxBlockedTiles) const;

  static constexpr std::size_t kMaxBlockedTiles = 256;

  // --- seeded fault injection (docs/ROBUSTNESS.md) ---

  /// Attach a deterministic fault plan (nullptr detaches). The plan must
  /// outlive its attachment and its coordinates must be in bounds
  /// (std::invalid_argument otherwise). With no plan attached the fault
  /// hooks are a single null-pointer test per phase band — zero cost
  /// (bench_fault_overhead proves it); an attached *empty* plan changes
  /// nothing about the simulated behaviour. Accumulated fault stats and
  /// the event log survive detachment.
  void set_fault_plan(const FaultPlan* plan);
  [[nodiscard]] bool has_fault_plan() const { return faults_ != nullptr; }
  [[nodiscard]] const FaultStats& fault_stats() const { return fault_stats_; }
  /// Bounded band-order-deterministic log of injected faults.
  [[nodiscard]] const std::vector<FaultEvent>& fault_log() const {
    return fault_log_;
  }
  [[nodiscard]] std::size_t fault_log_dropped() const {
    return fault_log_dropped_;
  }
  /// Injected-fault count at tile (x, y) — the telemetry heatmap source.
  [[nodiscard]] std::uint64_t fault_injections(int x, int y) const;

private:
  struct Tile {
    std::unique_ptr<TileCore> core;
    RouterState router;
  };

  [[nodiscard]] std::size_t tile_index(int x, int y) const {
    return static_cast<std::size_t>(y) * static_cast<std::size_t>(width_) +
           static_cast<std::size_t>(x);
  }
  [[nodiscard]] bool in_bounds(int x, int y) const {
    return x >= 0 && x < width_ && y >= 0 && y < height_;
  }

  // One cycle, and its per-phase row-band workers. kScanAll selects the
  // reference oracle: visit every tile, scan colors 0..23 and fully step
  // every core, never skipping work on the strength of a flag. Otherwise
  // the phases skip provably empty work: unconfigured tiles, tiles with
  // nothing queued, empty colors and parked cores. Each worker operates on
  // rows [y0, y1); `band` indexes the per-band staging (fault events,
  // TurboStats counters). The link phase returns its transfer count so the
  // global counter is reduced deterministically at the barrier.
  template <bool kScanAll> void step_phases();
  template <bool kScanAll> void route_phase(int y0, int y1, int band);
  template <bool kScanAll>
  void core_phase(int y0, int y1, Tracer* tracer, int band);
  template <bool kScanAll>
  [[nodiscard]] std::uint64_t link_phase(int y0, int y1, int band);

  /// Recompute every flag of tile `i` from its state (configure_tile,
  /// reset_control).
  void refresh_flags(std::size_t i);

  /// Bands actually used this step: min(threads_, height_), at least 1.
  [[nodiscard]] int band_count() const;
  /// Row range [first, last) of `band` out of `bands` (contiguous,
  /// balanced to within one row).
  [[nodiscard]] std::pair<int, int> band_rows(int band, int bands) const;
  void ensure_pool(int bands);
  void merge_staged_trace_events();
  /// Fill a cumulative fabric-wide sample (row-major aggregation over
  /// tiles). Called only from serial code (step() tail, sample_now).
  void collect_sample(telemetry::TimeSeriesSample* out) const;

  /// The shared TileCode equal to `program`, made on first sight.
  std::shared_ptr<const TileCode> intern(TileProgram program);

  int width_;
  int height_;
  CS1Params arch_;
  SimParams sim_;
  std::vector<Tile> tiles_;
  /// Interned programs by hash_program (equality decides on a hit).
  std::unordered_multimap<std::size_t, std::shared_ptr<const TileCode>> codes_;
  FabricStats stats_;

  // Host-side parallel stepping (no effect on simulated behaviour).
  int threads_ = 1;
  std::unique_ptr<SimThreadPool> pool_;
  Tracer* user_tracer_ = nullptr;
  telemetry::Profiler* profiler_ = nullptr;
  telemetry::FlightRecorder* flightrec_ = nullptr;
  telemetry::TimeSeriesSampler* sampler_ = nullptr;
  telemetry::NetMonitor* netmon_ = nullptr;
  std::uint64_t watchdog_cycles_ = 0;
  std::vector<std::unique_ptr<Tracer>> trace_staging_; ///< one per band
  std::vector<std::uint64_t> band_link_transfers_;

  /// Monotone counter over everything that constitutes forward progress
  /// (instructions, deliveries, task starts, link movement). Read-only —
  /// the watchdog compares snapshots without touching simulated state.
  [[nodiscard]] std::uint64_t progress_signature() const;

  // --- fault injection (allocated only while a plan is attached) ---

  /// Per-tile compiled view of the plan plus per-link ordinal counters.
  /// All of it is owned by the tile's row band: the route/core hooks read
  /// the tile's own entry, and the link hooks advance the *source* tile's
  /// ordinals — exactly the ownership the banded determinism contract
  /// already guarantees for router queues.
  struct TileFaults {
    std::vector<LinkFault> links[4];  ///< faults on each outgoing dir
    std::vector<std::pair<std::uint64_t, std::uint64_t>> stall_windows;
    std::uint64_t dead_from = kFaultForever;
    std::uint64_t link_ordinal[4] = {0, 0, 0, 0};
  };
  struct FaultState {
    const FaultPlan* plan = nullptr;
    std::vector<TileFaults> tiles;
    // Staged per band during a step, merged in band order afterwards.
    std::vector<FaultStats> band_stats;
    std::vector<std::vector<FaultEvent>> band_events;
  };

  /// True if the tile at (x, y) is inside a router-stall window.
  [[nodiscard]] bool router_stalled(const TileFaults& tf,
                                    std::uint64_t cycle) const;
  /// Append `ev` to `band`'s staging buffer (serial: band 0).
  void stage_fault_event(int band, const FaultEvent& ev);
  /// Reduce per-band fault stats/events into the fabric-global log, in
  /// band order, emitting tracer events when a tracer is attached.
  void merge_fault_bands(int bands);

  static constexpr std::size_t kFaultLogCapacity = 4096;

  std::unique_ptr<FaultState> faults_;
  FaultStats fault_stats_;
  std::vector<FaultEvent> fault_log_;
  std::size_t fault_log_dropped_ = 0;
  /// Per-tile injected-fault counts (lazily sized width*height on first
  /// plan attach; like fault_stats_, survives plan detachment).
  std::vector<std::uint64_t> fault_injections_;

  // --- per-tile flags (docs/BACKENDS.md) ---

  /// Dense per-tile facts the fast phases test before touching a tile (the
  /// Tile array has a multi-KB stride, so loads through it are cache
  /// misses). Both backends keep every flag exact, the way the RouterState
  /// occupancy masks are kept exact.
  struct TileFlags {
    explicit TileFlags(std::size_t tiles)
        : configured(tiles, 0), parked(tiles, 0), done(tiles, 0),
          link_pending(tiles, 0),
          route_pending(
              std::make_unique<std::atomic<std::uint8_t>[]>(tiles)) {}
    std::vector<std::uint8_t> configured; ///< tile has a core
    /// The core is in the absorbing idle state (TileCore::quiescent()):
    /// it cannot wake itself, only a delivery or reset_control wakes it.
    std::vector<std::uint8_t> parked;
    std::vector<std::uint8_t> done;         ///< core's done flag
    std::vector<std::uint8_t> link_pending; ///< any out_queue holds a flit
    /// Any in_queue holds a flit. Atomic (relaxed) because during the link
    /// phase several source tiles — possibly in different row bands — mark
    /// the same destination tile; all writers store 1, so ordering is
    /// irrelevant, but the bytes must not race.
    std::unique_ptr<std::atomic<std::uint8_t>[]> route_pending;
  };
  TileFlags flags_;

  /// Per-band TurboStats staging, reduced in band order after each turbo
  /// step so the counters are bit-identical at any thread count.
  struct BandCounters {
    std::uint64_t parked = 0;
    std::uint64_t contended = 0;
  };
  std::vector<BandCounters> band_counters_;
  TurboStats turbo_stats_;
  bool last_step_turbo_ = false; ///< counts TurboStats::promotions

  Backend backend_ = Backend::Turbo;
};

} // namespace wss::wse
