#pragma once

// Architectural parameters of the CS-1 as the paper states them (Section II)
// plus the one quantity the paper never states outright — the clock. We
// calibrate it so the validated cycle model reproduces the measured
// 28.1 us/iteration at 600x595x1536: 24,580 cycles / 28.1 us = 0.875 GHz.
// Cross-checks: the AllReduce then takes 1.38 us (paper: under 1.5 us) and
// the achieved 0.86 PFLOPS is 32% of the wafer's fp16 peak (paper: "about
// one third"). Sensitivity is documented in EXPERIMENTS.md.

#include <cstdint>

namespace wss::wse {

struct CS1Params {
  // --- stated in the paper ---
  int fabric_x = 602;   ///< compute fabric of the experimental machine
  int fabric_y = 595;
  std::int64_t marketed_cores = 380'000;
  int tile_memory_bytes = 48 * 1024;            ///< 48 KB SRAM per tile
  std::int64_t total_memory_bytes = 18LL << 30; ///< ~18 GB on wafer
  int simd_fp16_width = 4;       ///< 4-way SIMD on 16-bit operands
  int fp16_flops_per_cycle = 8;  ///< "up to eight 16-bit fp ops per cycle"
  int mixed_fmac_per_cycle = 2;  ///< fp16 mul / fp32 add FMACs per cycle
  int fp32_fmac_per_cycle = 1;
  int mem_read_bytes_per_cycle = 16;
  int mem_write_bytes_per_cycle = 8;
  int fabric_inject_bytes_per_cycle = 16;
  int hop_latency_cycles = 1;    ///< nanosecond-per-hop class latency
  int num_thread_slots = 9;      ///< concurrent threads per core
  double system_power_kw = 20.0;

  // --- calibrated (see header comment) ---
  double clock_hz = 0.875e9;

  [[nodiscard]] std::int64_t fabric_tiles() const {
    return static_cast<std::int64_t>(fabric_x) * fabric_y;
  }

  /// Peak flops/s in the mixed mode the paper's headline uses: 2 FMACs =
  /// 4 flops per core per cycle.
  [[nodiscard]] double peak_mixed_flops(std::int64_t active_cores) const {
    return static_cast<double>(active_cores) * 2.0 * 2.0 * clock_hz;
  }

  /// Peak fp16 flops/s (SIMD-4 FMAC = 8 ops/cycle).
  [[nodiscard]] double peak_fp16_flops(std::int64_t active_cores) const {
    return static_cast<double>(active_cores) * fp16_flops_per_cycle * clock_hz;
  }
};

/// Host-side execution backend for the fabric simulator (docs/BACKENDS.md).
/// Both backends run the same phase code (src/wse/fabric.cpp), so a
/// backend is an execution strategy, never a semantics change: results,
/// cycle counts, heatmaps, counters and observer outputs are bit-identical,
/// enforced by tests/wse/backend_conformance_test.cpp.
///   Auto      — consult the WSS_SIM_BACKEND environment variable
///               ("reference" or "turbo"; default turbo),
///   Reference — the scan-all oracle: every tile, every color, every core
///               stepped in full each cycle,
///   Turbo     — the occupancy-indexed loop: router phases visit only
///               queues that hold flits and provably idle cores are parked,
///               with observers and fault plans attached or not.
enum class Backend : std::uint8_t { Auto = 0, Reference, Turbo };

/// 32-bit links: two packed fp16 words (or one fp32 word) per cycle.
inline constexpr int kLinkHalfwordsPerCycle = 2;
/// Per-virtual-channel router input queue: two link-cycles of halfwords.
inline constexpr int kInQueueHalfwords = 2 * kLinkHalfwordsPerCycle;
/// Storage capacities of the simulator's inline queue rings
/// (wse/inline_ring.hpp). SimParams depths must lie in [1, capacity];
/// Fabric and TileCore reject anything else at construction.
inline constexpr int kRouterQueueCapacity = 4; ///< per (output port, color)
inline constexpr int kRampQueueCapacity = 8;   ///< per local channel

/// Simulator microarchitecture knobs (queue depths etc.) — not performance
/// claims, just enough buffering to keep the pipelined dataflow smooth, as
/// the hardware's per-channel queues do.
struct SimParams {
  /// per (output port, color) queue, in [1, kRouterQueueCapacity]
  int router_queue_depth = kRouterQueueCapacity;
  /// per local channel at the core, in [1, kRampQueueCapacity]
  int ramp_queue_depth = kRampQueueCapacity;
  /// Host-side simulation parallelism (NOT a property of the modeled
  /// machine): worker threads Fabric::step() shards its row bands over.
  /// 0 = consult the WSS_SIM_THREADS environment variable (default 1 =
  /// serial). Any value yields bit-identical results — see
  /// docs/SIMULATOR.md "Parallel simulation".
  int sim_threads = 0;
  /// No-progress watchdog window in cycles for Fabric::run (see
  /// docs/POSTMORTEM.md). 0 = consult the WSS_WATCHDOG_CYCLES environment
  /// variable (default 0 = disabled). Observation only — never changes
  /// simulated behaviour, just when run() gives up on a stalled fabric.
  std::uint64_t watchdog_cycles = 0;
  /// Host-side execution backend (NOT a property of the modeled machine):
  /// Auto = consult WSS_SIM_BACKEND (default turbo). Any backend
  /// yields bit-identical results — see docs/BACKENDS.md.
  Backend backend = Backend::Auto;
};

} // namespace wss::wse
