#pragma once

// The tile core: 48 KB of halfword-addressed SRAM, a scalar register file,
// nine thread slots executing tensor instructions that share one datapath
// (one instruction advances per cycle, up to SIMD-4 fp16 elements), hardware
// FIFOs that activate tasks on push, and a task scheduler implementing the
// activate/block/unblock semantics of the paper's Listing 1.

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/fp16.hpp"
#include "wse/arch.hpp"
#include "wse/inline_ring.hpp"
#include "wse/program.hpp"
#include "wse/routing.hpp"
#include "wse/trace.hpp"

namespace wss::telemetry {
class FlightRecorder; // telemetry/flightrec.hpp (header-only recording)
}

namespace wss::wse {

/// Per-router activity counters (telemetry: the fabric heatmaps). Kept as
/// plain always-on increments — the same cost class as the CoreStats the
/// simulator has always maintained.
struct RouterStats {
  std::uint64_t flits_forwarded = 0;  ///< flits pushed into output queues
  std::uint64_t queue_highwater = 0;  ///< max output-queue occupancy seen
  /// Flits moved out over each mesh link (indexed by Dir N/S/E/W) — the
  /// per-direction link-transfer heatmap layers. Maintained identically by
  /// both backends' link phases (the conformance suite compares them), so
  /// the sum over directions and tiles equals FabricStats.link_transfers.
  std::array<std::uint64_t, 4> link_words = {0, 0, 0, 0};
};

/// Router output queue of one (mesh direction, color): at most
/// SimParams::router_queue_depth flits.
using RouterOutQueue = InlineRing<Flit, kRouterQueueCapacity>;
/// Router input (virtual-channel) queue of one (mesh direction, color): the
/// link phase admits a flit only if the queue's halfwords stay within
/// kInQueueHalfwords, so it never holds more flits than that.
using RouterInQueue = InlineRing<Flit, kInQueueHalfwords>;

/// Router-side state owned by the fabric but fed by the core on injection.
struct RouterState {
  /// Queue-occupancy masks, one bit per color per mesh direction: bit c of
  /// in_occ[d] (out_occ[d]) is set iff in_queues[d][c] (out_queues[d][c])
  /// holds at least one flit. Maintained unconditionally by every queue
  /// mutation site — a couple of ALU ops per flit, nothing per empty
  /// queue — so the masks are exact whichever backend is stepping, and the
  /// occupancy-indexed phases (docs/BACKENDS.md) iterate their set bits.
  /// Placed first so the per-tile skip test touches the leading cache
  /// lines of the tile only.
  std::array<std::uint32_t, 4> in_occ = {0, 0, 0, 0};
  std::array<std::uint32_t, 4> out_occ = {0, 0, 0, 0};

  RoutingTable table;
  RouterStats stats;
  /// Per outgoing mesh direction, per color: queued flits awaiting the link.
  std::array<std::array<RouterOutQueue, kNumColors>, 4> out_queues;
  /// Per-virtual-channel input queues per incoming mesh direction — the
  /// paper: "The router has hardware queues ... for each of a set of
  /// virtual channels, avoiding deadlock." Without per-color separation a
  /// blocked head flit of one color would head-of-line-block every other
  /// color on the link (which deadlocks two concurrent reduction trees).
  std::array<std::array<RouterInQueue, kNumColors>, 4> in_queues;
  /// Round-robin pointer per outgoing direction for color arbitration.
  std::array<int, 4> rr = {0, 0, 0, 0};

  [[nodiscard]] bool in_any() const {
    return (in_occ[0] | in_occ[1] | in_occ[2] | in_occ[3]) != 0;
  }
  [[nodiscard]] bool out_any() const {
    return (out_occ[0] | out_occ[1] | out_occ[2] | out_occ[3]) != 0;
  }
};

/// Occupancy-mask bookkeeping (see RouterState::in_occ): call occ_set after
/// pushing into an empty-or-not queue, occ_clear once a queue is observed
/// empty after popping.
inline void occ_set(std::uint32_t& mask, int color) {
  mask |= (1u << static_cast<unsigned>(color));
}
inline void occ_clear(std::uint32_t& mask, int color) {
  mask &= ~(1u << static_cast<unsigned>(color));
}

/// Per-core activity counters for validating the performance model.
/// Cumulative over the core's lifetime: reset_control() leaves them alone.
struct CoreStats {
  std::uint64_t instr_cycles = 0;   ///< cycles the datapath was busy
  std::uint64_t stall_cycles = 0;   ///< datapath had work but was blocked
  std::uint64_t idle_cycles = 0;
  std::uint64_t elements_processed = 0;
  std::uint64_t words_sent = 0;
  std::uint64_t words_received = 0;
  std::uint64_t task_invocations = 0;
  std::uint64_t fifo_highwater = 0;  ///< max software-FIFO occupancy
  std::uint64_t ramp_highwater = 0;  ///< max ramp-queue occupancy
};

/// What one core cycle amounted to, for the cycle-attribution profiler
/// (docs/PROFILING.md). Exactly one outcome per step():
///   Compute   — the datapath advanced an instruction,
///   StallSend — work present, blocked injecting into the fabric (router
///               out-queue / ramp backpressure, or a full software FIFO
///               behind a RecvMulToFifo — output backpressure either way),
///   StallRecv — work present, waiting on fabric words that have not
///               arrived (empty ramp queue),
///   StallOther— work present but neither port implicated (e.g. the only
///               occupied slot retired with zero work this cycle),
///   Idle      — no occupied thread slot.
/// StallSend takes precedence over StallRecv when both are present: an
/// outbound-blocked tile is the upstream cause, the starved ops its effect.
enum class StepOutcome : std::uint8_t {
  Idle = 0,
  Compute,
  StallSend,
  StallRecv,
  StallOther,
};

/// What an occupied thread slot is waiting on *right now* — the raw
/// material of the post-mortem wait-for graph (telemetry/postmortem.hpp).
/// Read-only introspection of the core's stalled ports:
///   RecvChannel — a receive op's ramp channel is dry: the tile waits on
///                 upstream wavelets of the colors routed to that channel,
///   SendColor   — a send op cannot inject color `id` (router out-queue /
///                 local ramp backpressure): the tile waits on downstream
///                 drain,
///   FifoFull    — a RecvMulToFifo is blocked on its own software FIFO
///                 (index `id`): the tile waits on its own drain task.
struct CoreWait {
  enum class Kind : std::uint8_t { RecvChannel, SendColor, FifoFull };
  Kind kind = Kind::RecvChannel;
  int id = 0;
};

/// The read-only half of an installed tile program: task bodies and names,
/// the start state of every descriptor and task flag, and the SRAM
/// footprint. It never changes while tiles run, so every tile whose program
/// is equal holds one shared copy (Fabric::configure_tile interns it); the
/// mutable half — descriptor positions and FIFO cursors, task flags — lives
/// in each TileCore.
struct TileCode {
  /// Validates `program` against `arch` and takes it over:
  ///   - std::runtime_error if memory_halfwords exceeds the SRAM;
  ///   - std::invalid_argument if a TensorDesc or FifoState addresses
  ///     halfwords outside [0, arch.tile_memory_bytes / 2);
  ///   - std::invalid_argument, naming the task and step, if an instruction
  ///     names a descriptor, FIFO, scalar register, thread slot or task that
  ///     does not exist, or can read or write a TensorDesc past its len
  ///     (an elementwise source shorter than dst, a dot's src2 shorter than
  ///     src1, a Send/RecvMulToFifo source or a RecvToMem/RecvAddTo dst
  ///     shorter than the fabric descriptor).
  TileCode(TileProgram program, const CS1Params& arch);

  TileProgram program;
  /// SRAM halfwords the program addresses: memory_halfwords or the end of
  /// the furthest descriptor extent, whichever is larger.
  int footprint = 0;
  /// Task bitsets, bit t of word t / 64 for task t: the __priority__
  /// tasks, and the flags a run starts with (initial_task is activated).
  std::vector<std::uint64_t> priority;
  std::vector<std::uint64_t> start_activated;
  std::vector<std::uint64_t> start_blocked;
};

/// Throw std::invalid_argument unless SimParams::router_queue_depth and
/// ramp_queue_depth lie in [1, capacity] of their rings (a depth of 0 would
/// deadlock every stream; one above capacity would overrun the ring).
void validate_queue_depths(const SimParams& sim);

class TileCore {
public:
  /// Local channel count: the color space plus a few loopback
  /// pseudo-channels.
  static constexpr int kNumLocalChannels = 32;

  /// Runs `code`, which other cores may share and which must have been
  /// built for the same `arch`. Validates the queue depths
  /// (validate_queue_depths); SRAM is allocated to the code's footprint
  /// only. `arch` is read here and not kept.
  TileCore(std::shared_ptr<const TileCode> code, const CS1Params& arch,
           const SimParams& sim);
  /// A core with a code object of its own: TileCode(program, arch) (which
  /// validates the program), then the constructor above.
  TileCore(TileProgram program, const CS1Params& arch, const SimParams& sim);

  /// Deliver a fabric word to a local channel queue; false => queue full,
  /// word must stay in the router (backpressure).
  bool try_deliver(int channel, std::uint32_t payload);

  /// True if a word could be delivered to `channel` right now.
  [[nodiscard]] bool can_deliver(int channel) const;

  /// Advance the core by one cycle. `router` is this tile's router, used
  /// for injection of outgoing words; `cycle` is the fabric's global cycle
  /// (for tracing). Returns the cycle's attribution outcome.
  StepOutcome step(RouterState& router, std::uint64_t cycle = 0);

  /// Attach an execution tracer (may be nullptr to detach). The core
  /// records task starts/ends, instruction completions, and stalls.
  void set_tracer(Tracer* tracer, int tile_x, int tile_y) {
    tracer_ = tracer;
    tile_x_ = tile_x;
    tile_y_ = tile_y;
  }

  /// Fabric coordinates, stamped onto injected flits as provenance for the
  /// critical-path analyzer. Set once by Fabric::configure_tile (set_tracer
  /// also sets them, for cores driven without a fabric).
  void set_position(int tile_x, int tile_y) {
    tile_x_ = tile_x;
    tile_y_ = tile_y;
  }

  /// Attach a flight recorder (nullptr detaches; docs/POSTMORTEM.md). The
  /// core records task state transitions, FIFO high-water advances, and
  /// phase/iteration marks into the recorder's per-tile ring. Recording is
  /// observe-only: attachment cannot change simulated behaviour.
  void set_flight_recorder(telemetry::FlightRecorder* rec) {
    flightrec_ = rec;
  }

  /// Sticky program phase (last SetPhase marker executed; Control before
  /// any marker) and iteration counter (MarkIteration steps seen) — the
  /// profiler's binning keys. Both reset with reset_control().
  [[nodiscard]] ProgPhase phase() const { return phase_; }
  [[nodiscard]] std::uint64_t iteration() const { return iteration_; }

  [[nodiscard]] bool done() const { return done_; }
  [[nodiscard]] bool quiescent() const;

  /// The parked equivalent of one step() on a quiescent core, for the
  /// occupancy-indexed loop (docs/BACKENDS.md). A quiescent core can never
  /// wake itself: the scheduler finds no ready task (deliveries only fill
  /// ramp queues, they never activate tasks) and no slot is occupied, so a
  /// full step() would be exactly `++idle_cycles`, with no tracer or
  /// flight-recorder event. This method IS that step — it must stay in
  /// lockstep with the Idle arm of step(), which the backend conformance
  /// suite enforces bit for bit.
  void step_parked() { ++stats_.idle_cycles; }
  [[nodiscard]] const CoreStats& stats() const { return stats_; }
  /// The shared read-only code this core runs (its descriptor tables hold
  /// start positions, not this core's live ones).
  [[nodiscard]] const TileCode& code() const { return *code_; }

  /// Task the scheduler is currently executing (kNoTask between tasks) and
  /// whether it is parked on a Sync step — post-mortem introspection.
  [[nodiscard]] TaskId current_task() const { return current_task_; }
  [[nodiscard]] bool waiting_sync() const { return waiting_sync_; }

  /// What every occupied thread slot is blocked on right now (empty when
  /// nothing is stalled). Read-only; feeds the post-mortem wait-for graph.
  [[nodiscard]] std::vector<CoreWait> waits() const;

  // --- host access for loading/unloading data (the host interface of a
  // real system; not part of the simulated cycle count). Addresses outside
  // the footprint throw std::out_of_range. ---
  void host_write_f16(int addr, fp16_t v) {
    check_host_addr(addr, 1);
    write_f16(addr, v);
  }
  [[nodiscard]] fp16_t host_read_f16(int addr) const {
    check_host_addr(addr, 1);
    return read_f16(addr);
  }
  void host_write_f32(int addr, float v);
  [[nodiscard]] float host_read_f32(int addr) const;
  void host_write_scalar(int reg, float v) { scalars_[static_cast<std::size_t>(reg)] = v; }
  [[nodiscard]] float host_read_scalar(int reg) const { return scalars_[static_cast<std::size_t>(reg)]; }

  /// SRAM halfwords allocated to this core: the program's footprint.
  [[nodiscard]] int memory_halfwords() const {
    return static_cast<int>(memory_.size());
  }

  /// Words waiting in the ramp queues, summed over all local channels.
  [[nodiscard]] std::size_t ramp_words() const;

  /// Reset all descriptor positions, task flags, ramp queues and the
  /// thread-slot arbiter so the same program can run again exactly as on a
  /// fresh core (the solver re-invokes SpMV every iteration). Memory
  /// contents and the cumulative CoreStats persist.
  void reset_control();

  /// One-line human-readable execution state (current task/step, occupied
  /// thread slots, nonempty ramp queues) — for debugging stalled fabrics.
  [[nodiscard]] std::string debug_state() const;

private:
  struct RunningInstr {
    const Instr* instr = nullptr; ///< a step of the shared code
    bool from_sync = false; ///< completing unblocks the owning task's steps
  };

  void check_host_addr(int addr, int halfwords) const;

  // memory access (descriptor extents are validated at construction)
  [[nodiscard]] fp16_t read_f16(int addr) const {
    return fp16_t::from_bits(memory_[static_cast<std::size_t>(addr)]);
  }
  void write_f16(int addr, fp16_t v) { memory_[static_cast<std::size_t>(addr)] = v.bits(); }
  [[nodiscard]] float read_f32(int addr) const;
  void write_f32(int addr, float v);

  [[nodiscard]] double read_elem(const TensorDesc& t, int i) const;
  void write_elem(const TensorDesc& t, int i, double v);

  void fire(TaskId task, TrigAction act);
  void complete_instr(int slot, RouterState& router);
  /// Advance instruction in `slot` by as many elements as this cycle
  /// allows. Returns true if any forward progress was made.
  bool advance(int slot, RouterState& router);
  bool inject(RouterState& router, Color color, std::uint32_t payload,
              bool wide);
  /// The task the scheduler starts next: the lowest-numbered ready
  /// (activated and not blocked) priority task, else the lowest-numbered
  /// ready task, else kNoTask.
  [[nodiscard]] TaskId pick_task() const;
  void run_scheduler();

  std::shared_ptr<const TileCode> code_;
  // Live descriptor state: the code's tables as of the last reset, then
  // advanced by the running instructions.
  std::vector<TensorDesc> tensors_;
  std::vector<FabricDesc> fabrics_;
  std::vector<FifoState> fifos_;
  // Task flags as bitsets (TileCode::priority's layout).
  std::vector<std::uint64_t> activated_;
  std::vector<std::uint64_t> blocked_;
  SimParams sim_;
  std::vector<std::uint16_t> memory_;
  std::vector<float> scalars_;
  std::array<InlineRing<std::uint32_t, kRampQueueCapacity>, kNumLocalChannels>
      ramp_queues_;

  // thread slots; the last one is the main/sync slot
  std::vector<std::optional<RunningInstr>> slots_;
  int rr_slot_ = 0;

  // task execution state
  TaskId current_task_ = kNoTask;
  std::size_t current_step_ = 0;
  bool waiting_sync_ = false;

  bool done_ = false;
  CoreStats stats_;

  // profiler annotations (docs/PROFILING.md)
  ProgPhase phase_ = ProgPhase::Control;
  std::uint64_t iteration_ = 0;

  // tracing
  Tracer* tracer_ = nullptr;
  int tile_x_ = 0;
  int tile_y_ = 0;
  std::uint64_t current_cycle_ = 0;

  // black-box flight recorder (docs/POSTMORTEM.md); observe-only
  telemetry::FlightRecorder* flightrec_ = nullptr;
};

} // namespace wss::wse
