#pragma once

// The per-tile program representation: memory layout, data structure
// registers (DSRs) holding tensor/fabric/FIFO descriptors, tasks made of
// steps, and the tensor instructions that constitute all executable code —
// mirroring the structure of the paper's Listing 1, where "most of the code
// specifies DSR setup and task dependencies; the executable code itself is
// just the arithmetic that operates over the above structure."

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "wse/types.hpp"

namespace wss::wse {

/// Memory tensor descriptor (a DSR): base offset in halfwords, element
/// count, stride in elements, dtype, and an advancing position that
/// persists across task invocations (this is what lets the summation task
/// "add once to each element of the result" across many activations).
struct TensorDesc {
  int base = 0;
  int len = 0;
  int stride = 1;
  DType dtype = DType::F16;
  int pos = 0;

  [[nodiscard]] bool exhausted() const { return pos >= len; }
  [[nodiscard]] int addr_at(int i) const {
    return base + i * stride * halfwords(dtype);
  }
  bool operator==(const TensorDesc&) const = default;
};

/// Fabric tensor descriptor: a stream of `len` words on a channel. The
/// completion trigger mirrors the paper's .trig/.act fields.
struct FabricDesc {
  int channel = -1; ///< local RX channel, or TX color for sends
  int len = 0;
  DType dtype = DType::F16;
  int pos = 0;
  TaskId trig = kNoTask;
  TrigAction act = TrigAction::None;

  [[nodiscard]] bool exhausted() const { return pos >= len; }
  bool operator==(const FabricDesc&) const = default;
};

/// Hardware-managed in-memory FIFO (circular buffer of fp16 elements) with
/// on-push task activation — the paper's distinctive mechanism connecting
/// multiply threads to the summation task.
struct FifoState {
  int base = 0;     ///< halfword offset of the buffer
  int capacity = 0; ///< elements
  int head = 0;
  int tail = 0;
  int count = 0;
  TaskId on_push = kNoTask;

  [[nodiscard]] bool full() const { return count >= capacity; }
  [[nodiscard]] bool empty() const { return count == 0; }
  bool operator==(const FifoState&) const = default;
};

/// Tensor instruction opcodes. Each runs for many cycles over its
/// descriptors, synchronously or as a background thread.
enum class OpKind : std::uint8_t {
  MulVV,          ///< dst[i] = src1[i] * src2[i]
  AddVV,          ///< dst[i] = src1[i] + src2[i]
  CopyV,          ///< dst[i] = src1[i]
  AxpyV,          ///< dst[i] += scalar * src1[i]  (FMAC)
  ScaleXPayV,     ///< dst[i] = src1[i] + scalar * src2[i]
  LifeV,          ///< dst[i] = Conway rule(count=src1[i], alive=src2[i])
  Send,           ///< fabric <- src1 (memory), one word per element
  SendScalar,     ///< fabric <- scalar register (len words, repeated)
  RecvToMem,      ///< dst <- fabric
  RecvAddTo,      ///< dst[i] += fabric word (the main-diagonal add)
  RecvMulToFifo,  ///< fifo <- fabric * src1[i] (the multiply threads)
  FifoAddTo,      ///< dst[i] += fifo pop; drains until empty or dst done
  RecvAccScalar,  ///< scalar += fabric word (fp32), len words (AllReduce)
  DotMixed,       ///< scalar(fp32) += src1[i]*src2[i] (fp16 mul / fp32 add)
  DotLocal,       ///< like DotMixed but src2 == src1 allowed (norm)
  SetScalar,      ///< scalar = immediate (control plumbing)
  // Scalar-register arithmetic (fp32, one cycle): the per-tile alpha/
  // omega/beta computations of the BiCGStab recurrence. Every tile
  // computes them redundantly from the broadcast reductions.
  ScalarAdd,      ///< scalar = scalar_a + scalar_b
  ScalarSub,      ///< scalar = scalar_a - scalar_b
  ScalarMul,      ///< scalar = scalar_a * scalar_b
  ScalarDiv,      ///< scalar = scalar_a / scalar_b
  ScalarMulImm,   ///< scalar = scalar_a * imm   (imm = -1: negate; copy: 1)
};

/// One tensor instruction. Operands reference the tile program's descriptor
/// tables by index; unused operands stay -1.
struct Instr {
  OpKind op{};
  int dst = -1;    ///< TensorDesc id
  int src1 = -1;   ///< TensorDesc id
  int src2 = -1;   ///< TensorDesc id
  int fabric = -1; ///< FabricDesc id
  int fifo = -1;   ///< FifoState id
  int scalar = -1; ///< scalar register id (destination for scalar ops)
  int scalar_a = -1; ///< scalar operand
  int scalar_b = -1; ///< scalar operand
  double imm = 0.0;
  /// Fired when the instruction completes (in addition to any fabric
  /// descriptor trigger).
  TaskId trig = kNoTask;
  TrigAction act = TrigAction::None;

  bool operator==(const Instr&) const = default;
};

/// A step in a task body. Launch installs an instruction on a background
/// thread slot and continues; Sync runs one on the main thread to
/// completion; the control steps manipulate task scheduling state exactly
/// like the paper's block()/unblock()/activate() special instructions.
/// SetPhase / MarkIteration are profiler annotations (docs/PROFILING.md):
/// free control steps that never cost a datapath cycle, so instrumented and
/// uninstrumented programs have bit-identical timing.
struct TaskStep {
  enum class Kind : std::uint8_t {
    Launch,
    Sync,
    Block,
    Unblock,
    Activate,
    SetDone, ///< raise the tile's completion flag (stand-in for `bicg`)
    SetPhase,      ///< set the core's sticky ProgPhase (target = phase value)
    MarkIteration, ///< bump the core's iteration counter (profiler windows)
  };
  Kind kind{};
  int thread_slot = -1;
  Instr instr{};
  TaskId target = kNoTask;

  bool operator==(const TaskStep&) const = default;
};

/// Phase-marker step: annotates all following cycles (until the next
/// marker) as belonging to `phase`.
[[nodiscard]] inline TaskStep set_phase_step(ProgPhase phase) {
  TaskStep s;
  s.kind = TaskStep::Kind::SetPhase;
  s.target = static_cast<int>(phase);
  return s;
}

/// Iteration-boundary marker step (one per solver iteration, on every tile).
[[nodiscard]] inline TaskStep mark_iteration_step() {
  TaskStep s;
  s.kind = TaskStep::Kind::MarkIteration;
  return s;
}

/// A task as the program declares it. `blocked` and `activated` are its
/// state when the program starts (and again after TileCore::reset_control);
/// the running state lives in the core's per-task bitsets, so a Task is
/// never written once the program is installed.
struct Task {
  std::string name;
  bool priority = false; ///< the paper's __priority__ marker on sumtask
  bool blocked = false;
  bool activated = false;
  std::vector<TaskStep> steps;

  bool operator==(const Task&) const = default;
};

/// The complete program for one tile, as a builder writes it. Installing
/// it (TileCore, Fabric::configure_tile) turns it into a shared read-only
/// TileCode; the descriptor tables here hold the start positions.
struct TileProgram {
  std::vector<TensorDesc> tensors;
  std::vector<FabricDesc> fabrics;
  std::vector<FifoState> fifos;
  std::vector<Task> tasks;
  int memory_halfwords = 0;       ///< allocated memory extent
  int num_scalars = 0;
  TaskId initial_task = kNoTask;  ///< activated at cycle 0

  int add_tensor(TensorDesc t) {
    tensors.push_back(t);
    return static_cast<int>(tensors.size()) - 1;
  }
  int add_fabric(FabricDesc f) {
    fabrics.push_back(f);
    return static_cast<int>(fabrics.size()) - 1;
  }
  int add_fifo(FifoState f) {
    fifos.push_back(f);
    return static_cast<int>(fifos.size()) - 1;
  }
  TaskId add_task(Task t) {
    tasks.push_back(std::move(t));
    return static_cast<TaskId>(tasks.size()) - 1;
  }

  bool operator==(const TileProgram&) const = default;
};

/// Bump allocator for tile SRAM, in halfwords. Throws when a program
/// exceeds the 48 KB tile memory — the capacity wall Section VIII discusses.
class MemAllocator {
public:
  explicit MemAllocator(int memory_bytes) : limit_(memory_bytes / 2) {}

  int allocate(int elements, DType dtype) {
    const int need = elements * halfwords(dtype);
    if (next_ + need > limit_) {
      throw std::runtime_error(
          "tile memory exhausted: need " + std::to_string((next_ + need) * 2) +
          " bytes of " + std::to_string(limit_ * 2));
    }
    const int at = next_;
    next_ += need;
    return at;
  }

  [[nodiscard]] int used_halfwords() const { return next_; }
  [[nodiscard]] int used_bytes() const { return next_ * 2; }

private:
  int next_ = 0;
  int limit_;
};

} // namespace wss::wse
