#include "wse/core.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>
#include <string>

// Header-only recording surface; creates no link dependency on
// wss_telemetry (analysis lives there, the core only records).
#include "telemetry/flightrec.hpp"

namespace wss::wse {

namespace {

/// Elements an instruction may advance per datapath cycle. fp16 elementwise
/// ops run 4-way SIMD (the paper's AXPY case: 8 halfword reads + 4 writes
/// per cycle exactly saturates the 16B-read/8B-write memory ports, so the
/// one-instruction-per-cycle datapath model also respects memory bandwidth).
/// Mixed-precision FMAC runs 2/cycle; fabric sends and 32-bit fabric
/// receives run 1 word/cycle ("a core ... can receive only one from the
/// fabric [per cycle]").
int width_of(OpKind op, DType dtype) {
  switch (op) {
    case OpKind::MulVV:
    case OpKind::AddVV:
    case OpKind::CopyV:
    case OpKind::AxpyV:
    case OpKind::ScaleXPayV:
    case OpKind::LifeV:
    case OpKind::FifoAddTo:
    case OpKind::RecvToMem:
    case OpKind::RecvAddTo:
    case OpKind::RecvMulToFifo:
      return dtype == DType::F16 ? 4 : 1;
    case OpKind::DotMixed:
    case OpKind::DotLocal:
      return 2;
    case OpKind::Send:
      return dtype == DType::F16 ? 2 : 1; // 32-bit link: 2 packed fp16
    case OpKind::SendScalar:
    case OpKind::RecvAccScalar:
      return 1;
    case OpKind::SetScalar:
    case OpKind::ScalarAdd:
    case OpKind::ScalarSub:
    case OpKind::ScalarMul:
    case OpKind::ScalarDiv:
    case OpKind::ScalarMulImm:
      return 1;
  }
  return 1;
}

/// Halfwords the program addresses, validated against the SRAM: the larger
/// of its declared memory_halfwords and the end of every TensorDesc and
/// FifoState extent. Throws std::runtime_error when memory_halfwords
/// exceeds the SRAM and std::invalid_argument when a descriptor addresses
/// outside [0, sram).
int program_footprint(const TileProgram& prog, int sram) {
  if (prog.memory_halfwords > sram) {
    throw std::runtime_error("tile program exceeds 48KB SRAM");
  }
  int footprint = std::max(prog.memory_halfwords, 0);
  // [lo, hi) in 64 bits: a hostile base/len/stride must not overflow.
  const auto cover = [&](const char* what, std::size_t i, std::int64_t lo,
                         std::int64_t hi) {
    if (lo < 0 || hi > sram) {
      throw std::invalid_argument(
          std::string(what) + " " + std::to_string(i) + " addresses [" +
          std::to_string(lo) + ", " + std::to_string(hi) +
          ") outside tile SRAM [0, " + std::to_string(sram) + ")");
    }
    footprint = std::max(footprint, static_cast<int>(hi));
  };
  for (std::size_t i = 0; i < prog.tensors.size(); ++i) {
    const TensorDesc& t = prog.tensors[i];
    if (t.len <= 0) continue;
    const std::int64_t hw = halfwords(t.dtype);
    const std::int64_t span = static_cast<std::int64_t>(t.len - 1) * t.stride * hw;
    cover("TensorDesc", i, t.base + std::min<std::int64_t>(span, 0),
          t.base + std::max<std::int64_t>(span, 0) + hw);
  }
  for (std::size_t i = 0; i < prog.fifos.size(); ++i) {
    const FifoState& f = prog.fifos[i];
    if (f.capacity <= 0) continue;
    cover("FifoState", i, f.base,
          static_cast<std::int64_t>(f.base) + f.capacity);
  }
  return footprint;
}

/// Elements a descriptor has left to walk from its start position.
int remaining(const TensorDesc& t) { return t.len - t.pos; }
int remaining(const FabricDesc& f) { return f.len - f.pos; }

/// Throws std::invalid_argument, naming the task and step, unless every
/// step of `prog` names existing tasks, thread slots and operands, and no
/// instruction can walk a TensorDesc past its len (TileCode's contract).
/// An instruction runs until its bounding descriptor (dst, the dot's src1
/// or the fabric descriptor) is exhausted, so each other TensorDesc it
/// walks must have at least as many elements left.
void check_steps(const TileProgram& prog, int thread_slots) {
  const int num_tasks = static_cast<int>(prog.tasks.size());
  const auto task_ok = [&](TaskId t) {
    return t == kNoTask || (t >= 0 && t < num_tasks);
  };
  const auto reject = [](const std::string& where, const std::string& why) {
    throw std::invalid_argument(where + ": " + why);
  };
  if (!task_ok(prog.initial_task)) {
    reject("initial_task", "no task " + std::to_string(prog.initial_task));
  }
  for (std::size_t i = 0; i < prog.fabrics.size(); ++i) {
    if (!task_ok(prog.fabrics[i].trig)) {
      reject("FabricDesc " + std::to_string(i),
             "trigger names no task " + std::to_string(prog.fabrics[i].trig));
    }
  }
  for (std::size_t i = 0; i < prog.fifos.size(); ++i) {
    if (!task_ok(prog.fifos[i].on_push)) {
      reject("FifoState " + std::to_string(i),
             "on_push names no task " + std::to_string(prog.fifos[i].on_push));
    }
  }
  const int num_scalars = std::max(prog.num_scalars, 1);

  for (int ti = 0; ti < num_tasks; ++ti) {
    const Task& task = prog.tasks[static_cast<std::size_t>(ti)];
    for (std::size_t si = 0; si < task.steps.size(); ++si) {
      const TaskStep& step = task.steps[si];
      const auto fail = [&](const std::string& why) {
        reject("task '" + task.name + "' (" + std::to_string(ti) +
                   ") step " + std::to_string(si),
               why);
      };
      switch (step.kind) {
        case TaskStep::Kind::Block:
        case TaskStep::Kind::Unblock:
        case TaskStep::Kind::Activate:
          if (step.target == kNoTask || !task_ok(step.target)) {
            fail("targets no task " + std::to_string(step.target));
          }
          continue;
        case TaskStep::Kind::Launch:
          if (step.thread_slot < 0 || step.thread_slot >= thread_slots) {
            fail("launches on thread slot " +
                 std::to_string(step.thread_slot) + " outside [0, " +
                 std::to_string(thread_slots) + ")");
          }
          break;
        case TaskStep::Kind::Sync:
          break;
        default:
          continue;
      }

      const Instr& in = step.instr;
      const auto tensor = [&](int id, const char* role) -> const TensorDesc& {
        if (id < 0 || static_cast<std::size_t>(id) >= prog.tensors.size()) {
          fail(std::string(role) + " names no TensorDesc " +
               std::to_string(id));
        }
        return prog.tensors[static_cast<std::size_t>(id)];
      };
      const auto fabric = [&](int channels) -> const FabricDesc& {
        if (in.fabric < 0 ||
            static_cast<std::size_t>(in.fabric) >= prog.fabrics.size()) {
          fail("names no FabricDesc " + std::to_string(in.fabric));
        }
        const FabricDesc& f = prog.fabrics[static_cast<std::size_t>(in.fabric)];
        if (f.channel < 0 || f.channel >= channels) {
          fail("FabricDesc " + std::to_string(in.fabric) + " channel " +
               std::to_string(f.channel) + " outside [0, " +
               std::to_string(channels) + ")");
        }
        return f;
      };
      const auto fifo = [&] {
        if (in.fifo < 0 ||
            static_cast<std::size_t>(in.fifo) >= prog.fifos.size() ||
            prog.fifos[static_cast<std::size_t>(in.fifo)].capacity <= 0) {
          fail("names no FIFO " + std::to_string(in.fifo));
        }
      };
      const auto scalar = [&](int reg) {
        if (reg < 0 || reg >= num_scalars) {
          fail("names no scalar register " + std::to_string(reg));
        }
      };
      // `walked` must have at least `need` elements left.
      const auto covers = [&](const TensorDesc& walked, const char* role,
                              int need, const char* bound) {
        if (remaining(walked) < need) {
          fail(std::string(role) + " TensorDesc has " +
               std::to_string(remaining(walked)) +
               " elements left, fewer than the " + std::to_string(need) +
               " of " + bound);
        }
      };
      if (!task_ok(in.trig)) fail("triggers no task " + std::to_string(in.trig));

      switch (in.op) {
        case OpKind::MulVV:
        case OpKind::AddVV:
        case OpKind::ScaleXPayV:
        case OpKind::LifeV: {
          const int n = remaining(tensor(in.dst, "dst"));
          covers(tensor(in.src1, "src1"), "src1", n, "dst");
          covers(tensor(in.src2, "src2"), "src2", n, "dst");
          if (in.op == OpKind::ScaleXPayV) scalar(in.scalar);
          break;
        }
        case OpKind::CopyV:
        case OpKind::AxpyV: {
          const int n = remaining(tensor(in.dst, "dst"));
          covers(tensor(in.src1, "src1"), "src1", n, "dst");
          if (in.op == OpKind::AxpyV) scalar(in.scalar);
          break;
        }
        case OpKind::Send:
          covers(tensor(in.src1, "src1"), "src1",
                 remaining(fabric(kNumColors)), "the fabric descriptor");
          break;
        case OpKind::SendScalar:
          (void)fabric(kNumColors);
          scalar(in.scalar);
          break;
        case OpKind::RecvToMem:
        case OpKind::RecvAddTo:
          covers(tensor(in.dst, "dst"), "dst",
                 remaining(fabric(TileCore::kNumLocalChannels)),
                 "the fabric descriptor");
          break;
        case OpKind::RecvMulToFifo:
          covers(tensor(in.src1, "src1"), "src1",
                 remaining(fabric(TileCore::kNumLocalChannels)),
                 "the fabric descriptor");
          fifo();
          break;
        case OpKind::FifoAddTo:
          (void)tensor(in.dst, "dst");
          fifo();
          break;
        case OpKind::RecvAccScalar:
          (void)fabric(TileCore::kNumLocalChannels);
          scalar(in.scalar);
          break;
        case OpKind::DotMixed:
        case OpKind::DotLocal:
          covers(tensor(in.src2, "src2"), "src2",
                 remaining(tensor(in.src1, "src1")), "src1");
          scalar(in.scalar);
          break;
        case OpKind::SetScalar:
          scalar(in.scalar);
          break;
        case OpKind::ScalarAdd:
        case OpKind::ScalarSub:
        case OpKind::ScalarMul:
        case OpKind::ScalarDiv:
          scalar(in.scalar_b);
          [[fallthrough]];
        case OpKind::ScalarMulImm:
          scalar(in.scalar);
          scalar(in.scalar_a);
          break;
      }
    }
  }
}

// Task bitsets: bit t of word t / 64 stands for task t.
std::size_t bitset_words(std::size_t tasks) { return (tasks + 63) / 64; }
bool test_bit(const std::vector<std::uint64_t>& bits, TaskId t) {
  return ((bits[static_cast<std::size_t>(t) / 64] >> (t % 64)) & 1u) != 0;
}
void set_bit(std::vector<std::uint64_t>& bits, TaskId t) {
  bits[static_cast<std::size_t>(t) / 64] |= std::uint64_t{1} << (t % 64);
}
void clear_bit(std::vector<std::uint64_t>& bits, TaskId t) {
  bits[static_cast<std::size_t>(t) / 64] &= ~(std::uint64_t{1} << (t % 64));
}

} // namespace

TileCode::TileCode(TileProgram prog, const CS1Params& arch)
    : program(std::move(prog)),
      footprint(program_footprint(program, arch.tile_memory_bytes / 2)) {
  check_steps(program, arch.num_thread_slots);
  // Builders grow these tables one push at a time; the shared copy lives
  // as long as the fabric, so drop the growth slack once.
  program.tensors.shrink_to_fit();
  program.fabrics.shrink_to_fit();
  program.fifos.shrink_to_fit();
  program.tasks.shrink_to_fit();
  for (Task& t : program.tasks) t.steps.shrink_to_fit();
  const std::size_t words = bitset_words(program.tasks.size());
  priority.assign(words, 0);
  start_activated.assign(words, 0);
  start_blocked.assign(words, 0);
  for (std::size_t i = 0; i < program.tasks.size(); ++i) {
    const Task& t = program.tasks[i];
    const auto id = static_cast<TaskId>(i);
    if (t.priority) set_bit(priority, id);
    if (t.activated) set_bit(start_activated, id);
    if (t.blocked) set_bit(start_blocked, id);
  }
  if (program.initial_task != kNoTask) {
    set_bit(start_activated, program.initial_task);
  }
}

void validate_queue_depths(const SimParams& sim) {
  const auto check = [](const char* what, int depth, int capacity) {
    if (depth < 1 || depth > capacity) {
      throw std::invalid_argument(
          std::string("SimParams::") + what + " = " + std::to_string(depth) +
          " outside [1, " + std::to_string(capacity) + "]");
    }
  };
  check("router_queue_depth", sim.router_queue_depth, kRouterQueueCapacity);
  check("ramp_queue_depth", sim.ramp_queue_depth, kRampQueueCapacity);
}

TileCore::TileCore(std::shared_ptr<const TileCode> code,
                   const CS1Params& arch, const SimParams& sim)
    : code_(std::move(code)),
      tensors_(code_->program.tensors),
      fabrics_(code_->program.fabrics),
      fifos_(code_->program.fifos),
      activated_(code_->start_activated),
      blocked_(code_->start_blocked),
      sim_(sim),
      memory_(static_cast<std::size_t>(code_->footprint), 0),
      scalars_(static_cast<std::size_t>(std::max(code_->program.num_scalars, 1)),
               0.0f),
      slots_(static_cast<std::size_t>(arch.num_thread_slots) + 1) {
  validate_queue_depths(sim_);
}

TileCore::TileCore(TileProgram program, const CS1Params& arch,
                   const SimParams& sim)
    : TileCore(std::make_shared<const TileCode>(std::move(program), arch),
               arch, sim) {}

void TileCore::check_host_addr(int addr, int halfwords) const {
  if (addr < 0 || static_cast<std::size_t>(addr) + static_cast<std::size_t>(halfwords) >
                      memory_.size()) {
    throw std::out_of_range("host access at halfword " + std::to_string(addr) +
                            " outside the tile footprint [0, " +
                            std::to_string(memory_.size()) + ")");
  }
}

bool TileCore::can_deliver(int channel) const {
  return static_cast<int>(ramp_queues_[static_cast<std::size_t>(channel)].size()) <
         sim_.ramp_queue_depth;
}

bool TileCore::try_deliver(int channel, std::uint32_t payload) {
  auto& q = ramp_queues_[static_cast<std::size_t>(channel)];
  if (static_cast<int>(q.size()) >= sim_.ramp_queue_depth) {
    return false;
  }
  q.push_back(payload);
  ++stats_.words_received;
  stats_.ramp_highwater =
      std::max(stats_.ramp_highwater, static_cast<std::uint64_t>(q.size()));
  return true;
}

float TileCore::read_f32(int addr) const {
  const std::uint32_t lo = memory_[static_cast<std::size_t>(addr)];
  const std::uint32_t hi = memory_[static_cast<std::size_t>(addr) + 1];
  return std::bit_cast<float>(lo | (hi << 16));
}

void TileCore::write_f32(int addr, float v) {
  const std::uint32_t bits = std::bit_cast<std::uint32_t>(v);
  memory_[static_cast<std::size_t>(addr)] = static_cast<std::uint16_t>(bits & 0xFFFFu);
  memory_[static_cast<std::size_t>(addr) + 1] = static_cast<std::uint16_t>(bits >> 16);
}

void TileCore::host_write_f32(int addr, float v) {
  check_host_addr(addr, 2);
  write_f32(addr, v);
}
float TileCore::host_read_f32(int addr) const {
  check_host_addr(addr, 2);
  return read_f32(addr);
}

double TileCore::read_elem(const TensorDesc& t, int i) const {
  const int addr = t.addr_at(i);
  return t.dtype == DType::F16 ? read_f16(addr).to_double()
                               : static_cast<double>(read_f32(addr));
}

void TileCore::write_elem(const TensorDesc& t, int i, double v) {
  const int addr = t.addr_at(i);
  if (t.dtype == DType::F16) {
    write_f16(addr, fp16_t(v));
  } else {
    write_f32(addr, static_cast<float>(v));
  }
}

void TileCore::fire(TaskId task, TrigAction act) {
  if (task == kNoTask || act == TrigAction::None) return;
  if (act == TrigAction::Activate) {
    // Flight-recorder taps record *state transitions* only (not repeated
    // fires), so rings hold the forensic story, not FIFO-push noise.
    if (flightrec_ != nullptr && !test_bit(activated_, task)) {
      flightrec_->record(tile_x_, tile_y_, current_cycle_,
                         telemetry::FlightEventKind::TaskActivate, task);
    }
    set_bit(activated_, task);
  } else {
    if (flightrec_ != nullptr && test_bit(blocked_, task)) {
      flightrec_->record(tile_x_, tile_y_, current_cycle_,
                         telemetry::FlightEventKind::TaskUnblock, task);
    }
    clear_bit(blocked_, task);
  }
}

bool TileCore::inject(RouterState& router, Color color,
                      std::uint32_t payload, bool wide) {
  const RouteRule& rule = router.table.rule(color);
  // All-targets-or-nothing multicast: every forward queue and every local
  // delivery queue must have space before the word leaves the core.
  for (int d = 0; d < 4; ++d) {
    if (rule.forwards_to(static_cast<Dir>(d)) &&
        static_cast<int>(router.out_queues[static_cast<std::size_t>(d)][color].size()) >=
            sim_.router_queue_depth) {
      return false;
    }
  }
  for (int ch : rule.deliver_channels) {
    if (static_cast<int>(ramp_queues_[static_cast<std::size_t>(ch)].size()) >=
        sim_.ramp_queue_depth) {
      return false;
    }
  }
  // Stamp provenance (injecting tile + cycle) for the critical-path
  // analyzer; simulator metadata only, invisible to the modeled hardware.
  Flit out{payload, color, wide, static_cast<std::int16_t>(tile_x_),
           static_cast<std::int16_t>(tile_y_),
           static_cast<std::uint32_t>(current_cycle_)};
  for (int d = 0; d < 4; ++d) {
    if (rule.forwards_to(static_cast<Dir>(d))) {
      auto& q = router.out_queues[static_cast<std::size_t>(d)][color];
      q.push_back(out);
      occ_set(router.out_occ[static_cast<std::size_t>(d)], color);
      ++router.stats.flits_forwarded;
      router.stats.queue_highwater = std::max(
          router.stats.queue_highwater, static_cast<std::uint64_t>(q.size()));
    }
  }
  for (int ch : rule.deliver_channels) {
    auto& q = ramp_queues_[static_cast<std::size_t>(ch)];
    q.push_back(payload);
    stats_.ramp_highwater =
        std::max(stats_.ramp_highwater, static_cast<std::uint64_t>(q.size()));
  }
  ++stats_.words_sent;
  return true;
}

namespace {
const char* opcode_name(OpKind op) {
  switch (op) {
    case OpKind::MulVV: return "MulVV";
    case OpKind::AddVV: return "AddVV";
    case OpKind::CopyV: return "CopyV";
    case OpKind::AxpyV: return "AxpyV";
    case OpKind::ScaleXPayV: return "ScaleXPayV";
    case OpKind::LifeV: return "LifeV";
    case OpKind::Send: return "Send";
    case OpKind::SendScalar: return "SendScalar";
    case OpKind::RecvToMem: return "RecvToMem";
    case OpKind::RecvAddTo: return "RecvAddTo";
    case OpKind::RecvMulToFifo: return "RecvMulToFifo";
    case OpKind::FifoAddTo: return "FifoAddTo";
    case OpKind::RecvAccScalar: return "RecvAccScalar";
    case OpKind::DotMixed: return "DotMixed";
    case OpKind::DotLocal: return "DotLocal";
    case OpKind::SetScalar: return "SetScalar";
    case OpKind::ScalarAdd: return "ScalarAdd";
    case OpKind::ScalarSub: return "ScalarSub";
    case OpKind::ScalarMul: return "ScalarMul";
    case OpKind::ScalarDiv: return "ScalarDiv";
    case OpKind::ScalarMulImm: return "ScalarMulImm";
  }
  return "?";
}
} // namespace

void TileCore::complete_instr(int slot, RouterState&) {
  RunningInstr& ri = *slots_[static_cast<std::size_t>(slot)];
  if (tracer_ != nullptr && tracer_->wants(tile_x_, tile_y_)) {
    tracer_->record(current_cycle_, tile_x_, tile_y_,
                    TraceEventKind::InstrComplete, opcode_name(ri.instr->op));
  }
  fire(ri.instr->trig, ri.instr->act);
  if (ri.instr->fabric >= 0) {
    const FabricDesc& f = fabrics_[static_cast<std::size_t>(ri.instr->fabric)];
    fire(f.trig, f.act);
  }
  if (ri.from_sync) {
    waiting_sync_ = false;
    ++current_step_;
  }
  slots_[static_cast<std::size_t>(slot)].reset();
}

bool TileCore::advance(int slot, RouterState& router) {
  const Instr& in = *slots_[static_cast<std::size_t>(slot)]->instr;
  bool progressed = false;
  bool completed = false;

  auto dst_desc = [&]() -> TensorDesc& {
    return tensors_[static_cast<std::size_t>(in.dst)];
  };
  auto src1_desc = [&]() -> TensorDesc& {
    return tensors_[static_cast<std::size_t>(in.src1)];
  };
  auto src2_desc = [&]() -> TensorDesc& {
    return tensors_[static_cast<std::size_t>(in.src2)];
  };

  switch (in.op) {
    case OpKind::MulVV:
    case OpKind::AddVV:
    case OpKind::CopyV:
    case OpKind::AxpyV:
    case OpKind::ScaleXPayV:
    case OpKind::LifeV: {
      TensorDesc& d = dst_desc();
      const int width = width_of(in.op, d.dtype);
      int n = 0;
      while (n < width && !d.exhausted()) {
        double v = 0.0;
        if (in.op == OpKind::MulVV) {
          TensorDesc& s1 = src1_desc();
          TensorDesc& s2 = src2_desc();
          v = (fp16_t(read_elem(s1, s1.pos)) * fp16_t(read_elem(s2, s2.pos)))
                  .to_double();
          ++s1.pos;
          ++s2.pos;
        } else if (in.op == OpKind::AddVV) {
          TensorDesc& s1 = src1_desc();
          TensorDesc& s2 = src2_desc();
          v = (fp16_t(read_elem(s1, s1.pos)) + fp16_t(read_elem(s2, s2.pos)))
                  .to_double();
          ++s1.pos;
          ++s2.pos;
        } else if (in.op == OpKind::CopyV) {
          TensorDesc& s1 = src1_desc();
          v = read_elem(s1, s1.pos);
          ++s1.pos;
        } else if (in.op == OpKind::AxpyV) {
          TensorDesc& s1 = src1_desc();
          const fp16_t a(scalars_[static_cast<std::size_t>(in.scalar)]);
          v = fmac(a, fp16_t(read_elem(s1, s1.pos)),
                   fp16_t(read_elem(d, d.pos)))
                  .to_double();
          ++s1.pos;
        } else if (in.op == OpKind::ScaleXPayV) { // dst = src1 + scalar*src2
          TensorDesc& s1 = src1_desc();
          TensorDesc& s2 = src2_desc();
          const fp16_t a(scalars_[static_cast<std::size_t>(in.scalar)]);
          v = fmac(a, fp16_t(read_elem(s2, s2.pos)),
                   fp16_t(read_elem(s1, s1.pos)))
                  .to_double();
          ++s1.pos;
          ++s2.pos;
        } else { // LifeV: Conway rule over exact small-integer fp16 counts.
          // src1 = live-neighbor count, src2 = current cell (0 or 1). All
          // values are small integers, exact in fp16, so the comparisons
          // below are exact too.
          TensorDesc& s1 = src1_desc();
          TensorDesc& s2 = src2_desc();
          const double count = read_elem(s1, s1.pos);
          const double alive = read_elem(s2, s2.pos);
          v = (count == 3.0 || (count == 2.0 && alive == 1.0)) ? 1.0 : 0.0;
          ++s1.pos;
          ++s2.pos;
        }
        write_elem(d, d.pos, v);
        ++d.pos;
        ++n;
      }
      progressed = n > 0;
      stats_.elements_processed += static_cast<std::uint64_t>(n);
      completed = d.exhausted();
      break;
    }

    case OpKind::Send: {
      FabricDesc& f = fabrics_[static_cast<std::size_t>(in.fabric)];
      const int width = width_of(in.op, f.dtype);
      int n = 0;
      while (n < width && !f.exhausted()) {
        TensorDesc& s = src1_desc();
        std::uint32_t payload = 0;
        bool wide = false;
        if (f.dtype == DType::F16) {
          payload = read_f16(s.addr_at(s.pos)).bits();
        } else {
          payload = std::bit_cast<std::uint32_t>(read_f32(s.addr_at(s.pos)));
          wide = true;
        }
        if (!inject(router, static_cast<Color>(f.channel), payload, wide)) {
          break;
        }
        ++s.pos;
        ++f.pos;
        ++n;
      }
      progressed = n > 0;
      completed = f.exhausted();
      break;
    }

    case OpKind::SendScalar: {
      FabricDesc& f = fabrics_[static_cast<std::size_t>(in.fabric)];
      if (!f.exhausted()) {
        const std::uint32_t payload = std::bit_cast<std::uint32_t>(
            scalars_[static_cast<std::size_t>(in.scalar)]);
        if (inject(router, static_cast<Color>(f.channel), payload, true)) {
          ++f.pos;
          progressed = true;
        }
      }
      completed = f.exhausted();
      break;
    }

    case OpKind::RecvToMem:
    case OpKind::RecvAddTo: {
      FabricDesc& f = fabrics_[static_cast<std::size_t>(in.fabric)];
      TensorDesc& d = dst_desc();
      auto& q = ramp_queues_[static_cast<std::size_t>(f.channel)];
      const int width = width_of(in.op, d.dtype);
      int n = 0;
      while (n < width && !f.exhausted() && !q.empty()) {
        const std::uint32_t payload = q.front();
        q.pop_front();
        const fp16_t w = fp16_t::from_bits(static_cast<std::uint16_t>(payload));
        if (in.op == OpKind::RecvToMem) {
          write_elem(d, d.pos, w.to_double());
        } else {
          const fp16_t cur(read_elem(d, d.pos));
          write_elem(d, d.pos, (cur + w).to_double());
        }
        ++d.pos;
        ++f.pos;
        ++n;
      }
      progressed = n > 0;
      stats_.elements_processed += static_cast<std::uint64_t>(n);
      completed = f.exhausted();
      break;
    }

    case OpKind::RecvMulToFifo: {
      FabricDesc& f = fabrics_[static_cast<std::size_t>(in.fabric)];
      TensorDesc& s = src1_desc();
      FifoState& fifo = fifos_[static_cast<std::size_t>(in.fifo)];
      auto& q = ramp_queues_[static_cast<std::size_t>(f.channel)];
      const int width = width_of(in.op, DType::F16);
      int n = 0;
      while (n < width && !f.exhausted() && !q.empty() && !fifo.full()) {
        const fp16_t w =
            fp16_t::from_bits(static_cast<std::uint16_t>(q.front()));
        q.pop_front();
        const fp16_t a(read_elem(s, s.pos));
        const fp16_t prod = w * a;
        memory_[static_cast<std::size_t>(fifo.base + fifo.tail)] = prod.bits();
        fifo.tail = (fifo.tail + 1) % fifo.capacity;
        ++fifo.count;
        if (static_cast<std::uint64_t>(fifo.count) > stats_.fifo_highwater) {
          stats_.fifo_highwater = static_cast<std::uint64_t>(fifo.count);
          if (flightrec_ != nullptr) {
            flightrec_->record(tile_x_, tile_y_, current_cycle_,
                               telemetry::FlightEventKind::FifoHighwater,
                               in.fifo, fifo.count);
          }
        }
        fire(fifo.on_push, TrigAction::Activate);
        ++s.pos;
        ++f.pos;
        ++n;
      }
      progressed = n > 0;
      stats_.elements_processed += static_cast<std::uint64_t>(n);
      completed = f.exhausted();
      break;
    }

    case OpKind::FifoAddTo: {
      FifoState& fifo = fifos_[static_cast<std::size_t>(in.fifo)];
      TensorDesc& d = dst_desc();
      const int width = width_of(in.op, d.dtype);
      int n = 0;
      while (n < width && !fifo.empty() && !d.exhausted()) {
        const fp16_t w = fp16_t::from_bits(
            memory_[static_cast<std::size_t>(fifo.base + fifo.head)]);
        fifo.head = (fifo.head + 1) % fifo.capacity;
        --fifo.count;
        const fp16_t cur(read_elem(d, d.pos));
        write_elem(d, d.pos, (cur + w).to_double());
        ++d.pos;
        ++n;
      }
      progressed = n > 0;
      stats_.elements_processed += static_cast<std::uint64_t>(n);
      // "Each add pulls as much data as it can from its input FIFO,
      // finishing when empty."
      completed = fifo.empty() || d.exhausted();
      break;
    }

    case OpKind::RecvAccScalar: {
      FabricDesc& f = fabrics_[static_cast<std::size_t>(in.fabric)];
      auto& q = ramp_queues_[static_cast<std::size_t>(f.channel)];
      if (!f.exhausted() && !q.empty()) {
        const float w = std::bit_cast<float>(q.front());
        q.pop_front();
        scalars_[static_cast<std::size_t>(in.scalar)] += w; // fp32 add
        ++f.pos;
        progressed = true;
        ++stats_.elements_processed;
      }
      completed = f.exhausted();
      break;
    }

    case OpKind::DotMixed:
    case OpKind::DotLocal: {
      TensorDesc& s1 = src1_desc();
      TensorDesc& s2 = src2_desc();
      const int width = width_of(in.op, DType::F16);
      int n = 0;
      while (n < width && !s1.exhausted()) {
        const fp16_t a(read_elem(s1, s1.pos));
        const fp16_t b(read_elem(s2, s2.pos));
        float& acc = scalars_[static_cast<std::size_t>(in.scalar)];
        acc = mixed_fma(a, b, acc);
        ++s1.pos;
        ++s2.pos;
        ++n;
      }
      progressed = n > 0;
      stats_.elements_processed += static_cast<std::uint64_t>(n);
      completed = s1.exhausted();
      break;
    }

    case OpKind::SetScalar: {
      scalars_[static_cast<std::size_t>(in.scalar)] =
          static_cast<float>(in.imm);
      progressed = true;
      completed = true;
      break;
    }

    case OpKind::ScalarAdd:
    case OpKind::ScalarSub:
    case OpKind::ScalarMul:
    case OpKind::ScalarDiv:
    case OpKind::ScalarMulImm: {
      const float a = scalars_[static_cast<std::size_t>(in.scalar_a)];
      float out = 0.0f;
      switch (in.op) {
        case OpKind::ScalarAdd:
          out = a + scalars_[static_cast<std::size_t>(in.scalar_b)];
          break;
        case OpKind::ScalarSub:
          out = a - scalars_[static_cast<std::size_t>(in.scalar_b)];
          break;
        case OpKind::ScalarMul:
          out = a * scalars_[static_cast<std::size_t>(in.scalar_b)];
          break;
        case OpKind::ScalarDiv:
          out = a / scalars_[static_cast<std::size_t>(in.scalar_b)];
          break;
        default:
          out = a * static_cast<float>(in.imm);
          break;
      }
      scalars_[static_cast<std::size_t>(in.scalar)] = out;
      progressed = true;
      completed = true;
      break;
    }
  }

  if (completed) {
    complete_instr(slot, router);
  }
  return progressed;
}

TaskId TileCore::pick_task() const {
  TaskId first_ready = kNoTask;
  for (std::size_t w = 0; w < activated_.size(); ++w) {
    const std::uint64_t ready = activated_[w] & ~blocked_[w];
    if (ready == 0) continue;
    const auto base = static_cast<TaskId>(w * 64);
    if (const std::uint64_t urgent = ready & code_->priority[w]; urgent != 0) {
      return base + std::countr_zero(urgent);
    }
    if (first_ready == kNoTask) first_ready = base + std::countr_zero(ready);
  }
  return first_ready;
}

void TileCore::run_scheduler() {
  // Hardware scheduling is implemented directly ("there is little delay
  // between the completion of a task and the start of a subsequent task"):
  // within one cycle the scheduler picks a ready task and drains its
  // control/launch steps until it must wait on a sync instruction or the
  // task ends. Instruction *execution* still costs datapath cycles; only
  // the bookkeeping is free-flowing.
  const std::vector<Task>& tasks = code_->program.tasks;
  if (current_task_ == kNoTask) {
    const TaskId pick = pick_task();
    if (pick == kNoTask) return;
    clear_bit(activated_, pick);
    current_task_ = pick;
    current_step_ = 0;
    waiting_sync_ = false;
    ++stats_.task_invocations;
    if (tracer_ != nullptr && tracer_->wants(tile_x_, tile_y_)) {
      tracer_->record(current_cycle_, tile_x_, tile_y_,
                      TraceEventKind::TaskStart,
                      tasks[static_cast<std::size_t>(pick)].name);
    }
    if (flightrec_ != nullptr) {
      flightrec_->record(tile_x_, tile_y_, current_cycle_,
                         telemetry::FlightEventKind::TaskStart, pick);
    }
  }

  if (waiting_sync_) return;
  const Task& t = tasks[static_cast<std::size_t>(current_task_)];
  while (current_step_ < t.steps.size()) {
    const TaskStep& step = t.steps[current_step_];
    if (step.kind == TaskStep::Kind::Launch) {
      auto& slot = slots_[static_cast<std::size_t>(step.thread_slot)];
      if (slot.has_value()) {
        return; // thread slot busy: wait (programs shouldn't do this)
      }
      slot = RunningInstr{&step.instr, false};
      ++current_step_;
    } else if (step.kind == TaskStep::Kind::Sync) {
      auto& slot = slots_.back();
      if (slot.has_value()) return;
      slot = RunningInstr{&step.instr, true};
      waiting_sync_ = true;
      return;
    } else {
      switch (step.kind) {
        case TaskStep::Kind::Block:
          if (flightrec_ != nullptr && !test_bit(blocked_, step.target)) {
            flightrec_->record(tile_x_, tile_y_, current_cycle_,
                               telemetry::FlightEventKind::TaskBlock,
                               step.target);
          }
          set_bit(blocked_, step.target);
          break;
        case TaskStep::Kind::Unblock:
          fire(step.target, TrigAction::Unblock);
          break;
        case TaskStep::Kind::Activate:
          fire(step.target, TrigAction::Activate);
          break;
        case TaskStep::Kind::SetDone:
          done_ = true;
          break;
        case TaskStep::Kind::SetPhase:
          // Profiler annotation: free, like all control steps, so marked
          // and unmarked programs have identical timing.
          phase_ = static_cast<ProgPhase>(step.target);
          if (flightrec_ != nullptr) {
            flightrec_->record(tile_x_, tile_y_, current_cycle_,
                               telemetry::FlightEventKind::PhaseMark,
                               step.target);
          }
          break;
        case TaskStep::Kind::MarkIteration:
          ++iteration_;
          if (flightrec_ != nullptr) {
            flightrec_->record(
                tile_x_, tile_y_, current_cycle_,
                telemetry::FlightEventKind::IterationMark,
                static_cast<std::int32_t>(iteration_ & 0x7fffffffu));
          }
          break;
        default:
          break;
      }
      ++current_step_;
    }
  }
  if (tracer_ != nullptr && tracer_->wants(tile_x_, tile_y_)) {
    tracer_->record(current_cycle_, tile_x_, tile_y_, TraceEventKind::TaskEnd,
                    t.name);
  }
  if (flightrec_ != nullptr) {
    flightrec_->record(tile_x_, tile_y_, current_cycle_,
                       telemetry::FlightEventKind::TaskEnd, current_task_);
  }
  current_task_ = kNoTask; // task body exhausted; next pick next cycle
}

StepOutcome TileCore::step(RouterState& router, std::uint64_t cycle) {
  current_cycle_ = cycle;
  run_scheduler();

  // Datapath: one instruction advances per cycle, chosen round-robin over
  // the occupied thread slots (background threads + the main sync slot).
  // Zero-work retirements (e.g. a FIFO drain finding its FIFO empty) do
  // not occupy the datapath: the hardware retires them in the scheduler.
  const int nslots = static_cast<int>(slots_.size());
  bool any_busy = false;
  bool saw_send = false;
  bool saw_recv = false;
  for (int k = 0; k < nslots; ++k) {
    const int slot = (rr_slot_ + k) % nslots;
    if (!slots_[static_cast<std::size_t>(slot)].has_value()) continue;
    any_busy = true;
    if (advance(slot, router)) {
      rr_slot_ = (slot + 1) % nslots;
      ++stats_.instr_cycles;
      return StepOutcome::Compute;
    }
    // No element progress: either stalled (slot still occupied — try the
    // next thread) or retired with zero work (slot freed — also try the
    // next thread without charging the datapath). For stalled slots,
    // classify the blocking port for the cycle-attribution profiler.
    auto& held = slots_[static_cast<std::size_t>(slot)];
    if (!held.has_value()) continue;
    switch (held->instr->op) {
      case OpKind::Send:
      case OpKind::SendScalar:
        saw_send = true;
        break;
      case OpKind::RecvToMem:
      case OpKind::RecvAddTo:
      case OpKind::RecvAccScalar:
        saw_recv = true;
        break;
      case OpKind::RecvMulToFifo: {
        // Two ways to make zero progress: the ramp channel is dry
        // (recv-starved) or the software FIFO behind it is full (output
        // backpressure — the summation task downstream can't keep up).
        const FabricDesc& f =
            fabrics_[static_cast<std::size_t>(held->instr->fabric)];
        if (ramp_queues_[static_cast<std::size_t>(f.channel)].empty()) {
          saw_recv = true;
        } else {
          saw_send = true;
        }
        break;
      }
      default:
        break; // local ops never stall while occupied
    }
  }
  if (any_busy) {
    ++stats_.stall_cycles;
    if (tracer_ != nullptr && tracer_->wants(tile_x_, tile_y_)) {
      tracer_->record(current_cycle_, tile_x_, tile_y_,
                      TraceEventKind::Stall, "");
    }
    // Send-blocked outranks recv-starved: the tile that cannot drain its
    // output is the upstream cause; its starving receives are the effect.
    if (saw_send) return StepOutcome::StallSend;
    if (saw_recv) return StepOutcome::StallRecv;
    return StepOutcome::StallOther;
  }
  ++stats_.idle_cycles;
  return StepOutcome::Idle;
}

std::string TileCore::debug_state() const {
  std::string out;
  if (current_task_ != kNoTask) {
    const Task& t =
        code_->program.tasks[static_cast<std::size_t>(current_task_)];
    out += "task=" + t.name + " step=" + std::to_string(current_step_) +
           (waiting_sync_ ? " (sync-wait)" : "");
  } else {
    out += "no-task";
  }
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].has_value()) {
      const Instr& in = *slots_[i]->instr;
      out += " slot" + std::to_string(i) + "=op" +
             std::to_string(static_cast<int>(in.op));
      if (in.fabric >= 0) {
        const FabricDesc& f = fabrics_[static_cast<std::size_t>(in.fabric)];
        out += "(ch" + std::to_string(f.channel) + " " +
               std::to_string(f.pos) + "/" + std::to_string(f.len) + ")";
      }
    }
  }
  for (std::size_t c = 0; c < ramp_queues_.size(); ++c) {
    if (!ramp_queues_[c].empty()) {
      out += " q" + std::to_string(c) + ":" +
             std::to_string(ramp_queues_[c].size());
    }
  }
  if (done_) out += " DONE";
  return out;
}

std::vector<CoreWait> TileCore::waits() const {
  // Read-only port introspection for the post-mortem wait-for graph:
  // which fabric resource would have to move for each occupied slot to
  // make progress? Mirrors the stall classification in step().
  std::vector<CoreWait> out;
  for (const auto& slot : slots_) {
    if (!slot.has_value()) continue;
    const Instr& in = *slot->instr;
    switch (in.op) {
      case OpKind::Send:
      case OpKind::SendScalar: {
        const FabricDesc& f =
            fabrics_[static_cast<std::size_t>(in.fabric)];
        if (!f.exhausted()) {
          out.push_back({CoreWait::Kind::SendColor, f.channel});
        }
        break;
      }
      case OpKind::RecvToMem:
      case OpKind::RecvAddTo:
      case OpKind::RecvAccScalar: {
        const FabricDesc& f =
            fabrics_[static_cast<std::size_t>(in.fabric)];
        if (!f.exhausted() &&
            ramp_queues_[static_cast<std::size_t>(f.channel)].empty()) {
          out.push_back({CoreWait::Kind::RecvChannel, f.channel});
        }
        break;
      }
      case OpKind::RecvMulToFifo: {
        const FabricDesc& f =
            fabrics_[static_cast<std::size_t>(in.fabric)];
        if (f.exhausted()) break;
        if (ramp_queues_[static_cast<std::size_t>(f.channel)].empty()) {
          out.push_back({CoreWait::Kind::RecvChannel, f.channel});
        } else if (fifos_[static_cast<std::size_t>(in.fifo)].full()) {
          out.push_back({CoreWait::Kind::FifoFull, in.fifo});
        }
        break;
      }
      default:
        break; // local ops never wait on the fabric
    }
  }
  return out;
}

std::size_t TileCore::ramp_words() const {
  std::size_t n = 0;
  for (const auto& q : ramp_queues_) n += q.size();
  return n;
}

bool TileCore::quiescent() const {
  for (const auto& s : slots_) {
    if (s.has_value()) return false;
  }
  if (current_task_ != kNoTask) return false;
  for (std::size_t w = 0; w < activated_.size(); ++w) {
    if ((activated_[w] & ~blocked_[w]) != 0) return false;
  }
  for (const auto& q : ramp_queues_) {
    if (!q.empty()) return false;
  }
  return true;
}

void TileCore::reset_control() {
  // Same sizes, so these copy in place.
  tensors_ = code_->program.tensors;
  fabrics_ = code_->program.fabrics;
  fifos_ = code_->program.fifos;
  activated_ = code_->start_activated;
  blocked_ = code_->start_blocked;
  for (auto& s : slots_) s.reset();
  // Words a run left undelivered (it stopped short of AllDone) belong to
  // that run; the next one must not consume them.
  for (auto& q : ramp_queues_) q.clear();
  rr_slot_ = 0;
  current_task_ = kNoTask;
  current_step_ = 0;
  waiting_sync_ = false;
  done_ = false;
  phase_ = ProgPhase::Control;
  iteration_ = 0;
}

} // namespace wss::wse
