// Bounded-memory tiles: queue depths and descriptor extents are validated
// against the inline rings and the program-sized SRAM at construction, host
// access outside the footprint is rejected, and reset_control() leaves no
// stale words behind for the next run.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "common/rng.hpp"
#include "stencil/generators.hpp"
#include "wse/fabric.hpp"
#include "wsekernels/spmv3d_program.hpp"

namespace wss::wse {
namespace {

constexpr int kSramHalfwords = 48 * 1024 / 2;

TileProgram program_with_tensor(TensorDesc t) {
  TileProgram prog;
  prog.add_tensor(t);
  return prog;
}

TileProgram program_with_fifo(int base, int capacity) {
  TileProgram prog;
  FifoState f;
  f.base = base;
  f.capacity = capacity;
  prog.add_fifo(f);
  return prog;
}

TEST(BoundedMemory, QueueDepthsOutsideRingCapacityRejected) {
  const CS1Params arch;
  const auto with = [](int router, int ramp) {
    SimParams sim;
    sim.router_queue_depth = router;
    sim.ramp_queue_depth = ramp;
    return sim;
  };
  // In range: the defaults, the capacities and the tight depth-1 queues
  // the backpressure and fuzz tests run with.
  EXPECT_NO_THROW(Fabric(2, 2, arch, SimParams{}));
  EXPECT_NO_THROW(Fabric(2, 2, arch, with(1, 1)));
  EXPECT_NO_THROW(
      Fabric(2, 2, arch, with(kRouterQueueCapacity, kRampQueueCapacity)));
  EXPECT_NO_THROW(TileCore(TileProgram{}, arch, with(1, 1)));
  // Out of range: a depth of 0 would deadlock every stream, one above the
  // ring capacity would overrun it.
  for (const SimParams& bad :
       {with(0, 8), with(-1, 8), with(kRouterQueueCapacity + 1, 8),
        with(4, 0), with(4, kRampQueueCapacity + 1)}) {
    EXPECT_THROW(Fabric(2, 2, arch, bad), std::invalid_argument);
    EXPECT_THROW(TileCore(TileProgram{}, arch, bad), std::invalid_argument);
  }
}

TEST(BoundedMemory, DescriptorsOutsideSramRejected) {
  const CS1Params arch;
  const SimParams sim;
  // Exactly filling the SRAM is fine, for both element widths.
  EXPECT_NO_THROW(TileCore(
      program_with_tensor({0, kSramHalfwords, 1, DType::F16, 0}), arch, sim));
  EXPECT_NO_THROW(TileCore(
      program_with_tensor({0, kSramHalfwords / 2, 1, DType::F32, 0}), arch,
      sim));
  EXPECT_NO_THROW(
      TileCore(program_with_fifo(kSramHalfwords - 20, 20), arch, sim));
  // One halfword past the end, a negative base, a stride walking off
  // either end, and an fp32 element straddling the end.
  for (const TensorDesc& t :
       {TensorDesc{0, kSramHalfwords + 1, 1, DType::F16, 0},
        TensorDesc{-1, 4, 1, DType::F16, 0},
        TensorDesc{kSramHalfwords - 10, 6, 2, DType::F16, 0},
        TensorDesc{6, 5, -2, DType::F16, 0},
        TensorDesc{kSramHalfwords - 1, 1, 1, DType::F32, 0},
        TensorDesc{0, 1 << 30, 1 << 30, DType::F32, 0}}) {
    EXPECT_THROW(TileCore(program_with_tensor(t), arch, sim),
                 std::invalid_argument)
        << "base " << t.base << " len " << t.len << " stride " << t.stride;
  }
  EXPECT_THROW(TileCore(program_with_fifo(kSramHalfwords - 19, 20), arch, sim),
               std::invalid_argument);
  EXPECT_THROW(TileCore(program_with_fifo(-5, 20), arch, sim),
               std::invalid_argument);
}

TEST(BoundedMemory, OperandsShorterThanTheirBoundRejected) {
  // An instruction runs until its bounding descriptor (dst, a dot's src1,
  // or the fabric descriptor) is exhausted; every other TensorDesc it walks
  // must be at least that long, or it reads or writes past its extent.
  // Tensor 0 and 2 hold 8 elements, tensor 1 only 7; the fabric 8 words.
  const auto program = [](Instr in) {
    TileProgram prog;
    prog.add_tensor({0, 8, 1, DType::F16, 0});
    prog.add_tensor({16, 7, 1, DType::F16, 0});
    prog.add_tensor({32, 8, 1, DType::F16, 0});
    prog.add_fabric({3, 8, DType::F16, 0, kNoTask, TrigAction::None});
    FifoState f;
    f.base = 48;
    f.capacity = 8;
    prog.add_fifo(f);
    prog.num_scalars = 1;
    in.fabric = in.op == OpKind::DotMixed || in.op == OpKind::CopyV ||
                        in.op == OpKind::MulVV
                    ? -1
                    : 0;
    in.fifo = in.op == OpKind::RecvMulToFifo ? 0 : -1;
    in.scalar = in.op == OpKind::DotMixed ? 0 : -1;
    Task t{"k", false, false, false, {}};
    t.steps.push_back(set_phase_step(ProgPhase::Axpy));
    t.steps.push_back({TaskStep::Kind::Sync, -1, in, kNoTask});
    prog.add_task(std::move(t));
    prog.initial_task = 0;
    return prog;
  };
  const auto instr = [](OpKind op, int dst, int src1, int src2) {
    Instr in{};
    in.op = op;
    in.dst = dst;
    in.src1 = src1;
    in.src2 = src2;
    return in;
  };
  const CS1Params arch;
  const SimParams sim;
  struct Case {
    Instr bad;
    Instr good;
  };
  const Case cases[] = {
      {instr(OpKind::CopyV, 0, 1, -1), instr(OpKind::CopyV, 0, 2, -1)},
      {instr(OpKind::MulVV, 0, 2, 1), instr(OpKind::MulVV, 0, 2, 2)},
      {instr(OpKind::DotMixed, -1, 0, 1), instr(OpKind::DotMixed, -1, 1, 0)},
      {instr(OpKind::Send, -1, 1, -1), instr(OpKind::Send, -1, 2, -1)},
      {instr(OpKind::RecvMulToFifo, -1, 1, -1),
       instr(OpKind::RecvMulToFifo, -1, 2, -1)},
      {instr(OpKind::RecvToMem, 1, -1, -1), instr(OpKind::RecvToMem, 2, -1, -1)},
      {instr(OpKind::RecvAddTo, 1, -1, -1), instr(OpKind::RecvAddTo, 0, -1, -1)},
  };
  for (const Case& c : cases) {
    const int op = static_cast<int>(c.bad.op);
    EXPECT_NO_THROW(TileCore(program(c.good), arch, sim)) << "op " << op;
    try {
      TileCore core(program(c.bad), arch, sim);
      ADD_FAILURE() << "op " << op << " accepted a short operand";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("task 'k' (0) step 1"),
                std::string::npos)
          << e.what();
    }
    // The fabric checks once per distinct program, at configure_tile.
    Fabric fabric(1, 1, arch, sim);
    EXPECT_THROW(fabric.configure_tile(0, 0, program(c.bad), RoutingTable{}),
                 std::invalid_argument)
        << "op " << op;
  }
}

TEST(BoundedMemory, SramSizedToFootprint) {
  const CS1Params arch;
  const SimParams sim;
  TileProgram prog = program_with_tensor({100, 10, 1, DType::F32, 0});
  prog.memory_halfwords = 40;
  FifoState f;
  f.base = 130;
  f.capacity = 20;
  prog.add_fifo(f);
  // Tensor ends at 100 + 10*2 = 120, FIFO at 150, declared 40: 150 wins.
  TileCore core(std::move(prog), arch, sim);
  EXPECT_EQ(core.memory_halfwords(), 150);

  TileProgram declared;
  declared.memory_halfwords = 512;
  EXPECT_EQ(TileCore(std::move(declared), arch, sim).memory_halfwords(), 512);
}

TEST(BoundedMemory, HostAccessOutsideFootprintThrows) {
  const CS1Params arch;
  const SimParams sim;
  TileProgram prog;
  prog.memory_halfwords = 8;
  TileCore core(std::move(prog), arch, sim);
  core.host_write_f16(7, fp16_t(1.5));
  EXPECT_EQ(core.host_read_f16(7).to_double(), 1.5);
  core.host_write_f32(6, 2.5f);
  EXPECT_EQ(core.host_read_f32(6), 2.5f);
  EXPECT_THROW(core.host_write_f16(8, fp16_t(1.0)), std::out_of_range);
  EXPECT_THROW((void)core.host_read_f16(-1), std::out_of_range);
  EXPECT_THROW(core.host_write_f32(7, 1.0f), std::out_of_range);
  EXPECT_THROW((void)core.host_read_f32(7), std::out_of_range);
  EXPECT_THROW((void)core.host_read_f16(kSramHalfwords), std::out_of_range);
}

TEST(BoundedMemory, ResetControlDropsStaleRampWords) {
  // Stop an SpMV at MaxCycles while words sit in ramp queues, reset, and
  // rerun: the rerun must match a fresh fabric's run bit for bit. Before
  // the fix the stale words were consumed as the next run's operands.
  const Grid3 g(4, 4, 8);
  auto ad = make_random_dominant7(g, 0.5, 31);
  Field3<double> b(g, 1.0);
  (void)precondition_jacobi(ad, b);
  const Stencil7<fp16_t> a = convert_stencil<fp16_t>(ad);
  Field3<fp16_t> v(g);
  Rng rng(32);
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = fp16_t(rng.uniform(-1.0, 1.0));
  }
  const CS1Params arch;
  const SimParams sim;

  wsekernels::SpMV3DSimulation fresh(a, arch, sim);
  const Field3<fp16_t> want = fresh.run(v);

  wsekernels::SpMV3DSimulation reused(a, arch, sim);
  Fabric& fabric = reused.fabric();
  const auto ramp_words = [&] {
    std::size_t n = 0;
    for (int y = 0; y < fabric.height(); ++y) {
      for (int x = 0; x < fabric.width(); ++x) {
        n += fabric.core(x, y).ramp_words();
      }
    }
    return n;
  };
  // Cut a run short of AllDone at the first cycle boundary where words
  // wait in a ramp queue.
  for (int i = 0; i < 1000 && ramp_words() == 0; ++i) {
    ASSERT_EQ(fabric.run(1).reason, StopInfo::Reason::MaxCycles);
  }
  ASSERT_GT(ramp_words(), 0u);
  ASSERT_FALSE(fabric.all_done());

  // run() starts with reset_control(), as every solver iteration does.
  const Field3<fp16_t> got = reused.run(v);
  EXPECT_EQ(reused.last_run_cycles(), fresh.last_run_cycles());
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].bits(), want[i].bits()) << "element " << i;
  }
  fabric.reset_control();
  EXPECT_EQ(ramp_words(), 0u);
}

} // namespace
} // namespace wss::wse
