// Shared tile programs: Fabric::configure_tile interns equal programs into
// one read-only TileCode, each core keeps its own descriptor positions and
// task-flag bitsets, and the bitset scheduler picks exactly what the
// linear scan over Task flags used to pick.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "stencil/generators.hpp"
#include "support/proptest.hpp"
#include "wse/fabric.hpp"
#include "wsekernels/bicgstab_program.hpp"

namespace wss::wse {
namespace {

constexpr int kChannel = 3;
constexpr int kLen = 4;

/// Receive kLen fp16 words from kChannel into halfwords [0, kLen), then
/// raise done.
TileProgram recv_program() {
  TileProgram prog;
  const int dst = prog.add_tensor({0, kLen, 1, DType::F16, 0});
  const int in = prog.add_fabric(
      {kChannel, kLen, DType::F16, 0, kNoTask, TrigAction::None});
  Task t{"recv", false, false, false, {}};
  Instr r{};
  r.op = OpKind::RecvToMem;
  r.dst = dst;
  r.fabric = in;
  t.steps.push_back({TaskStep::Kind::Sync, -1, r, kNoTask});
  t.steps.push_back({TaskStep::Kind::SetDone, -1, {}, kNoTask});
  prog.add_task(std::move(t));
  prog.initial_task = 0;
  prog.memory_halfwords = kLen;
  return prog;
}

void deliver(TileCore& core, double first) {
  for (int i = 0; i < kLen; ++i) {
    ASSERT_TRUE(core.try_deliver(kChannel, fp16_t(first + i).bits()));
  }
}

void step(TileCore& core, RouterState& router, int cycles) {
  for (int i = 0; i < cycles; ++i) (void)core.step(router);
}

Stencil7<fp16_t> bicgstab_matrix(int side, int z) {
  const Grid3 g(side, side, z);
  auto ad = make_momentum_like7(g, 0.5, 101);
  Field3<double> b(g, 1.0);
  (void)precondition_jacobi(ad, b);
  return convert_stencil<fp16_t>(ad);
}

TEST(SharedProgram, BicgstabDistinctCodeCountIndependentOfFabricSize) {
  // Interior tiles differ only in their coefficients, which live in SRAM,
  // so the number of distinct programs is set by the boundary cases.
  const CS1Params arch;
  const wsekernels::BicgstabSimulation small(bicgstab_matrix(24, 8), 2, arch,
                                             SimParams{});
  const wsekernels::BicgstabSimulation big(bicgstab_matrix(48, 8), 2, arch,
                                           SimParams{});
  EXPECT_EQ(small.fabric().distinct_programs(),
            big.fabric().distinct_programs());
  EXPECT_LE(big.fabric().distinct_programs(), 64u);
  // Tessellation colors repeat every 5 columns, so two interior tiles 5
  // apart on the same side of the reduction trees share one code object.
  EXPECT_EQ(&big.fabric().core(10, 10).code(),
            &big.fabric().core(15, 10).code());
}

TEST(SharedProgram, ConfigureTileInternsEqualPrograms) {
  Fabric fabric(3, 1, CS1Params{}, SimParams{});
  fabric.configure_tile(0, 0, recv_program(), RoutingTable{});
  fabric.configure_tile(1, 0, recv_program(), RoutingTable{});
  TileProgram other = recv_program();
  other.tasks[0].name = "recv2";
  fabric.configure_tile(2, 0, std::move(other), RoutingTable{});
  EXPECT_EQ(fabric.distinct_programs(), 2u);
  EXPECT_EQ(&fabric.core(0, 0).code(), &fabric.core(1, 0).code());
  EXPECT_NE(&fabric.core(0, 0).code(), &fabric.core(2, 0).code());
}

TEST(SharedProgram, TilesSharingCodeRunStallAndResetIndependently) {
  const CS1Params arch;
  const SimParams sim;
  const auto code = std::make_shared<const TileCode>(recv_program(), arch);
  TileCore a(code, arch, sim);
  TileCore b(code, arch, sim);
  RouterState router_a;
  RouterState router_b;

  // Only a gets its words: a finishes, b stalls on the dry channel.
  deliver(a, 1.0);
  step(a, router_a, 10);
  step(b, router_b, 10);
  EXPECT_TRUE(a.done());
  EXPECT_FALSE(b.done());
  ASSERT_EQ(b.waits().size(), 1u);
  EXPECT_EQ(b.waits()[0].kind, CoreWait::Kind::RecvChannel);
  EXPECT_EQ(a.host_read_f16(kLen - 1).to_double(), 1.0 + kLen - 1);
  EXPECT_EQ(b.host_read_f16(kLen - 1).to_double(), 0.0);

  // Resetting a leaves b stalled mid-instruction; a waits again from the
  // start, and b's words then land in b only.
  a.reset_control();
  EXPECT_FALSE(a.done());
  EXPECT_FALSE(b.done());
  EXPECT_EQ(b.waits().size(), 1u);
  deliver(b, 10.0);
  step(a, router_a, 10);
  step(b, router_b, 10);
  EXPECT_FALSE(a.done());
  EXPECT_TRUE(b.done());
  ASSERT_EQ(a.waits().size(), 1u);
  EXPECT_EQ(b.host_read_f16(0).to_double(), 10.0);
  EXPECT_EQ(a.host_read_f16(0).to_double(), 1.0);

  // The shared code still holds the start positions.
  EXPECT_EQ(code->program.tensors[0].pos, 0);
  EXPECT_EQ(code->program.fabrics[0].pos, 0);
  EXPECT_EQ(code.use_count(), 3);
}

TEST(SharedProgram, StandaloneCoreOwnsItsCode) {
  const CS1Params arch;
  TileProgram prog = recv_program();
  const TileProgram copy = prog;
  TileCore core(std::move(prog), arch, SimParams{});
  EXPECT_EQ(core.code().program, copy);
  RouterState router;
  deliver(core, 2.0);
  step(core, router, 10);
  EXPECT_TRUE(core.done());
  EXPECT_EQ(core.host_read_f16(2).to_double(), 4.0);
}

TEST(SharedProgram, FabricOutlivesTheArchItWasBuiltFrom) {
  // The fabric copies its CS1Params: a temporary is fine (run this under
  // the sanitizer build to see no stack-use-after-scope).
  Fabric fabric(1, 1, CS1Params{}, SimParams{});
  fabric.configure_tile(0, 0, recv_program(), RoutingTable{});
  deliver(fabric.core(0, 0), 3.0);
  const StopInfo stop = fabric.run(1000);
  EXPECT_EQ(stop.reason, StopInfo::Reason::AllDone);
  EXPECT_EQ(fabric.core(0, 0).host_read_f16(3).to_double(), 6.0);
}

/// The scheduler's rule as the pre-bitset core wrote it: scan every task,
/// take the first ready one, and let a later ready priority task displace
/// a non-priority pick.
struct LinearScheduler {
  std::vector<Task> tasks;

  int pick() const {
    int pick = -1;
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      const Task& t = tasks[i];
      if (!t.activated || t.blocked) continue;
      if (pick < 0 ||
          (t.priority && !tasks[static_cast<std::size_t>(pick)].priority)) {
        pick = static_cast<int>(i);
      }
    }
    return pick;
  }

  /// One scheduler cycle of control-only tasks: pick, clear activated and
  /// run the body's flag steps. Returns the task run, or -1.
  int cycle() {
    const int p = pick();
    if (p < 0) return -1;
    tasks[static_cast<std::size_t>(p)].activated = false;
    for (const TaskStep& s : tasks[static_cast<std::size_t>(p)].steps) {
      Task& target = tasks[static_cast<std::size_t>(s.target)];
      if (s.kind == TaskStep::Kind::Activate) target.activated = true;
      if (s.kind == TaskStep::Kind::Block) target.blocked = true;
      if (s.kind == TaskStep::Kind::Unblock) target.blocked = false;
    }
    return p;
  }
};

TEST(SharedProgram, BitsetPickMatchesLinearRule) {
  proptest::check("bitset scheduler == linear scan", [](proptest::Case& c) {
    // Up to 150 tasks spans three bitset words.
    const int n = c.size(1, 150);
    Rng& rng = c.rng();
    const auto chance = [&](int percent) {
      return rng.below(100) < static_cast<std::uint64_t>(percent);
    };
    TileProgram prog;
    for (int i = 0; i < n; ++i) {
      Task t{"t" + std::to_string(i), chance(20), chance(30), chance(40), {}};
      const int steps = static_cast<int>(rng.below(4));
      for (int k = 0; k < steps; ++k) {
        static constexpr TaskStep::Kind kKinds[] = {TaskStep::Kind::Activate,
                                                    TaskStep::Kind::Block,
                                                    TaskStep::Kind::Unblock};
        t.steps.push_back({kKinds[rng.below(3)], -1, {},
                           static_cast<TaskId>(rng.below(
                               static_cast<std::uint64_t>(n)))});
      }
      prog.add_task(std::move(t));
    }
    prog.initial_task =
        chance(50) ? static_cast<TaskId>(rng.below(static_cast<std::uint64_t>(n)))
                   : kNoTask;

    LinearScheduler start{prog.tasks};
    if (prog.initial_task != kNoTask) {
      start.tasks[static_cast<std::size_t>(prog.initial_task)].activated = true;
    }
    const CS1Params arch;
    TileCore core(std::move(prog), arch, SimParams{});
    Tracer tracer;
    core.set_tracer(&tracer, 0, 0);
    RouterState router;
    // Step the core and the reference side by side: each cycle runs one
    // control-only task to its end, so TaskStart names the pick.
    const auto replay = [&](LinearScheduler ref, int cycles) {
      for (int cycle = 0; cycle < cycles; ++cycle) {
        ASSERT_EQ(core.quiescent(), ref.pick() < 0) << "cycle " << cycle;
        const std::size_t before = tracer.events().size();
        (void)core.step(router);
        const int want = ref.cycle();
        std::string got = "-";
        for (std::size_t e = before; e < tracer.events().size(); ++e) {
          if (tracer.events()[e].kind == TraceEventKind::TaskStart) {
            got = tracer.events()[e].label;
          }
        }
        ASSERT_EQ(got, want < 0 ? "-" : "t" + std::to_string(want))
            << "cycle " << cycle;
      }
    };
    replay(start, 300);
    // reset_control restores the start flags: the run replays from the top.
    core.reset_control();
    replay(start, 50);
  }, {.cases = 24, .seed = 16});
}

} // namespace
} // namespace wss::wse
