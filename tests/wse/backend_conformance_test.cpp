// Backend-differential conformance suite (docs/BACKENDS.md): the turbo
// backend (the occupancy-indexed phases) is a host-side fast path only —
// for any program, any fabric shape, any thread count, and any fault plan,
// a turbo run must be bit-identical to the reference backend (the same
// phases instantiated to scan everything) in every observable: result
// memory, cycle counts, StopInfo, per-tile core/router counters, telemetry
// heatmaps, the fault-injection record — and, on the observed leg, the
// streams of every attached observer (support/observer_compare.hpp). This
// suite generates seeded random fabrics/programs/fault plans
// (support/proptest.hpp, fabricgen) and runs the real kernel programs —
// SpMV, AllReduce, BiCGStab, and a hand-built 9-point stencil halo
// exchange — on both backends at 1, 2, and 8 threads, with and without
// fault plans and observers, asserting exact equality. Each differential
// also asserts the fast path engaged for every cycle: without that, a
// turbo run that silently stepped the reference phases would make every
// comparison vacuously green.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "stencil/generators.hpp"
#include "support/env_guard.hpp"
#include "support/fabric_compare.hpp"
#include "support/observer_compare.hpp"
#include "support/proptest.hpp"
#include "wse/fabric.hpp"
#include "wsekernels/allreduce_program.hpp"
#include "wsekernels/bicgstab_program.hpp"
#include "wsekernels/spmv3d_program.hpp"

namespace wss::wse {
namespace {

namespace fabricgen = proptest::fabricgen;
using testsupport::expect_fabric_state_identical;
using testsupport::expect_faults_identical;
using testsupport::expect_stop_identical;
using testsupport::ObserverSet;

constexpr int kThreadCounts[] = {1, 2, 8};

bool same_bits(float a, float b) {
  std::uint32_t ab = 0;
  std::uint32_t bb = 0;
  static_assert(sizeof ab == sizeof a);
  std::memcpy(&ab, &a, sizeof ab);
  std::memcpy(&bb, &b, sizeof bb);
  return ab == bb;
}

/// Assert the run really used the fast path for every cycle.
void expect_turbo_engaged(const Fabric& f, const std::string& label) {
  EXPECT_EQ(f.turbo_stats().turbo_cycles, f.stats().cycles) << label;
  EXPECT_EQ(f.turbo_stats().promotions, 1u) << label;
  EXPECT_EQ(f.turbo_stats().demotions, 0u) << label;
}

/// Every observer attached to `f` on the observed leg; nothing otherwise.
std::unique_ptr<ObserverSet> observe(Fabric& f, bool observed) {
  if (!observed) return nullptr;
  auto obs = std::make_unique<ObserverSet>(f.width(), f.height());
  obs->attach(f);
  return obs;
}

/// Observed leg only: close both samplers' final windows and demand
/// identical observer streams.
void expect_observed_identical(Fabric& want_f, const ObserverSet* want,
                               Fabric& got_f, const ObserverSet* got,
                               const std::string& label) {
  if (want == nullptr) return;
  want_f.sample_now();
  got_f.sample_now();
  testsupport::expect_observers_identical(*want, *got, label);
}

std::string leg_label(const std::string& what, int threads, bool observed) {
  return what + " threads=" + std::to_string(threads) +
         (observed ? " observed" : "");
}

// --- random generated scenarios -----------------------------------------

/// Receiver memory (offset 0, payload length) must match bit for bit.
void expect_streams_identical(const fabricgen::Scenario& sc,
                              const Fabric& want, const Fabric& got,
                              const std::string& label) {
  for (std::size_t s = 0; s < sc.streams.size(); ++s) {
    const auto& st = sc.streams[s];
    for (std::size_t i = 0; i < st.payload.size(); ++i) {
      EXPECT_EQ(want.core(st.dx, st.dy).host_read_f16(static_cast<int>(i)).bits(),
                got.core(st.dx, st.dy).host_read_f16(static_cast<int>(i)).bits())
          << label << " stream " << s << " word " << i;
    }
  }
}

struct ScenarioRun {
  Fabric fabric;
  StopInfo stop;
  std::unique_ptr<ObserverSet> obs;
};

ScenarioRun run_scenario(const fabricgen::Scenario& sc, Backend backend,
                         int threads, bool observed) {
  // Static: the fabric keeps a pointer to the arch params beyond return.
  static const CS1Params arch;
  SimParams sim;
  sim.sim_threads = threads;
  sim.backend = backend;
  Fabric f = sc.instantiate(arch, sim);
  if (sc.has_faults) f.set_fault_plan(&sc.faults);
  auto obs = observe(f, observed);
  StopInfo stop = f.run(sc.budget);
  return ScenarioRun{std::move(f), std::move(stop), std::move(obs)};
}

/// Both backends at every thread count, observed or not, against the
/// single-thread reference run of the same leg.
void expect_scenario_conforms(const fabricgen::Scenario& sc,
                              ScenarioRun& ref, bool observed) {
  for (const int threads : kThreadCounts) {
    ScenarioRun tur = run_scenario(sc, Backend::Turbo, threads, observed);
    const std::string label =
        leg_label("turbo" + std::string(sc.has_faults ? "+faults" : ""),
                  threads, observed) +
        " fabric " + std::to_string(sc.width) + "x" +
        std::to_string(sc.height);
    expect_stop_identical(ref.stop, tur.stop, label);
    expect_fabric_state_identical(ref.fabric, tur.fabric, label);
    expect_streams_identical(sc, ref.fabric, tur.fabric, label);
    expect_faults_identical(ref.fabric, tur.fabric, label);
    expect_turbo_engaged(tur.fabric, label);
    expect_observed_identical(ref.fabric, ref.obs.get(), tur.fabric,
                              tur.obs.get(), label);
  }
}

TEST(BackendConformance, RandomScenariosBitExact) {
  testsupport::CleanSimEnv env;
  proptest::check(
      "turbo == reference on random fabrics/programs",
      [](proptest::Case& pc) {
        const fabricgen::Scenario sc = fabricgen::make_scenario(pc, false);
        for (const bool observed : {false, true}) {
          ScenarioRun ref = run_scenario(sc, Backend::Reference, 1, observed);
          // Clean scenarios always finish: holes never block a route and
          // colors are disjoint. A holed fabric can't raise all_done
          // (holes have no core), so it settles Quiescent instead.
          const StopInfo::Reason want_reason =
              sc.has_holes() ? StopInfo::Reason::Quiescent
                             : StopInfo::Reason::AllDone;
          ASSERT_EQ(ref.stop.reason, want_reason)
              << StopInfo::to_string(ref.stop.reason);
          // Both backends must also agree with the generated ground truth.
          for (std::size_t s = 0; s < sc.streams.size(); ++s) {
            const auto& st = sc.streams[s];
            for (std::size_t i = 0; i < st.payload.size(); ++i) {
              ASSERT_EQ(ref.fabric.core(st.dx, st.dy)
                            .host_read_f16(static_cast<int>(i))
                            .bits(),
                        st.payload[i].bits())
                  << "stream " << s << " word " << i;
            }
          }
          expect_scenario_conforms(sc, ref, observed);
        }
      },
      {.cases = 5, .seed = 20260807});
}

TEST(BackendConformance, RandomFaultPlansBitExact) {
  testsupport::CleanSimEnv env;
  proptest::check(
      "turbo == reference under random fault plans",
      [](proptest::Case& pc) {
        const fabricgen::Scenario sc = fabricgen::make_scenario(pc, true);
        for (const bool observed : {false, true}) {
          ScenarioRun ref = run_scenario(sc, Backend::Reference, 1, observed);
          expect_scenario_conforms(sc, ref, observed);
        }
      },
      {.cases = 5, .seed = 977});
}

// --- kernel programs ---------------------------------------------------

struct SpmvCase {
  Stencil7<fp16_t> a;
  Field3<fp16_t> v;
};

SpmvCase make_spmv_case(const Grid3& g, std::uint64_t seed) {
  auto ad = make_random_dominant7(g, 0.5, seed);
  Field3<double> b(g, 1.0);
  (void)precondition_jacobi(ad, b);
  SpmvCase c{convert_stencil<fp16_t>(ad), Field3<fp16_t>(g)};
  Rng rng(seed + 1);
  for (std::size_t i = 0; i < c.v.size(); ++i) {
    c.v[i] = fp16_t(rng.uniform(-1.0, 1.0));
  }
  return c;
}

/// Deterministic plan that loses nothing: every wavelet crossing the
/// marked links gets a mantissa bit flipped, and one router stalls for a
/// short window. Both preserve delivery, so kernel programs still finish —
/// with wrong values (and later cycles) that must be wrong IDENTICALLY on
/// both backends.
FaultPlan corrupt_and_stall_plan(int w, int h) {
  FaultPlan plan;
  plan.seed = 99;
  LinkFault east;
  east.x = w / 2;
  east.y = h / 2;
  east.dir = Dir::East;
  east.kind = FaultKind::CorruptWavelet;
  east.probability = 1.0;
  plan.link_faults.push_back(east);
  LinkFault south = east;
  south.dir = Dir::South;
  plan.link_faults.push_back(south);
  RouterStallFault stall;
  stall.x = 0;
  stall.y = h - 1;
  stall.from_cycle = 5;
  stall.until_cycle = 40;
  plan.router_stalls.push_back(stall);
  return plan;
}

/// One kernel simulation leg: build it with `sim`, attach the plan (when
/// given) and the observers (on the observed leg).
template <typename Sim, typename... Args>
struct KernelLeg {
  Sim sim;
  std::unique_ptr<ObserverSet> obs;

  KernelLeg(Backend backend, int threads, const FaultPlan* plan, bool observed,
            const Args&... args)
      : sim(args..., arch(), params(backend, threads)) {
    if (plan != nullptr) sim.fabric().set_fault_plan(plan);
    obs = observe(sim.fabric(), observed);
  }

  static const CS1Params& arch() {
    // Static: the fabric keeps a pointer to the arch params.
    static const CS1Params a;
    return a;
  }
  static SimParams params(Backend backend, int threads) {
    SimParams sim;
    sim.sim_threads = threads;
    sim.backend = backend;
    return sim;
  }
};

/// The shared tail of every kernel differential: fabric state, fault
/// record, fast-path engagement and (observed leg) observer streams.
template <typename Leg>
void expect_legs_identical(Leg& ref, Leg& tur, const std::string& label) {
  expect_fabric_state_identical(ref.sim.fabric(), tur.sim.fabric(), label);
  expect_faults_identical(ref.sim.fabric(), tur.sim.fabric(), label);
  expect_turbo_engaged(tur.sim.fabric(), label);
  expect_observed_identical(ref.sim.fabric(), ref.obs.get(), tur.sim.fabric(),
                            tur.obs.get(), label);
}

/// The plan must have actually fired, or a faulted leg compares nothing.
void expect_plan_fired(const Fabric& f, const FaultPlan* plan) {
  if (plan == nullptr) return;
  ASSERT_GT(f.fault_stats().wavelets_corrupted, 0u);
  ASSERT_GT(f.fault_stats().router_stall_cycles, 0u);
}

// --- kernel programs: SpMV ----------------------------------------------

using SpmvLeg = KernelLeg<wsekernels::SpMV3DSimulation, Stencil7<fp16_t>>;

void check_spmv(const SpmvCase& c, const FaultPlan* plan,
                const std::string& what) {
  for (const bool observed : {false, true}) {
    SpmvLeg ref(Backend::Reference, 1, plan, observed, c.a);
    const auto u_ref = ref.sim.run(c.v);
    expect_plan_fired(ref.sim.fabric(), plan);
    for (const int threads : kThreadCounts) {
      SpmvLeg tur(Backend::Turbo, threads, plan, observed, c.a);
      const auto u = tur.sim.run(c.v);
      const std::string label = leg_label(what, threads, observed);
      ASSERT_EQ(u.size(), u_ref.size());
      for (std::size_t i = 0; i < u.size(); ++i) {
        ASSERT_EQ(u[i].bits(), u_ref[i].bits()) << label << " element " << i;
      }
      EXPECT_EQ(tur.sim.last_run_cycles(), ref.sim.last_run_cycles())
          << label;
      expect_legs_identical(ref, tur, label);
    }
  }
}

TEST(BackendConformance, SpmvBitExactAcrossBackends) {
  testsupport::CleanSimEnv env;
  proptest::check(
      "SpMV turbo == reference",
      [&](proptest::Case& pc) {
        const int w = pc.size(2, 7);
        const int h = pc.size(2, 7);
        const int z = pc.size(4, 20);
        check_spmv(make_spmv_case(Grid3(w, h, z), pc.seed()), nullptr,
                   "spmv turbo fabric " + std::to_string(w) + "x" +
                       std::to_string(h) + " z=" + std::to_string(z));
      },
      {.cases = 3, .seed = 0xC0FFEE});
}

TEST(BackendConformance, SpmvWithFaultPlanBitExactAcrossBackends) {
  testsupport::CleanSimEnv env;
  const int w = 4, h = 4, z = 12;
  const FaultPlan plan = corrupt_and_stall_plan(w, h);
  check_spmv(make_spmv_case(Grid3(w, h, z), 5), &plan, "spmv turbo+faults");
}

// --- kernel programs: AllReduce -----------------------------------------

using AllReduceLeg = KernelLeg<wsekernels::AllReduceSimulation, int, int>;

void check_allreduce(int w, int h, const std::vector<float>& contrib,
                     const FaultPlan* plan, const std::string& what) {
  for (const bool observed : {false, true}) {
    AllReduceLeg ref(Backend::Reference, 1, plan, observed, w, h);
    const auto r_ref = ref.sim.run(contrib);
    expect_plan_fired(ref.sim.fabric(), plan);
    for (const int threads : kThreadCounts) {
      AllReduceLeg tur(Backend::Turbo, threads, plan, observed, w, h);
      const auto r = tur.sim.run(contrib);
      const std::string label = leg_label(what, threads, observed);
      EXPECT_EQ(r.cycles, r_ref.cycles) << label;
      ASSERT_EQ(r.values.size(), r_ref.values.size());
      for (std::size_t i = 0; i < r.values.size(); ++i) {
        ASSERT_TRUE(same_bits(r.values[i], r_ref.values[i]))
            << label << " value " << i;
      }
      expect_legs_identical(ref, tur, label);
    }
  }
}

TEST(BackendConformance, AllReduceBitExactAcrossBackends) {
  testsupport::CleanSimEnv env;
  proptest::check(
      "AllReduce turbo == reference",
      [&](proptest::Case& pc) {
        const int w = pc.size(2, 11);
        const int h = pc.size(2, 11);
        std::vector<float> contrib(static_cast<std::size_t>(w) *
                                   static_cast<std::size_t>(h));
        for (auto& v : contrib) {
          v = static_cast<float>(pc.uniform(-4.0, 4.0));
        }
        check_allreduce(w, h, contrib, nullptr,
                        "allreduce turbo fabric " + std::to_string(w) + "x" +
                            std::to_string(h));
      },
      {.cases = 3, .seed = 4242});
}

TEST(BackendConformance, AllReduceWithFaultPlanBitExactAcrossBackends) {
  testsupport::CleanSimEnv env;
  const int w = 6, h = 5;
  const FaultPlan plan = corrupt_and_stall_plan(w, h);
  std::vector<float> contrib(static_cast<std::size_t>(w) *
                             static_cast<std::size_t>(h));
  Rng rng(11);
  for (auto& v : contrib) v = static_cast<float>(rng.uniform(-2.0, 2.0));
  check_allreduce(w, h, contrib, &plan, "allreduce turbo+faults");
}

// --- kernel programs: BiCGStab ------------------------------------------

using BicgstabLeg =
    KernelLeg<wsekernels::BicgstabSimulation, Stencil7<fp16_t>, int>;

TEST(BackendConformance, BicgstabBitExactAcrossBackends) {
  testsupport::CleanSimEnv env;
  const Grid3 g(4, 3, 8);
  auto ad = make_random_dominant7(g, 0.5, 31);
  Field3<double> bd(g, 1.0);
  (void)precondition_jacobi(ad, bd);
  const auto a = convert_stencil<fp16_t>(ad);
  Field3<fp16_t> b(g);
  Rng rng(32);
  for (std::size_t i = 0; i < b.size(); ++i) {
    b[i] = fp16_t(rng.uniform(-1.0, 1.0));
  }
  const int iterations = 2;
  const FaultPlan faults = corrupt_and_stall_plan(g.nx, g.ny);

  for (const FaultPlan* plan : {static_cast<const FaultPlan*>(nullptr),
                                &faults}) {
    for (const bool observed : {false, true}) {
      BicgstabLeg ref(Backend::Reference, 1, plan, observed, a, iterations);
      const auto r_ref = ref.sim.run(b);
      expect_plan_fired(ref.sim.fabric(), plan);
      for (const int threads : kThreadCounts) {
        BicgstabLeg tur(Backend::Turbo, threads, plan, observed, a,
                        iterations);
        const auto r = tur.sim.run(b);
        const std::string label = leg_label(
            plan != nullptr ? "bicgstab turbo+faults" : "bicgstab turbo",
            threads, observed);
        EXPECT_EQ(r.cycles, r_ref.cycles) << label;
        EXPECT_EQ(r.iterations, r_ref.iterations) << label;
        ASSERT_EQ(r.x.size(), r_ref.x.size());
        for (std::size_t i = 0; i < r.x.size(); ++i) {
          ASSERT_EQ(r.x[i].bits(), r_ref.x[i].bits()) << label << " x " << i;
          ASSERT_EQ(r.r[i].bits(), r_ref.r[i].bits()) << label << " r " << i;
        }
        ASSERT_EQ(r.rho_history.size(), r_ref.rho_history.size());
        for (std::size_t i = 0; i < r.rho_history.size(); ++i) {
          ASSERT_TRUE(same_bits(r.rho_history[i], r_ref.rho_history[i]))
              << label << " rho " << i;
        }
        expect_legs_identical(ref, tur, label);
      }
    }
  }
}

// --- kernel programs: 9-point stencil halo exchange ---------------------
//
// The paper's spmv2d works a 2D domain with a separable halo exchange:
// corner neighbors travel two one-hop legs (east/west first, then the
// row-summed values north/south). This program reproduces that shape as a
// pure fabric workload: each tile holds L fp16 values, exchanges with its
// row neighbors, accumulates a row sum, exchanges that with its column
// neighbors, and finishes with the full 9-point neighborhood sum. Colors
// are parity-split per direction so a forwarding rule and a delivery rule
// for the same color never land on one tile:
//   east sends:  color x%2       west sends:  color 2 + x%2
//   south sends: color 4 + y%2   north sends: color 6 + y%2
// Delivery channel == color. L <= 4 keeps every Send within the output
// queue depth, so sends complete without the receiver draining (no
// send-chain deadlock by construction).

TileProgram stencil9_program(int x, int y, int w, int h, int len) {
  TileProgram prog;
  MemAllocator mem(48 * 1024);
  const int own = mem.allocate(len, DType::F16);
  const int acc = mem.allocate(len, DType::F16);
  const int res = mem.allocate(len, DType::F16);

  // Every instruction gets its own tensor descriptor: descriptors are
  // stateful (pos advances as elements stream), so reuse would leave a
  // later instruction with an exhausted view.
  const auto tensor = [&](int base) {
    return prog.add_tensor({base, len, 1, DType::F16, 0});
  };
  Task t{"stencil9", false, false, false, {}};
  const auto sync = [&](Instr in) {
    t.steps.push_back({TaskStep::Kind::Sync, -1, in, kNoTask});
  };
  const auto copy = [&](int dst_base, int src_base) {
    Instr cp{};
    cp.op = OpKind::CopyV;
    cp.dst = tensor(dst_base);
    cp.src1 = tensor(src_base);
    sync(cp);
  };
  const auto send = [&](int src_base, int color) {
    Instr s{};
    s.op = OpKind::Send;
    s.src1 = tensor(src_base);
    s.fabric = prog.add_fabric({static_cast<Color>(color), len, DType::F16, 0,
                                kNoTask, TrigAction::None});
    sync(s);
  };
  const auto recv_add = [&](int dst_base, int channel) {
    Instr r{};
    r.op = OpKind::RecvAddTo;
    r.dst = tensor(dst_base);
    r.fabric = prog.add_fabric(
        {channel, len, DType::F16, 0, kNoTask, TrigAction::None});
    sync(r);
  };

  copy(acc, own);                               // acc = own
  if (x + 1 < w) send(own, x % 2);              // own -> east neighbor
  if (x > 0) send(own, 2 + x % 2);              // own -> west neighbor
  if (x > 0) recv_add(acc, (x - 1) % 2);        // acc += west own
  if (x + 1 < w) recv_add(acc, 2 + (x + 1) % 2);  // acc += east own
  copy(res, acc);                               // res = row sum
  if (y + 1 < h) send(acc, 4 + y % 2);          // row sum -> south
  if (y > 0) send(acc, 6 + y % 2);              // row sum -> north
  if (y > 0) recv_add(res, 4 + (y - 1) % 2);    // res += north row sum
  if (y + 1 < h) recv_add(res, 6 + (y + 1) % 2);  // res += south row sum
  t.steps.push_back({TaskStep::Kind::SetDone, -1, {}, kNoTask});
  prog.add_task(std::move(t));
  prog.initial_task = 0;
  prog.memory_halfwords = mem.used_halfwords();
  return prog;
}

RoutingTable stencil9_routes(int x, int y, int w, int h) {
  RoutingTable rt;
  if (x + 1 < w) rt.rule(static_cast<Color>(x % 2)).add_forward(Dir::East);
  if (x > 0) {
    rt.rule(static_cast<Color>(2 + x % 2)).add_forward(Dir::West);
    rt.rule(static_cast<Color>((x - 1) % 2))
        .deliver_channels.push_back((x - 1) % 2);
  }
  if (x + 1 < w) {
    rt.rule(static_cast<Color>(2 + (x + 1) % 2))
        .deliver_channels.push_back(2 + (x + 1) % 2);
  }
  if (y + 1 < h) rt.rule(static_cast<Color>(4 + y % 2)).add_forward(Dir::South);
  if (y > 0) {
    rt.rule(static_cast<Color>(6 + y % 2)).add_forward(Dir::North);
    rt.rule(static_cast<Color>(4 + (y - 1) % 2))
        .deliver_channels.push_back(4 + (y - 1) % 2);
  }
  if (y + 1 < h) {
    rt.rule(static_cast<Color>(6 + (y + 1) % 2))
        .deliver_channels.push_back(6 + (y + 1) % 2);
  }
  return rt;
}

struct Stencil9Run {
  Fabric fabric;
  StopInfo stop;
  std::unique_ptr<ObserverSet> obs;
};

Stencil9Run run_stencil9(int w, int h, int len,
                         const std::vector<fp16_t>& values, Backend backend,
                         int threads, const FaultPlan* plan, bool observed) {
  // Static: the fabric keeps a pointer to the arch params beyond return.
  static const CS1Params arch;
  SimParams sim;
  sim.sim_threads = threads;
  sim.backend = backend;
  Fabric f(w, h, arch, sim);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      f.configure_tile(x, y, stencil9_program(x, y, w, h, len),
                       stencil9_routes(x, y, w, h));
      for (int i = 0; i < len; ++i) {
        f.core(x, y).host_write_f16(
            i, values[static_cast<std::size_t>((y * w + x) * len + i)]);
      }
    }
  }
  if (plan != nullptr) f.set_fault_plan(plan);
  auto obs = observe(f, observed);
  StopInfo stop = f.run(20000);
  return Stencil9Run{std::move(f), std::move(stop), std::move(obs)};
}

/// Host mirror of the program's exact fp16 accumulation order:
/// rowsum = (own + west) + east; result = (rowsum + north) + south.
std::vector<fp16_t> stencil9_expected(int w, int h, int len,
                                      const std::vector<fp16_t>& values) {
  const auto at = [&](int x, int y, int i) {
    return values[static_cast<std::size_t>((y * w + x) * len + i)];
  };
  std::vector<fp16_t> rowsum(values.size());
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      for (int i = 0; i < len; ++i) {
        fp16_t s = at(x, y, i);
        if (x > 0) s = s + at(x - 1, y, i);
        if (x + 1 < w) s = s + at(x + 1, y, i);
        rowsum[static_cast<std::size_t>((y * w + x) * len + i)] = s;
      }
    }
  }
  std::vector<fp16_t> result(values.size());
  const auto rs = [&](int x, int y, int i) {
    return rowsum[static_cast<std::size_t>((y * w + x) * len + i)];
  };
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      for (int i = 0; i < len; ++i) {
        fp16_t s = rs(x, y, i);
        if (y > 0) s = s + rs(x, y - 1, i);
        if (y + 1 < h) s = s + rs(x, y + 1, i);
        result[static_cast<std::size_t>((y * w + x) * len + i)] = s;
      }
    }
  }
  return result;
}

/// Reference at one thread against turbo at every thread count, observed
/// or not. Without a plan the reference result is anchored to
/// `expected` — the program must compute the 9-point neighborhood sum in
/// the documented fp16 order, so the differential is tied to ground truth,
/// not just to itself.
void check_stencil9(int w, int h, int len, const std::vector<fp16_t>& values,
                    const FaultPlan* plan, const std::string& what) {
  // res sits after own and acc in tile memory.
  const int res_base = 2 * len;
  const std::vector<fp16_t> expected = stencil9_expected(w, h, len, values);
  for (const bool observed : {false, true}) {
    Stencil9Run ref = run_stencil9(w, h, len, values, Backend::Reference, 1,
                                   plan, observed);
    ASSERT_EQ(ref.stop.reason, StopInfo::Reason::AllDone)
        << StopInfo::to_string(ref.stop.reason);
    expect_plan_fired(ref.fabric, plan);
    for (int y = 0; plan == nullptr && y < h; ++y) {
      for (int x = 0; x < w; ++x) {
        for (int i = 0; i < len; ++i) {
          ASSERT_EQ(
              ref.fabric.core(x, y).host_read_f16(res_base + i).bits(),
              expected[static_cast<std::size_t>((y * w + x) * len + i)].bits())
              << "tile (" << x << "," << y << ") elem " << i;
        }
      }
    }
    for (const int threads : kThreadCounts) {
      Stencil9Run tur = run_stencil9(w, h, len, values, Backend::Turbo,
                                     threads, plan, observed);
      const std::string label = leg_label(what, threads, observed);
      expect_stop_identical(ref.stop, tur.stop, label);
      expect_fabric_state_identical(ref.fabric, tur.fabric, label);
      expect_faults_identical(ref.fabric, tur.fabric, label);
      for (int y = 0; y < h; ++y) {
        for (int x = 0; x < w; ++x) {
          for (int i = 0; i < len; ++i) {
            ASSERT_EQ(tur.fabric.core(x, y).host_read_f16(res_base + i).bits(),
                      ref.fabric.core(x, y).host_read_f16(res_base + i).bits())
                << label << " tile (" << x << "," << y << ") elem " << i;
          }
        }
      }
      expect_turbo_engaged(tur.fabric, label);
      expect_observed_identical(ref.fabric, ref.obs.get(), tur.fabric,
                                tur.obs.get(), label);
    }
  }
}

TEST(BackendConformance, Stencil9ExchangeBitExactAcrossBackends) {
  testsupport::CleanSimEnv env;
  proptest::check(
      "9-point stencil exchange turbo == reference",
      [&](proptest::Case& pc) {
        const int w = pc.size(2, 6);
        const int h = pc.size(2, 6);
        const int len = pc.size(1, 4);
        std::vector<fp16_t> values(
            static_cast<std::size_t>(w * h * len));
        for (auto& v : values) v = fp16_t(pc.uniform(-1.0, 1.0));
        check_stencil9(w, h, len, values, nullptr,
                       "stencil9 turbo fabric " + std::to_string(w) + "x" +
                           std::to_string(h));
      },
      {.cases = 4, .seed = 1859});
}

TEST(BackendConformance, Stencil9WithFaultPlanBitExactAcrossBackends) {
  testsupport::CleanSimEnv env;
  const int w = 5, h = 4, len = 3;
  const FaultPlan plan = corrupt_and_stall_plan(w, h);
  std::vector<fp16_t> values(static_cast<std::size_t>(w * h * len));
  Rng rng(21);
  for (auto& v : values) v = fp16_t(rng.uniform(-1.0, 1.0));
  check_stencil9(w, h, len, values, &plan, "stencil9 turbo+faults");
}

} // namespace
} // namespace wss::wse
