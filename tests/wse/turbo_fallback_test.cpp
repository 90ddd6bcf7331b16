// The turbo backend's engagement rules (docs/BACKENDS.md): every observer
// — tracer, profiler, flight recorder, time-series sampler, net monitor,
// watchdog — and every fault plan runs on the occupancy-indexed loop, so
// attaching one mid-run leaves the fast path engaged for every cycle and
// every observable (cycles, counters, results, trace streams) exactly
// where a pure reference run puts it. Contention, parked cores,
// reset_control and mid-run backend switches are covered too, as is
// backend selection via WSS_SIM_BACKEND / SimParams::backend /
// set_backend.

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "support/env_guard.hpp"
#include "support/fabric_compare.hpp"
#include "support/observer_compare.hpp"
#include "support/proptest.hpp"
#include "telemetry/flightrec.hpp"
#include "telemetry/netmon.hpp"
#include "telemetry/profiler.hpp"
#include "telemetry/timeseries.hpp"
#include "wse/fabric.hpp"
#include "wse/trace.hpp"

namespace wss::wse {
namespace {

namespace fabricgen = proptest::fabricgen;
using testsupport::expect_fabric_state_identical;

std::vector<fp16_t> make_payload(int len, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<fp16_t> payload(static_cast<std::size_t>(len));
  for (auto& v : payload) v = fp16_t(rng.uniform(-4.0, 4.0));
  return payload;
}

/// 2x1 fabric, one east stream on color 0: sender (0,0) -> receiver (1,0).
Fabric make_stream_fabric(const std::vector<fp16_t>& payload, Backend backend,
                          int threads = 1) {
  static const CS1Params arch;
  SimParams sim;
  sim.sim_threads = threads;
  sim.backend = backend;
  const int len = static_cast<int>(payload.size());
  std::vector<std::vector<RoutingTable>> tables(2,
                                                std::vector<RoutingTable>(1));
  fabricgen::add_xy_route(tables, 0, 0, 1, 0, 0);
  Fabric f(2, 1, arch, sim);
  f.configure_tile(0, 0, fabricgen::sender(0, len), tables[0][0]);
  f.configure_tile(1, 0, fabricgen::receiver(0, len), tables[1][0]);
  for (int i = 0; i < len; ++i) {
    f.core(0, 0).host_write_f16(i, payload[static_cast<std::size_t>(i)]);
  }
  return f;
}

void expect_payload_delivered(const Fabric& f,
                              const std::vector<fp16_t>& payload,
                              const std::string& label) {
  for (std::size_t i = 0; i < payload.size(); ++i) {
    EXPECT_EQ(f.core(1, 0).host_read_f16(static_cast<int>(i)).bits(),
              payload[i].bits())
        << label << " word " << i;
  }
}

/// The attach/detach experiment: 3 turbo cycles, attach, 2 attached
/// cycles, detach, finish the run — then replay the same cycle schedule on
/// a reference twin with nothing attached. Observers only observe and an
/// empty plan injects nothing, so the attach must be invisible in the
/// state, and no cycle may leave the fast path.
template <typename Attach, typename Detach>
void check_attach_keeps_fast_path(const std::string& label, Attach attach,
                                  Detach detach) {
  testsupport::CleanSimEnv env;
  const std::vector<fp16_t> payload = make_payload(8, 3);

  Fabric turbo = make_stream_fabric(payload, Backend::Turbo);
  for (int i = 0; i < 3; ++i) turbo.step();
  ASSERT_TRUE(turbo.turbo_active()) << label;

  attach(turbo);
  EXPECT_TRUE(turbo.turbo_active()) << label << " (attached)";
  turbo.step();
  turbo.step();
  EXPECT_EQ(turbo.turbo_stats().turbo_cycles, 5u) << label;
  EXPECT_EQ(turbo.stats().cycles, 5u) << label;

  detach(turbo);
  EXPECT_TRUE(turbo.turbo_active()) << label << " (detached)";
  (void)turbo.run(1000);
  EXPECT_TRUE(turbo.all_done()) << label;
  EXPECT_EQ(turbo.turbo_stats().turbo_cycles, turbo.stats().cycles) << label;
  EXPECT_EQ(turbo.turbo_stats().promotions, 1u) << label;
  EXPECT_EQ(turbo.turbo_stats().demotions, 0u) << label;

  Fabric ref = make_stream_fabric(payload, Backend::Reference);
  for (int i = 0; i < 5; ++i) ref.step();
  (void)ref.run(1000);
  EXPECT_TRUE(ref.all_done()) << label;
  expect_fabric_state_identical(ref, turbo, label);
  expect_payload_delivered(turbo, payload, label);
}

// The next six tests keep the names they had when attaching a hook demoted
// the fabric to the reference loop; each now checks that the same attach
// and detach schedule stays on the fast path.

TEST(TurboFallback, TracerAttachDemotesAndRepromotes) {
  Tracer tracer(1 << 14);
  check_attach_keeps_fast_path(
      "tracer", [&](Fabric& f) { f.set_tracer(&tracer); },
      [](Fabric& f) { f.set_tracer(nullptr); });
}

TEST(TurboFallback, ProfilerAttachDemotesAndRepromotes) {
  telemetry::Profiler profiler(2, 1);
  check_attach_keeps_fast_path(
      "profiler", [&](Fabric& f) { f.set_profiler(&profiler); },
      [](Fabric& f) { f.set_profiler(nullptr); });
}

TEST(TurboFallback, FlightRecorderAttachDemotesAndRepromotes) {
  telemetry::FlightRecorder rec(2, 1, 8);
  check_attach_keeps_fast_path(
      "flightrec", [&](Fabric& f) { f.set_flight_recorder(&rec); },
      [](Fabric& f) { f.set_flight_recorder(nullptr); });
}

TEST(TurboFallback, SamplerAttachDemotesAndRepromotes) {
  telemetry::TimeSeriesSampler sampler(16);
  check_attach_keeps_fast_path(
      "sampler", [&](Fabric& f) { f.set_sampler(&sampler); },
      [](Fabric& f) { f.set_sampler(nullptr); });
}

TEST(TurboFallback, WatchdogDemotesAndClearingRepromotes) {
  check_attach_keeps_fast_path(
      "watchdog", [](Fabric& f) { f.set_watchdog(100000); },
      [](Fabric& f) { f.set_watchdog(0); });
}

TEST(TurboFallback, FaultPlanAttachDemotesEvenWhenEmpty) {
  // An attached EMPTY plan changes nothing about simulated behaviour
  // (docs/ROBUSTNESS.md); its hooks run inside the fast loop.
  const FaultPlan plan;
  check_attach_keeps_fast_path(
      "empty fault plan", [&](Fabric& f) { f.set_fault_plan(&plan); },
      [](Fabric& f) { f.set_fault_plan(nullptr); });
}

TEST(TurboFallback, NetMonitorAttachKeepsTheFastPath) {
  telemetry::NetMonitor netmon;
  check_attach_keeps_fast_path(
      "netmon", [&](Fabric& f) { f.set_net_monitor(&netmon); },
      [](Fabric& f) { f.set_net_monitor(nullptr); });
}

TEST(TurboFallback, TracerStreamMatchesReferenceAroundDemotion) {
  // A tracer attached to a turbo fabric for a two-cycle window records on
  // the fast path; a reference fabric with the identical attach schedule
  // must record the identical stream.
  testsupport::CleanSimEnv env;
  const std::vector<fp16_t> payload = make_payload(8, 7);

  Tracer t_turbo(1 << 14);
  Fabric turbo = make_stream_fabric(payload, Backend::Turbo);
  for (int i = 0; i < 3; ++i) turbo.step();
  turbo.set_tracer(&t_turbo);
  turbo.step();
  turbo.step();
  turbo.set_tracer(nullptr);
  (void)turbo.run(1000);

  Tracer t_ref(1 << 14);
  Fabric ref = make_stream_fabric(payload, Backend::Reference);
  for (int i = 0; i < 3; ++i) ref.step();
  ref.set_tracer(&t_ref);
  ref.step();
  ref.step();
  ref.set_tracer(nullptr);
  (void)ref.run(1000);

  ASSERT_FALSE(t_ref.events().empty());
  testsupport::expect_traces_identical(t_ref, t_turbo, "tracer stream");
  EXPECT_EQ(turbo.turbo_stats().turbo_cycles, turbo.stats().cycles);
  expect_fabric_state_identical(ref, turbo, "tracer stream");
}

// --- contention: a native fast-path event -------------------------------

/// Receiver that copies a scratch vector first (a deliberate delay), so
/// the sender's stream backs up through ramp, input latch, and output
/// queue while the receiver is busy — guaranteed route-phase backpressure.
TileProgram delayed_receiver(int channel, int len, int delay_elems) {
  TileProgram prog;
  MemAllocator mem(48 * 1024);
  // Receive buffer first: the payload checks read from halfword offset 0.
  const int buf = mem.allocate(len, DType::F16);
  const int scratch_a = mem.allocate(delay_elems, DType::F16);
  const int scratch_b = mem.allocate(delay_elems, DType::F16);
  const int t_sa = prog.add_tensor({scratch_a, delay_elems, 1, DType::F16, 0});
  const int t_sb = prog.add_tensor({scratch_b, delay_elems, 1, DType::F16, 0});
  const int t_dst = prog.add_tensor({buf, len, 1, DType::F16, 0});
  const int f_rx = prog.add_fabric(
      {channel, len, DType::F16, 0, kNoTask, TrigAction::None});
  Task t{"delayed_recv", false, false, false, {}};
  Instr cp{};
  cp.op = OpKind::CopyV;
  cp.dst = t_sb;
  cp.src1 = t_sa;
  t.steps.push_back({TaskStep::Kind::Sync, -1, cp, kNoTask});
  Instr r{};
  r.op = OpKind::RecvToMem;
  r.dst = t_dst;
  r.fabric = f_rx;
  t.steps.push_back({TaskStep::Kind::Sync, -1, r, kNoTask});
  t.steps.push_back({TaskStep::Kind::SetDone, -1, {}, kNoTask});
  prog.add_task(std::move(t));
  prog.initial_task = 0;
  prog.memory_halfwords = mem.used_halfwords();
  return prog;
}

TEST(TurboFallback, ContentionStaysOnTheFastPath) {
  testsupport::CleanSimEnv env;
  static const CS1Params arch;
  const std::vector<fp16_t> payload = make_payload(31, 13);
  const int len = static_cast<int>(payload.size());

  const auto build = [&](Backend backend) {
    SimParams sim;
    sim.sim_threads = 1;
    sim.backend = backend;
    std::vector<std::vector<RoutingTable>> tables(
        2, std::vector<RoutingTable>(1));
    fabricgen::add_xy_route(tables, 0, 0, 1, 0, 0);
    Fabric f(2, 1, arch, sim);
    f.configure_tile(0, 0, fabricgen::sender(0, len), tables[0][0]);
    f.configure_tile(1, 0, delayed_receiver(0, len, /*delay_elems=*/256),
                     tables[1][0]);
    for (int i = 0; i < len; ++i) {
      f.core(0, 0).host_write_f16(i, payload[static_cast<std::size_t>(i)]);
    }
    return f;
  };

  Fabric turbo = build(Backend::Turbo);
  (void)turbo.run(5000);
  ASSERT_TRUE(turbo.all_done());
  // Backpressure happened, was counted — and never left the fast path.
  EXPECT_GT(turbo.turbo_stats().contended_tile_cycles, 0u);
  EXPECT_EQ(turbo.turbo_stats().turbo_cycles, turbo.stats().cycles);

  Fabric ref = build(Backend::Reference);
  (void)ref.run(5000);
  ASSERT_TRUE(ref.all_done());
  expect_fabric_state_identical(ref, turbo, "contention");
  expect_payload_delivered(turbo, payload, "contention");
}

TEST(TurboFallback, ParkedOceanIsCountedAndBitExact) {
  // One corner-to-corner stream on a 6x6 fabric: the other 34 tiles raise
  // done immediately and must spend the rest of the run parked.
  testsupport::CleanSimEnv env;
  fabricgen::Scenario sc;
  sc.width = 6;
  sc.height = 6;
  sc.configured.assign(36, 1);
  fabricgen::Stream st;
  st.sx = 0;
  st.sy = 0;
  st.dx = 5;
  st.dy = 5;
  st.color = 0;
  st.payload = make_payload(8, 17);
  sc.streams.push_back(st);

  static const CS1Params arch;
  SimParams tur_sim;
  tur_sim.sim_threads = 1;
  tur_sim.backend = Backend::Turbo;
  Fabric turbo = sc.instantiate(arch, tur_sim);
  (void)turbo.run(5000);
  ASSERT_TRUE(turbo.all_done());
  EXPECT_GT(turbo.turbo_stats().parked_tile_cycles, 0u);
  EXPECT_EQ(turbo.turbo_stats().turbo_cycles, turbo.stats().cycles);

  SimParams ref_sim;
  ref_sim.sim_threads = 1;
  ref_sim.backend = Backend::Reference;
  Fabric ref = sc.instantiate(arch, ref_sim);
  (void)ref.run(5000);
  expect_fabric_state_identical(ref, turbo, "parked ocean");
}

// --- backend selection --------------------------------------------------

TEST(TurboFallback, BackendResolvesFromParamsAndEnv) {
  testsupport::CleanSimEnv env;
  static const CS1Params arch;
  SimParams sim; // backend = Auto

  {
    Fabric f(2, 1, arch, sim);
    EXPECT_EQ(f.backend(), Backend::Turbo); // Auto, env unset
  }
  env.backend.set("turbo");
  {
    Fabric f(2, 1, arch, sim);
    EXPECT_EQ(f.backend(), Backend::Turbo);
  }
  env.backend.set("reference");
  {
    Fabric f(2, 1, arch, sim);
    EXPECT_EQ(f.backend(), Backend::Reference);
  }
  // Empty and unknown values are hard configuration errors, not silent
  // fallbacks to a default backend. Empty-but-set is rejected by the
  // strict env parser, unknown names by the backend resolver.
  env.backend.set("");
  EXPECT_THROW(Fabric(2, 1, arch, sim), std::runtime_error);
  env.backend.set("warp");
  EXPECT_THROW(Fabric(2, 1, arch, sim), std::invalid_argument);

  // An explicit SimParams::backend beats the environment.
  env.backend.set("reference");
  SimParams pinned = sim;
  pinned.backend = Backend::Turbo;
  {
    Fabric f(2, 1, arch, pinned);
    EXPECT_EQ(f.backend(), Backend::Turbo);
  }

  // set_backend(Auto) re-resolves against the env at call time.
  env.backend.set("turbo");
  {
    SimParams ref_params = sim;
    ref_params.backend = Backend::Reference;
    Fabric f(2, 1, arch, ref_params);
    EXPECT_EQ(f.backend(), Backend::Reference);
    f.set_backend(Backend::Auto);
    EXPECT_EQ(f.backend(), Backend::Turbo);
  }
}

TEST(TurboFallback, SetBackendMidRunIsSilentAndBitExact) {
  // Both backends keep the per-tile flags exact, so a switch needs no
  // resync; each return to the fast loop counts one promotion.
  testsupport::CleanSimEnv env;
  const std::vector<fp16_t> payload = make_payload(8, 23);

  Fabric f = make_stream_fabric(payload, Backend::Turbo);
  f.step();
  f.step();
  f.set_backend(Backend::Reference);
  f.step();
  f.step();
  f.set_backend(Backend::Turbo);
  (void)f.run(1000);
  ASSERT_TRUE(f.all_done());
  EXPECT_EQ(f.turbo_stats().demotions, 0u);
  EXPECT_EQ(f.turbo_stats().promotions, 2u);

  Fabric ref = make_stream_fabric(payload, Backend::Reference);
  for (int i = 0; i < 4; ++i) ref.step();
  (void)ref.run(1000);
  expect_fabric_state_identical(ref, f, "mid-run switch");
  expect_payload_delivered(f, payload, "mid-run switch");
}

TEST(TurboFallback, ResetControlRebuildsTheMirror) {
  testsupport::CleanSimEnv env;
  const std::vector<fp16_t> payload = make_payload(8, 29);

  Fabric turbo = make_stream_fabric(payload, Backend::Turbo);
  (void)turbo.run(1000);
  ASSERT_TRUE(turbo.all_done());
  EXPECT_EQ(turbo.turbo_stats().promotions, 1u);

  // Second run over the same loaded data: reset_control rebuilds the
  // per-tile flags in place, so the fast loop carries on without a new
  // promotion.
  turbo.reset_control();
  for (std::size_t i = 0; i < payload.size(); ++i) {
    turbo.core(0, 0).host_write_f16(static_cast<int>(i), payload[i]);
  }
  (void)turbo.run(1000);
  ASSERT_TRUE(turbo.all_done());
  EXPECT_EQ(turbo.turbo_stats().promotions, 1u);
  EXPECT_EQ(turbo.turbo_stats().turbo_cycles, turbo.stats().cycles);

  Fabric ref = make_stream_fabric(payload, Backend::Reference);
  (void)ref.run(1000);
  ref.reset_control();
  for (std::size_t i = 0; i < payload.size(); ++i) {
    ref.core(0, 0).host_write_f16(static_cast<int>(i), payload[i]);
  }
  (void)ref.run(1000);
  expect_fabric_state_identical(ref, turbo, "reset_control rerun");
  expect_payload_delivered(turbo, payload, "reset_control rerun");
}

} // namespace
} // namespace wss::wse
