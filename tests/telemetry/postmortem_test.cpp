// Post-mortem forensics tests (telemetry/postmortem.hpp): the crafted
// two-tile mutual-block deadlock whose wait-for graph must name the exact
// color cycle, bundle write -> load -> self-check round trips, the
// RunForensics env-driven attachment scope, and first-divergence diffing
// of a fault-injected run against its clean twin.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "telemetry/artifact.hpp"
#include "telemetry/flightrec.hpp"
#include "telemetry/postmortem.hpp"
#include "telemetry/profiler.hpp"
#include "telemetry/timeseries.hpp"
#include "wse/fabric.hpp"
#include "wse/fault.hpp"

namespace wss::wse {
namespace {

using telemetry::AnomalyInfo;
using telemetry::Bundle;
using telemetry::Divergence;
using telemetry::FlightRecorder;
using telemetry::PostmortemInputs;
using telemetry::ScalarHistory;
using telemetry::WaitForGraph;

/// Restores one environment variable on scope exit.
class EnvGuard {
public:
  explicit EnvGuard(const char* name) : name_(name) {
    const char* cur = std::getenv(name);
    if (cur != nullptr) {
      had_ = true;
      saved_ = cur;
    }
    ::unsetenv(name);
  }
  ~EnvGuard() {
    if (had_) {
      ::setenv(name_, saved_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }
  EnvGuard(const EnvGuard&) = delete;
  EnvGuard& operator=(const EnvGuard&) = delete;
  void set(const char* value) { ::setenv(name_, value, 1); }

private:
  const char* name_;
  bool had_ = false;
  std::string saved_;
};

std::string temp_dir(const std::string& leaf) {
  return ::testing::TempDir() + "wss_postmortem_" + leaf;
}

bool file_exists(const std::string& path) {
  return std::ifstream(path).good();
}

// --- program builders (tests/wse/fabric_test.cpp idiom) -----------------

TileProgram sender_program(Color color, int len) {
  TileProgram prog;
  MemAllocator mem(48 * 1024);
  const int buf = mem.allocate(len, DType::F16);
  const int t_src = prog.add_tensor({buf, len, 1, DType::F16, 0});
  const int f_tx = prog.add_fabric({color, len, DType::F16, 0, kNoTask,
                                    TrigAction::None});
  Task t{"send", false, false, false, {}};
  Instr s{};
  s.op = OpKind::Send;
  s.src1 = t_src;
  s.fabric = f_tx;
  t.steps.push_back({TaskStep::Kind::Sync, -1, s, kNoTask});
  t.steps.push_back({TaskStep::Kind::SetDone, -1, {}, kNoTask});
  prog.add_task(std::move(t));
  prog.initial_task = 0;
  prog.memory_halfwords = mem.used_halfwords();
  return prog;
}

TileProgram receiver_program(int channel, int len, int* buf_out) {
  TileProgram prog;
  MemAllocator mem(48 * 1024);
  const int buf = mem.allocate(len, DType::F16);
  *buf_out = buf;
  const int t_dst = prog.add_tensor({buf, len, 1, DType::F16, 0});
  const int f_rx = prog.add_fabric({channel, len, DType::F16, 0, kNoTask,
                                    TrigAction::None});
  Task t{"recv", false, false, false, {}};
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

/// The crafted mutual block: tile (0,0) waits for color 2, which only
/// (1,0) could send west; tile (1,0) waits for color 1, which only (0,0)
/// could send east. Neither ever sends — a two-tile wait-for loop.
Fabric make_mutual_block_fabric() {
  static const CS1Params arch;
  Fabric fabric(2, 1, arch, SimParams{});
  int buf = 0;
  RoutingTable a;
  a.rule(2).deliver_channels.push_back(2);
  a.rule(1).add_forward(Dir::East);
  fabric.configure_tile(0, 0, receiver_program(2, 4, &buf), a);
  RoutingTable b;
  b.rule(1).deliver_channels.push_back(1);
  b.rule(2).add_forward(Dir::West);
  fabric.configure_tile(1, 0, receiver_program(1, 4, &buf), b);
  return fabric;
}

// --- watchdog + wait-for graph ------------------------------------------

TEST(Watchdog, MutualBlockStopsWithDeadlockForensics) {
  Fabric fabric = make_mutual_block_fabric();
  fabric.set_watchdog(50);
  const StopInfo stop = fabric.run(100000);
  EXPECT_EQ(stop.reason, StopInfo::Reason::Watchdog);
  EXPECT_TRUE(stop.deadlock);
  EXPECT_FALSE(fabric.all_done());
  EXPECT_GE(stop.stalled_cycles, 50u);
  EXPECT_LT(stop.cycles, 100000u) << "watchdog should stop well short of "
                                     "the cycle budget";
  ASSERT_EQ(stop.blocked_tiles.size(), 2u);
  EXPECT_EQ(stop.blocked_tiles[0], (std::pair<int, int>{0, 0}));
  EXPECT_EQ(stop.blocked_tiles[1], (std::pair<int, int>{1, 0}));
  EXPECT_NE(stop.report.find("watchdog"), std::string::npos) << stop.report;
  EXPECT_NE(stop.report.find("(0,0)"), std::string::npos) << stop.report;
  EXPECT_NE(stop.report.find("(1,0)"), std::string::npos) << stop.report;
}

TEST(WaitForGraph, MutualBlockNamesTheExactColorCycle) {
  Fabric fabric = make_mutual_block_fabric();
  fabric.set_watchdog(50);
  (void)fabric.run(100000);

  const WaitForGraph graph = telemetry::build_wait_for_graph(fabric);
  // Both edges of the loop, with the awaited colors attached.
  bool a_to_b = false;
  bool b_to_a = false;
  for (const auto& e : graph.edges) {
    if (e.from_x == 0 && e.from_y == 0 && e.to_x == 1 && e.to_y == 0 &&
        e.color == 2) {
      a_to_b = true;
    }
    if (e.from_x == 1 && e.from_y == 0 && e.to_x == 0 && e.to_y == 0 &&
        e.color == 1) {
      b_to_a = true;
    }
  }
  EXPECT_TRUE(a_to_b);
  EXPECT_TRUE(b_to_a);
  // Cycle detection names the loop in fabric coordinates.
  ASSERT_FALSE(graph.cycles.empty());
  EXPECT_EQ(graph.cycles[0].name, "(0,0) --c2--> (1,0) --c1--> (0,0)");
  // Every tile in the loop is blocked, with its recv task identified.
  ASSERT_EQ(graph.blocked.size(), 2u);
  for (const auto& t : graph.blocked) {
    EXPECT_EQ(t.task, "recv") << "(" << t.x << "," << t.y << ")";
    EXPECT_FALSE(t.state.empty());
  }
  // A closed loop has no terminal suspects.
  EXPECT_TRUE(graph.terminals.empty());
}

// --- bundle write / load / self-check -----------------------------------

TEST(Bundle, WriteLoadSelfCheckRoundTrip) {
  Fabric fabric = make_mutual_block_fabric();
  FlightRecorder rec(2, 1, 32);
  fabric.set_flight_recorder(&rec);
  fabric.set_watchdog(50);
  const StopInfo stop = fabric.run(100000);
  ASSERT_TRUE(stop.deadlock);

  ScalarHistory scalars;
  scalars.record(0, "rho", 1.5);
  scalars.record(1, "rho", -2.25);

  AnomalyInfo anomaly;
  anomaly.kind = AnomalyInfo::Kind::Deadlock;
  anomaly.cycle = fabric.stats().cycles;
  anomaly.detail = "mutual block fixture";
  PostmortemInputs in;
  in.fabric = &fabric;
  in.recorder = &rec;
  in.scalars = &scalars;
  in.stop = &stop;
  in.program = "mutual-block 2x1";

  std::string path;
  std::string error;
  ASSERT_TRUE(telemetry::write_postmortem(temp_dir("roundtrip"), anomaly, in,
                                          &path, &error))
      << error;
  ASSERT_TRUE(file_exists(path)) << path;
  EXPECT_NE(path.find("postmortem_deadlock"), std::string::npos) << path;

  Bundle bundle;
  ASSERT_TRUE(telemetry::load_bundle(path, &bundle, &error)) << error;
  EXPECT_EQ(bundle.schema, telemetry::kPostmortemSchema);
  EXPECT_EQ(bundle.anomaly_kind, "deadlock");
  EXPECT_EQ(bundle.anomaly_cycle, fabric.stats().cycles);
  EXPECT_EQ(bundle.anomaly_detail, "mutual block fixture");
  EXPECT_EQ(bundle.program, "mutual-block 2x1");
  EXPECT_EQ(bundle.width, 2);
  EXPECT_EQ(bundle.height, 1);
  EXPECT_EQ(bundle.stop_reason, "watchdog");
  EXPECT_TRUE(bundle.deadlock);
  ASSERT_EQ(bundle.blocked_tiles.size(), 2u);
  EXPECT_EQ(bundle.blocked_tiles[0], (std::pair<int, int>{0, 0}));
  ASSERT_FALSE(bundle.wait_cycles.empty());
  EXPECT_EQ(bundle.wait_cycles[0], "(0,0) --c2--> (1,0) --c1--> (0,0)");
  EXPECT_GE(bundle.wait_edges.size(), 2u);
  EXPECT_EQ(bundle.flight_depth, 32u);
  EXPECT_FALSE(bundle.tiles.empty());
  ASSERT_EQ(bundle.scalars.size(), 2u);
  EXPECT_EQ(bundle.scalars[1].name, "rho");
  EXPECT_EQ(bundle.scalars[1].value, -2.25);

  ASSERT_TRUE(telemetry::self_check_bundle(bundle, &error)) << error;

  const std::string pretty = telemetry::pretty_bundle(bundle);
  EXPECT_NE(pretty.find("deadlock"), std::string::npos) << pretty;
  EXPECT_NE(pretty.find("(0,0) --c2--> (1,0) --c1--> (0,0)"),
            std::string::npos)
      << pretty;
  EXPECT_NE(pretty.find("mutual-block 2x1"), std::string::npos) << pretty;
}

TEST(Bundle, LoadRejectsMissingAndMalformedFiles) {
  Bundle bundle;
  std::string error;
  EXPECT_FALSE(telemetry::load_bundle(temp_dir("nope") + "/absent.json",
                                      &bundle, &error));
  EXPECT_FALSE(error.empty());

  const std::string dir = temp_dir("badjson");
  ASSERT_TRUE(telemetry::write_postmortem(dir, AnomalyInfo{},
                                          PostmortemInputs{}, nullptr,
                                          nullptr));
  const std::string bad = dir + "/bad.json";
  { std::ofstream(bad) << "{ not json"; }
  error.clear();
  EXPECT_FALSE(telemetry::load_bundle(bad, &bundle, &error));
  EXPECT_FALSE(error.empty());

  const std::string wrong = dir + "/wrong_schema.json";
  { std::ofstream(wrong) << "{\"schema\": \"other/9\"}"; }
  error.clear();
  EXPECT_FALSE(telemetry::load_bundle(wrong, &bundle, &error));
  EXPECT_NE(error.find("schema"), std::string::npos) << error;
}

TEST(Bundle, SelfCheckCatchesStructuralDrift) {
  Fabric fabric = make_mutual_block_fabric();
  FlightRecorder rec(2, 1, 16);
  fabric.set_flight_recorder(&rec);
  fabric.set_watchdog(50);
  const StopInfo stop = fabric.run(100000);

  AnomalyInfo anomaly;
  anomaly.kind = AnomalyInfo::Kind::Deadlock;
  PostmortemInputs in;
  in.fabric = &fabric;
  in.recorder = &rec;
  in.stop = &stop;
  in.program = "mutual-block 2x1";
  std::string path;
  ASSERT_TRUE(telemetry::write_postmortem(temp_dir("drift"), anomaly, in,
                                          &path, nullptr));
  Bundle good;
  ASSERT_TRUE(telemetry::load_bundle(path, &good));
  ASSERT_TRUE(telemetry::self_check_bundle(good));

  std::string error;
  Bundle b = good;
  b.anomaly_kind = "gremlins";
  EXPECT_FALSE(telemetry::self_check_bundle(b, &error));
  EXPECT_FALSE(error.empty());

  b = good;
  b.width = 0;
  EXPECT_FALSE(telemetry::self_check_bundle(b));

  b = good;
  ASSERT_FALSE(b.tiles.empty());
  b.tiles[0].x = 99; // out of the declared fabric bounds
  EXPECT_FALSE(telemetry::self_check_bundle(b));

  b = good;
  ASSERT_FALSE(b.wait_edges.empty());
  b.wait_edges[0].color = 999; // beyond the fabric's color space
  EXPECT_FALSE(telemetry::self_check_bundle(b));
}

// --- scalar history ------------------------------------------------------

TEST(ScalarHistoryTest, BoundedRecordingCountsDrops) {
  ScalarHistory h;
  for (std::size_t i = 0; i < ScalarHistory::kMaxSamples + 5; ++i) {
    h.record(i, "rho", static_cast<double>(i));
  }
  EXPECT_EQ(h.samples().size(), ScalarHistory::kMaxSamples);
  EXPECT_EQ(h.dropped(), 5u);
  h.clear();
  EXPECT_TRUE(h.samples().empty());
  EXPECT_EQ(h.dropped(), 0u);
}

TEST(AnomalyKind, WireNamesAreStable) {
  EXPECT_STREQ(telemetry::to_string(AnomalyInfo::Kind::Deadlock), "deadlock");
  EXPECT_STREQ(telemetry::to_string(AnomalyInfo::Kind::NanScalar),
               "nan_scalar");
  EXPECT_STREQ(telemetry::to_string(AnomalyInfo::Kind::Breakdown),
               "breakdown");
  EXPECT_STREQ(telemetry::to_string(AnomalyInfo::Kind::FaultStorm),
               "fault_storm");
  EXPECT_STREQ(telemetry::to_string(AnomalyInfo::Kind::Manual), "manual");
}

// --- RunForensics scope --------------------------------------------------

TEST(RunForensics, InertWithoutPostmortemDir) {
  EnvGuard dir("WSS_POSTMORTEM_DIR");
  Fabric fabric = make_mutual_block_fabric();
  {
    telemetry::RunForensics forensics(fabric, "mutual-block 2x1");
    EXPECT_EQ(forensics.recorder(), nullptr);
    EXPECT_EQ(fabric.flight_recorder(), nullptr);
    forensics.finished(); // no dir -> no bundle, no crash
  }
  const std::string msg = [&] {
    telemetry::RunForensics forensics(fabric, "mutual-block 2x1");
    fabric.set_watchdog(50);
    const StopInfo stop = fabric.run(100000);
    return forensics.deadlock(stop, "did not complete");
  }();
  EXPECT_NE(msg.find("did not complete"), std::string::npos) << msg;
  EXPECT_NE(msg.find("watchdog"), std::string::npos) << msg;
  EXPECT_EQ(msg.find("post-mortem bundle:"), std::string::npos) << msg;
}

TEST(RunForensics, AttachesRecorderAndWritesDeadlockBundle) {
  EnvGuard dir("WSS_POSTMORTEM_DIR");
  const std::string out = temp_dir("forensics");
  dir.set(out.c_str());

  Fabric fabric = make_mutual_block_fabric();
  std::string msg;
  {
    telemetry::RunForensics forensics(fabric, "mutual-block 2x1");
    ASSERT_NE(forensics.recorder(), nullptr);
    EXPECT_EQ(fabric.flight_recorder(), forensics.recorder());
    fabric.set_watchdog(50);
    const StopInfo stop = fabric.run(100000);
    ASSERT_TRUE(stop.deadlock);
    msg = forensics.deadlock(stop, "did not complete");
  }
  // Detached on scope exit.
  EXPECT_EQ(fabric.flight_recorder(), nullptr);
  // The message names the bundle it wrote; the bundle loads and passes
  // self-check, and its wait-for graph names the color cycle.
  const std::string marker = "post-mortem bundle: ";
  const std::size_t at = msg.find(marker);
  ASSERT_NE(at, std::string::npos) << msg;
  std::string path = msg.substr(at + marker.size());
  if (const std::size_t nl = path.find('\n'); nl != std::string::npos) {
    path.resize(nl);
  }
  Bundle bundle;
  std::string error;
  ASSERT_TRUE(telemetry::load_bundle(path, &bundle, &error)) << error;
  ASSERT_TRUE(telemetry::self_check_bundle(bundle, &error)) << error;
  EXPECT_EQ(bundle.anomaly_kind, "deadlock");
  ASSERT_FALSE(bundle.wait_cycles.empty());
  EXPECT_EQ(bundle.wait_cycles[0], "(0,0) --c2--> (1,0) --c1--> (0,0)");
}

TEST(RunForensics, RespectsPreAttachedRecorder) {
  EnvGuard dir("WSS_POSTMORTEM_DIR");
  dir.set(temp_dir("preattached").c_str());
  Fabric fabric = make_mutual_block_fabric();
  FlightRecorder mine(2, 1, 8);
  fabric.set_flight_recorder(&mine);
  {
    telemetry::RunForensics forensics(fabric, "mutual-block 2x1");
    EXPECT_EQ(forensics.recorder(), &mine);
    EXPECT_EQ(fabric.flight_recorder(), &mine);
  }
  // A recorder it did not attach is left attached.
  EXPECT_EQ(fabric.flight_recorder(), &mine);
}

TEST(MaybeWritePostmortem, DisabledWithoutDir) {
  EnvGuard dir("WSS_POSTMORTEM_DIR");
  EXPECT_EQ(telemetry::maybe_write_postmortem(AnomalyInfo{},
                                              PostmortemInputs{}),
            "");
}

// --- first divergence: faulted run vs clean twin ------------------------

/// Point-to-point: (0,0) sends `len` words east on `color`, (1,0)
/// receives them.
void configure_p2p(Fabric& fabric, Color color, int len) {
  RoutingTable send_routes;
  send_routes.rule(color).add_forward(Dir::East);
  fabric.configure_tile(0, 0, sender_program(color, len), send_routes);
  RoutingTable recv_routes;
  recv_routes.rule(color).deliver_channels.push_back(color);
  int buf = 0;
  fabric.configure_tile(1, 0, receiver_program(color, len, &buf),
                        recv_routes);
  for (int i = 0; i < len; ++i) {
    fabric.core(0, 0).host_write_f16(i, fp16_t(static_cast<double>(i)));
  }
}

std::string run_p2p_and_snapshot(const std::string& dir,
                                 const FaultPlan* plan) {
  static const CS1Params arch;
  Fabric fabric(2, 1, arch, SimParams{});
  FlightRecorder rec(2, 1, 64);
  fabric.set_flight_recorder(&rec);
  if (plan != nullptr) fabric.set_fault_plan(plan);
  configure_p2p(fabric, /*color=*/3, /*len=*/8);
  (void)fabric.run(1000);
  EXPECT_TRUE(fabric.all_done());

  AnomalyInfo anomaly;
  anomaly.kind = AnomalyInfo::Kind::Manual;
  anomaly.cycle = fabric.stats().cycles;
  anomaly.detail = plan != nullptr ? "faulted run" : "clean twin";
  PostmortemInputs in;
  in.fabric = &fabric;
  in.recorder = &rec;
  in.program = "p2p 2x1";
  std::string path;
  std::string error;
  EXPECT_TRUE(telemetry::write_postmortem(dir, anomaly, in, &path, &error))
      << error;
  return path;
}

// The ISSUE acceptance path end-to-end: a seeded FaultPlan that drops
// every wavelet on the (0,0)->east link starves the receiver into a
// deadlock; the RunForensics-written bundle must name the blocked tile
// and the color it awaits, pointing at the upstream (faulted) tile.
TEST(FaultPlanDeadlock, BundleNamesBlockedTileAndAwaitedColor) {
  EnvGuard dir("WSS_POSTMORTEM_DIR");
  const std::string out = temp_dir("fault_deadlock");
  dir.set(out.c_str());

  static const CS1Params arch;
  Fabric fabric(2, 1, arch, SimParams{});
  FaultPlan plan;
  plan.seed = 42;
  LinkFault drop;
  drop.x = 0;
  drop.y = 0;
  drop.dir = Dir::East;
  drop.kind = FaultKind::DropWavelet;
  drop.probability = 1.0;
  plan.link_faults.push_back(drop);
  fabric.set_fault_plan(&plan);
  configure_p2p(fabric, /*color=*/3, /*len=*/8);
  fabric.set_watchdog(100);

  telemetry::RunForensics forensics(fabric, "p2p 2x1");
  ASSERT_NE(forensics.recorder(), nullptr);
  const StopInfo stop = fabric.run(100000);
  ASSERT_FALSE(fabric.all_done());
  ASSERT_TRUE(stop.deadlock);
  EXPECT_GT(fabric.fault_stats().wavelets_dropped, 0u);

  const std::string msg = forensics.deadlock(stop, "p2p did not complete");
  const std::string marker = "post-mortem bundle: ";
  const std::size_t at = msg.find(marker);
  ASSERT_NE(at, std::string::npos) << msg;
  std::string path = msg.substr(at + marker.size());
  if (const std::size_t nl = path.find('\n'); nl != std::string::npos) {
    path.resize(nl);
  }

  Bundle bundle;
  std::string error;
  ASSERT_TRUE(telemetry::load_bundle(path, &bundle, &error)) << error;
  ASSERT_TRUE(telemetry::self_check_bundle(bundle, &error)) << error;
  EXPECT_EQ(bundle.anomaly_kind, "deadlock");
  EXPECT_GT(bundle.fault_total, 0u);
  // The receiver is the blocked tile...
  ASSERT_FALSE(bundle.blocked_tiles.empty());
  EXPECT_EQ(bundle.blocked_tiles[0], (std::pair<int, int>{1, 0}));
  // ...and the wait-for graph names what it awaits: color 3 from (0,0),
  // the tile whose outgoing link the plan is dropping.
  bool named = false;
  for (const auto& e : bundle.wait_edges) {
    if (e.from_x == 1 && e.from_y == 0 && e.to_x == 0 && e.to_y == 0 &&
        e.color == 3) {
      named = true;
    }
  }
  EXPECT_TRUE(named);
  const std::string pretty = telemetry::pretty_bundle(bundle);
  EXPECT_NE(pretty.find("(1,0)"), std::string::npos) << pretty;
}

// Every optional block at once — stop, wait-for graph, flight rings,
// profiler (verbatim JSON plus its heatmaps), a scalar history with a
// non-finite sample, the time-series tail and a fault log: re-emitting the
// loaded bundle must reproduce the written bytes exactly.
TEST(Bundle, LoadEmitIsAFixedPointWithEveryBlock) {
  static const CS1Params arch;
  Fabric fabric(2, 1, arch, SimParams{});
  FaultPlan plan;
  plan.seed = 42;
  LinkFault drop;
  drop.x = 0;
  drop.y = 0;
  drop.dir = Dir::East;
  drop.kind = FaultKind::DropWavelet;
  drop.probability = 1.0;
  plan.link_faults.push_back(drop);
  fabric.set_fault_plan(&plan);
  FlightRecorder rec(2, 1, 16);
  fabric.set_flight_recorder(&rec);
  telemetry::Profiler prof(2, 1);
  fabric.set_profiler(&prof);
  telemetry::TimeSeriesSampler sampler(8);
  fabric.set_sampler(&sampler);
  configure_p2p(fabric, /*color=*/3, /*len=*/8);
  fabric.set_watchdog(100);
  const StopInfo stop = fabric.run(100000);
  ASSERT_TRUE(stop.deadlock);
  fabric.sample_now();
  ScalarHistory scalars;
  scalars.record(0, "rho", 1.5);
  scalars.record(1, "omega", std::numeric_limits<double>::quiet_NaN());

  AnomalyInfo anomaly;
  anomaly.kind = AnomalyInfo::Kind::Deadlock;
  anomaly.cycle = fabric.stats().cycles;
  anomaly.detail = "every block";
  PostmortemInputs in;
  in.fabric = &fabric;
  in.recorder = &rec;
  in.profiler = &prof;
  in.scalars = &scalars;
  in.stop = &stop;
  in.timeseries = &sampler;
  in.program = "p2p 2x1";
  std::string path;
  std::string error;
  ASSERT_TRUE(telemetry::write_postmortem(temp_dir("fixed_point"), anomaly, in,
                                          &path, &error))
      << error;
  std::ifstream file(path, std::ios::binary);
  const std::string written((std::istreambuf_iterator<char>(file)),
                            std::istreambuf_iterator<char>());

  Bundle bundle;
  ASSERT_TRUE(telemetry::load_bundle(path, &bundle, &error)) << error;
  EXPECT_TRUE(bundle.has_fabric && bundle.has_stop && bundle.has_flight &&
              bundle.has_scalars && bundle.has_timeseries);
  EXPECT_FALSE(bundle.profiler_json.empty());
  EXPECT_FALSE(bundle.wait_blocked.empty());
  EXPECT_FALSE(bundle.ts_frames.empty());
  EXPECT_FALSE(bundle.fault_log.empty());
  EXPECT_GT(bundle.fault_stats.wavelets_dropped, 0u);
  EXPECT_EQ(telemetry::artifact::emit(bundle), written);
  EXPECT_TRUE(telemetry::self_check_bundle(bundle, &error)) << error;
}

TEST(Divergence, FaultedRunDivergesFromCleanTwinAtTheFaultSite) {
  const std::string dir = temp_dir("diff");
  const std::string clean_path = run_p2p_and_snapshot(dir, nullptr);

  // Corrupt every wavelet crossing the (0,0) -> east link; the first
  // divergence must surface as a delivery difference at the receiver.
  FaultPlan plan;
  plan.seed = 7;
  LinkFault corrupt;
  corrupt.x = 0;
  corrupt.y = 0;
  corrupt.dir = Dir::East;
  corrupt.kind = FaultKind::CorruptWavelet;
  corrupt.probability = 1.0;
  plan.link_faults.push_back(corrupt);
  const std::string faulted_path = run_p2p_and_snapshot(dir, &plan);

  Bundle clean;
  Bundle faulted;
  std::string error;
  ASSERT_TRUE(telemetry::load_bundle(clean_path, &clean, &error)) << error;
  ASSERT_TRUE(telemetry::load_bundle(faulted_path, &faulted, &error))
      << error;

  const Divergence d = telemetry::first_divergence(clean, faulted);
  ASSERT_TRUE(d.found);
  EXPECT_EQ(d.x, 1);
  EXPECT_EQ(d.y, 0);
  EXPECT_GT(d.cycle, 0u);
  EXPECT_NE(d.a, d.b);
  const std::string pretty = telemetry::pretty_divergence(d);
  EXPECT_NE(pretty.find("(1,0)"), std::string::npos) << pretty;

  // A bundle diffed against itself reports no divergence.
  const Divergence same = telemetry::first_divergence(clean, clean);
  EXPECT_FALSE(same.found);

  // Program mismatch is flagged, not silently compared.
  Bundle other = faulted;
  other.program = "different-program 4x4";
  const Divergence mismatch = telemetry::first_divergence(clean, other);
  EXPECT_FALSE(mismatch.note.empty());
}

} // namespace
} // namespace wss::wse
