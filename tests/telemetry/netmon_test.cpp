// Network-observatory acceptance suite (telemetry/netmon.hpp,
// docs/NETWORK.md). The contract under test, in order of importance:
// attaching a NetMonitor perturbs nothing (result bits, cycle counts and
// every per-tile heatmap are identical with the monitor on or off); the
// wss.netflows/1 stream is bit-identical on both execution backends at
// WSS_SIM_THREADS 1/2/8; conservation is exact at every granularity
// (Σ per-flow words == Σ per-link words == the fabric's link-transfer
// delta); the exact stencilfe traffic projections equal the measured
// words; a stalled router raises link_congestion naming the choked
// upstream link while a clean run stays silent; and the committed golden
// artifact pins the schema byte-for-byte.

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "perfmodel/flow_expectations.hpp"
#include "stencil/generators.hpp"
#include "stencilfe/executor.hpp"
#include "stencilfe/workloads.hpp"
#include "support/env_guard.hpp"
#include "telemetry/artifact.hpp"
#include "telemetry/health.hpp"
#include "telemetry/heatmap.hpp"
#include "telemetry/netmon.hpp"
#include "telemetry/timeseries.hpp"
#include "wse/fabric.hpp"
#include "wse/fault.hpp"
#include "wse/flow_table.hpp"
#include "wsekernels/spmv3d_program.hpp"

namespace wss::telemetry {
namespace {

using testsupport::CleanSimEnv;
using wse::Backend;
using wse::Dir;

/// Fabric keeps a pointer to the architecture parameters, so the object
/// must outlive every simulation constructed here.
const wse::CS1Params kArch;

struct StencilRun {
  std::vector<fp16_t> state;
  std::uint64_t cycles = 0;         ///< last generation
  std::uint64_t total_cycles = 0;   ///< whole run
  std::uint64_t link_transfers = 0; ///< whole run
  FabricHeatmaps maps;
};

/// Heat diffusion on an nx*ny fabric slab, optionally observed.
StencilRun run_heat(stencilfe::BoundaryPolicy boundary, int nx, int ny,
                    int generations, Backend backend, int threads,
                    NetMonitor* mon) {
  const stencilfe::TransitionFn fn = stencilfe::heat_fn(0.125, boundary);
  wse::SimParams sim;
  sim.backend = backend;
  sim.sim_threads = threads;
  stencilfe::StencilExecutor ex(fn, nx, ny, kArch, sim);
  if (mon != nullptr) {
    mon->set_flow_table(ex.flow_table());
    ex.fabric().set_net_monitor(mon);
  }
  ex.load(stencilfe::random_state(fn, nx, ny, 2026));
  ex.step(generations);
  if (mon != nullptr) ex.fabric().set_net_monitor(nullptr);
  StencilRun r;
  r.state = ex.read_state();
  r.cycles = ex.last_generation_cycles();
  r.total_cycles = ex.fabric().stats().cycles;
  r.link_transfers = ex.fabric().stats().link_transfers;
  r.maps = collect_heatmaps(ex.fabric());
  return r;
}

NetFlowsFile heat_netflows(stencilfe::BoundaryPolicy boundary, int nx, int ny,
                           int generations, Backend backend, int threads) {
  const stencilfe::TransitionFn fn = stencilfe::heat_fn(0.125, boundary);
  NetMonitor mon;
  const StencilRun r =
      run_heat(boundary, nx, ny, generations, backend, threads, &mon);
  return build_netflows(mon, "netmon-test", "", r.total_cycles,
                        r.link_transfers,
                        static_cast<std::uint64_t>(generations),
                        perfmodel::stencilfe_flow_expectations(fn, nx, ny),
                        /*top_k=*/4);
}

TEST(NetMonitor, AttachIsNonPerturbingForStencilRuns) {
  CleanSimEnv env;
  const StencilRun bare = run_heat(stencilfe::BoundaryPolicy::Periodic, 6, 5,
                                   3, Backend::Reference, 1, nullptr);
  NetMonitor mon;
  const StencilRun watched = run_heat(stencilfe::BoundaryPolicy::Periodic, 6,
                                      5, 3, Backend::Reference, 1, &mon);
  ASSERT_EQ(bare.state.size(), watched.state.size());
  for (std::size_t i = 0; i < bare.state.size(); ++i) {
    EXPECT_EQ(bare.state[i].bits(), watched.state[i].bits()) << i;
  }
  EXPECT_EQ(bare.cycles, watched.cycles);
  EXPECT_EQ(bare.link_transfers, watched.link_transfers);
  const auto bare_maps = bare.maps.all();
  const auto watched_maps = watched.maps.all();
  ASSERT_EQ(bare_maps.size(), watched_maps.size());
  for (std::size_t m = 0; m < bare_maps.size(); ++m) {
    EXPECT_EQ(bare_maps[m]->cells, watched_maps[m]->cells)
        << bare_maps[m]->name;
  }
}

TEST(NetMonitor, AttachIsNonPerturbingForSpmvRuns) {
  CleanSimEnv env;
  const Grid3 g(6, 6, 8);
  auto ad = make_random_dominant7(g, 0.5, 11);
  Field3<double> b(g, 1.0);
  (void)precondition_jacobi(ad, b);
  const auto a = convert_stencil<fp16_t>(ad);
  Field3<fp16_t> v(g);
  Rng rng(12);
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = fp16_t(rng.uniform(-1.0, 1.0));
  }
  wsekernels::SpMV3DSimulation bare(a, kArch, wse::SimParams{});
  const auto u0 = bare.run(v);
  wsekernels::SpMV3DSimulation watched(a, kArch, wse::SimParams{});
  NetMonitor mon;
  mon.set_flow_table(wse::spmv_flow_table());
  watched.fabric().set_net_monitor(&mon);
  const auto u1 = watched.run(v);
  ASSERT_EQ(u0.size(), u1.size());
  for (std::size_t i = 0; i < u0.size(); ++i) {
    EXPECT_EQ(u0[i].bits(), u1[i].bits()) << i;
  }
  EXPECT_EQ(bare.last_run_cycles(), watched.last_run_cycles());
  EXPECT_TRUE(mon.attached_once());
}

TEST(NetMonitor, StreamsBitIdenticalAcrossBackendsAndThreads) {
  CleanSimEnv env;
  const std::string anchor =
      build_netflows_json(heat_netflows(stencilfe::BoundaryPolicy::Periodic,
                                        6, 5, 2, Backend::Reference, 1));
  struct Cfg {
    Backend backend;
    int threads;
    const char* name;
  };
  for (const Cfg cfg : {Cfg{Backend::Reference, 2, "reference@2"},
                        Cfg{Backend::Reference, 8, "reference@8"},
                        Cfg{Backend::Turbo, 1, "turbo@1"},
                        Cfg{Backend::Turbo, 8, "turbo@8"}}) {
    const std::string got = build_netflows_json(
        heat_netflows(stencilfe::BoundaryPolicy::Periodic, 6, 5, 2,
                      cfg.backend, cfg.threads));
    EXPECT_EQ(got, anchor) << cfg.name;
  }
}

TEST(NetMonitor, ConservationHoldsAtEveryGranularity) {
  CleanSimEnv env;
  const stencilfe::TransitionFn fn =
      stencilfe::heat_fn(0.125, stencilfe::BoundaryPolicy::Periodic);
  NetMonitor mon;
  const StencilRun r = run_heat(stencilfe::BoundaryPolicy::Periodic, 6, 5, 2,
                                Backend::Reference, 1, &mon);
  // Per-link: the color cells sum to the link total, and the link totals
  // match the per-direction heatmap layers harvested from the fabric.
  std::uint64_t all_links = 0;
  const Heatmap* dir_maps[4] = {&r.maps.link_words_n, &r.maps.link_words_s,
                                &r.maps.link_words_e, &r.maps.link_words_w};
  for (int y = 0; y < 5; ++y) {
    for (int x = 0; x < 6; ++x) {
      for (int d = 0; d < 4; ++d) {
        const Dir dir = static_cast<Dir>(d);
        std::uint64_t colors = 0;
        for (int c = 0; c < wse::kNumColors; ++c) {
          colors += mon.words_at(x, y, dir, c);
        }
        EXPECT_EQ(colors, mon.link_words(x, y, dir)) << x << "," << y;
        EXPECT_EQ(static_cast<double>(colors), dir_maps[d]->at(x, y))
            << dir_maps[d]->name << " " << x << "," << y;
        all_links += colors;
      }
    }
  }
  // Per-flow: the rollup conserves the fabric's own transfer count.
  const NetFlowsFile nf = build_netflows(
      mon, "netmon-test", "", r.total_cycles, r.link_transfers, 2,
      perfmodel::stencilfe_flow_expectations(fn, 6, 5), 4);
  std::uint64_t flow_words = 0;
  for (const NetFlowTotals& f : nf.flows) flow_words += f.words;
  EXPECT_EQ(flow_words, r.link_transfers);
  EXPECT_EQ(all_links, r.link_transfers);
  std::string error;
  EXPECT_TRUE(self_check_netflows(nf, &error)) << error;
}

TEST(NetMonitor, ExactProjectionsMatchMeasuredWords) {
  CleanSimEnv env;
  for (const auto boundary : {stencilfe::BoundaryPolicy::Periodic,
                              stencilfe::BoundaryPolicy::DirichletZero}) {
    const NetFlowsFile nf = heat_netflows(boundary, 6, 5, 3,
                                          Backend::Reference, 1);
    bool any_wrap = false;
    for (const NetFlowTotals& f : nf.flows) {
      if (f.flow.rfind("wrap.", 0) == 0) {
        any_wrap = true;
        EXPECT_GT(f.words, 0u) << f.flow;
      }
      if (f.exact && f.expected_words_per_iteration > 0.0) {
        EXPECT_EQ(static_cast<double>(f.words),
                  f.expected_words_per_iteration * 3.0)
            << f.flow;
      }
    }
    EXPECT_EQ(any_wrap, boundary == stencilfe::BoundaryPolicy::Periodic);
  }
}

TEST(NetMonitor, SelfCheckCatchesConservationAndSchemaDrift) {
  CleanSimEnv env;
  NetFlowsFile nf = heat_netflows(stencilfe::BoundaryPolicy::Periodic, 6, 5,
                                  2, Backend::Reference, 1);
  std::string error;
  ASSERT_TRUE(self_check_netflows(nf, &error)) << error;
  NetFlowsFile broken = nf;
  broken.flows[1].words += 1;
  EXPECT_FALSE(self_check_netflows(broken, &error));
  EXPECT_NE(error.find("conserv"), std::string::npos) << error;
  NetFlowsFile wrong_schema = nf;
  wrong_schema.schema = "wss.netflows/999";
  EXPECT_FALSE(self_check_netflows(wrong_schema, &error));
}

TEST(NetMonitor, ArtifactRoundTripsThroughDisk) {
  CleanSimEnv env;
  const NetFlowsFile nf = heat_netflows(stencilfe::BoundaryPolicy::Periodic,
                                        6, 5, 2, Backend::Reference, 1);
  const std::string path = ::testing::TempDir() + "/netmon_roundtrip.json";
  std::string error;
  ASSERT_TRUE(write_netflows(path, nf, &error)) << error;
  NetFlowsFile back;
  ASSERT_TRUE(load_netflows(path, &back, &error)) << error;
  EXPECT_EQ(build_netflows_json(back), build_netflows_json(nf));
  EXPECT_TRUE(back.flow_table == nf.flow_table);
  EXPECT_FALSE(first_divergence(nf, back).found);
  NetFlowsFile drifted = back;
  drifted.flows[2].blocked += 7;
  const Divergence d = first_divergence(nf, drifted);
  ASSERT_TRUE(d.found);
  EXPECT_EQ(d.index, 2u);
  EXPECT_FALSE(pretty_divergence(d).empty());
  EXPECT_FALSE(pretty_netflows(nf).empty());
}

TEST(NetMonitor, GoldenArtifactPinsTheSchemaByteForByte) {
  CleanSimEnv env;
  std::ifstream in(WSS_NETFLOWS_GOLDEN, std::ios::binary);
  ASSERT_TRUE(in.good()) << WSS_NETFLOWS_GOLDEN;
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string committed = buf.str();
  NetFlowsFile golden;
  std::string error;
  ASSERT_TRUE(load_netflows(WSS_NETFLOWS_GOLDEN, &golden, &error)) << error;
  EXPECT_TRUE(self_check_netflows(golden, &error)) << error;
  // The golden is the exact stream of this deterministic run: heat
  // diffusion, periodic, 6x5, 2 generations, reference@1. Regenerating
  // it must reproduce the committed bytes — schema drift, counter drift
  // and expectation drift all fail here.
  const NetFlowsFile fresh = heat_netflows(
      stencilfe::BoundaryPolicy::Periodic, 6, 5, 2, Backend::Reference, 1);
  EXPECT_EQ(build_netflows_json(fresh), committed);
}

TEST(NetMonitor, StalledRouterRaisesLinkCongestionAndCleanRunIsSilent) {
  CleanSimEnv env;
  const Grid3 g(8, 8, 12);
  auto ad = make_random_dominant7(g, 0.5, 21);
  Field3<double> b(g, 1.0);
  (void)precondition_jacobi(ad, b);
  const auto a = convert_stencil<fp16_t>(ad);
  Field3<fp16_t> v(g);
  Rng rng(22);
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = fp16_t(rng.uniform(-1.0, 1.0));
  }
  const auto observed_run = [&](const wse::FaultPlan* plan) {
    wsekernels::SpMV3DSimulation s(a, kArch, wse::SimParams{});
    TimeSeriesSampler sampler(16);
    NetMonitor mon;
    mon.set_flow_table(wse::spmv_flow_table());
    s.fabric().set_sampler(&sampler);
    s.fabric().set_net_monitor(&mon);
    if (plan != nullptr) s.fabric().set_fault_plan(plan);
    (void)s.run(v);
    TimeSeries ts = snapshot_timeseries(sampler, nullptr);
    return std::make_pair(std::move(ts), s.last_run_cycles());
  };
  HealthConfig cfg;
  cfg.congestion_floor = 0.3;
  const auto [clean_ts, clean_cycles] = observed_run(nullptr);
  for (const HealthAlert& alert : evaluate_health(clean_ts, cfg)) {
    EXPECT_NE(alert.rule, "link_congestion") << alert.detail;
  }
  wse::FaultPlan plan;
  plan.router_stalls.push_back(
      {.x = 3, .y = 3, .from_cycle = 0, .until_cycle = 2 * clean_cycles});
  const auto [stalled_ts, stalled_cycles] = observed_run(&plan);
  EXPECT_GT(stalled_cycles, clean_cycles);
  bool congestion = false;
  for (const HealthAlert& alert : evaluate_health(stalled_ts, cfg)) {
    if (alert.rule != "link_congestion") continue;
    congestion = true;
    // The named link must be one of the four feeding the stalled router
    // at (3,3): (2,3)->E, (4,3)->W, (3,2)->S or (3,4)->N.
    const bool upstream = alert.detail.find("(2,3)->E") != std::string::npos ||
                          alert.detail.find("(4,3)->W") != std::string::npos ||
                          alert.detail.find("(3,2)->S") != std::string::npos ||
                          alert.detail.find("(3,4)->N") != std::string::npos;
    EXPECT_TRUE(upstream) << alert.detail;
  }
  EXPECT_TRUE(congestion);
}

TEST(NetMonitor, FlowBandwidthDriftFiresOnlyOnUnderDelivery) {
  TimeSeries ts;
  ts.schema = kTimeseriesSchema;
  ts.program = "drift-test";
  ts.width = 2;
  ts.height = 2;
  ts.sample_cycles = 10;
  ts.net_flows = {"control", "x"};
  ts.net_expectations.push_back({"x", 100.0, true});
  for (std::uint64_t i = 1; i <= 3; ++i) {
    TimeSeriesFrame f;
    f.cycle = 10 * i;
    f.window_cycles = 10;
    f.max_iteration = i;
    f.has_net = true;
    f.net_cycles = 10 * i;
    f.flow_words = {0, 50}; // 150 words over 3 iterations: 50% short
    f.flow_blocked = {0, 0};
    ts.frames.push_back(f);
  }
  HealthConfig cfg;
  cfg.tol_pct = 25.0;
  bool drift = false;
  for (const HealthAlert& a : evaluate_health(ts, cfg)) {
    if (a.rule == "flow_bandwidth_drift") {
      drift = true;
      EXPECT_NE(a.detail.find("'x'"), std::string::npos) << a.detail;
      EXPECT_EQ(a.severity, AlertSeverity::Warn);
    }
  }
  EXPECT_TRUE(drift);
  // Over-delivery (and exact delivery) stay silent: the gate is one-sided.
  for (const double words : {100.0, 240.0}) {
    TimeSeries quiet = ts;
    for (TimeSeriesFrame& f : quiet.frames) {
      f.flow_words[1] = static_cast<std::uint64_t>(words);
    }
    for (const HealthAlert& a : evaluate_health(quiet, cfg)) {
      EXPECT_NE(a.rule, "flow_bandwidth_drift") << a.detail;
    }
  }
}

} // namespace
} // namespace wss::telemetry
