// Time-series sampler tests (telemetry/timeseries.hpp): the acceptance
// suite for continuous observability — sampling must be provably
// non-perturbing (result bits, cycle counts and heatmaps identical
// sampler-on/off), bit-identical at any WSS_SIM_THREADS, and exactly
// conservative (summed per-window profiler deltas == end-of-run profiler
// totals, including the partial final window closed by sample_now). Plus
// the artifact path: write -> load -> self-check round trips, the golden
// schema guard, first-divergent-frame diffing, and a cadence proptest
// over interval-vs-run-length edge cases (K > total cycles, zero-length
// runs, mid-run reset_control).

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "stencil/generators.hpp"
#include "support/proptest.hpp"
#include "telemetry/artifact.hpp"
#include "telemetry/heatmap.hpp"
#include "telemetry/io.hpp"
#include "telemetry/postmortem.hpp"
#include "telemetry/profiler.hpp"
#include "telemetry/timeseries.hpp"
#include "wse/fabric.hpp"
#include "wsekernels/bicgstab_program.hpp"

namespace wss::telemetry {
namespace {

using wse::CS1Params;
using wse::Fabric;
using wse::SimParams;
using wsekernels::BicgstabSimResult;
using wsekernels::BicgstabSimulation;

/// Restores one environment variable on scope exit (postmortem_test.cpp
/// idiom) — sampling tests must not inherit WSS_* observability switches.
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

struct CleanEnv {
  EnvGuard sample{"WSS_SAMPLE_CYCLES"};
  EnvGuard ledger{"WSS_LEDGER_DIR"};
  EnvGuard out{"WSS_TIMESERIES_OUT"};
  EnvGuard postmortem{"WSS_POSTMORTEM_DIR"};
};

struct System {
  Stencil7<fp16_t> a;
  Field3<fp16_t> b;
};

System make_system(Grid3 g, std::uint64_t seed) {
  auto ad = make_momentum_like7(g, 0.5, seed);
  const auto xref = make_smooth_solution(g);
  auto bd = make_rhs(ad, xref);
  Field3<double> bp = precondition_jacobi(ad, bd);
  return {convert_stencil<fp16_t>(ad), convert_field<fp16_t>(bp)};
}

/// One BiCGStab simulator run; optionally sampled (interval > 0) and/or
/// profiled, at a given thread count. Closes the final window.
struct RunOutput {
  BicgstabSimResult result;
  std::uint64_t cycles = 0;
  FabricHeatmaps heatmaps;
  std::vector<TimeSeriesFrame> frames;
  PhaseCatMatrix totals{};
};

RunOutput run_bicgstab(const System& s, int threads, std::uint64_t interval,
                       bool with_profiler) {
  CS1Params arch;
  SimParams sim;
  BicgstabSimulation simulation(s.a, 2, arch, sim);
  simulation.fabric().set_threads(threads);
  Profiler prof(s.a.grid.nx, s.a.grid.ny);
  if (with_profiler) simulation.fabric().set_profiler(&prof);
  TimeSeriesSampler sampler(interval);
  if (interval > 0) simulation.fabric().set_sampler(&sampler);
  RunOutput out;
  out.result = simulation.run(s.b);
  simulation.fabric().sample_now();
  out.cycles = simulation.fabric().stats().cycles;
  out.heatmaps = collect_heatmaps(simulation.fabric());
  out.frames.assign(sampler.frames().begin(), sampler.frames().end());
  if (with_profiler) out.totals = prof.totals();
  simulation.fabric().set_sampler(nullptr);
  simulation.fabric().set_profiler(nullptr);
  return out;
}

void expect_bits_identical(const RunOutput& want, const RunOutput& got) {
  ASSERT_EQ(want.result.x.size(), got.result.x.size());
  for (std::size_t i = 0; i < want.result.x.size(); ++i) {
    ASSERT_EQ(want.result.x[i].bits(), got.result.x[i].bits()) << "x[" << i
                                                               << "]";
    ASSERT_EQ(want.result.r[i].bits(), got.result.r[i].bits()) << "r[" << i
                                                               << "]";
  }
  EXPECT_EQ(want.result.cycles, got.result.cycles);
  EXPECT_EQ(want.cycles, got.cycles);
  const auto want_maps = want.heatmaps.all();
  const auto got_maps = got.heatmaps.all();
  ASSERT_EQ(want_maps.size(), got_maps.size());
  for (std::size_t m = 0; m < want_maps.size(); ++m) {
    EXPECT_EQ(want_maps[m]->cells, got_maps[m]->cells)
        << "heatmap " << want_maps[m]->name;
  }
}

// --- non-perturbation + determinism (acceptance criteria) ---------------

TEST(TimeSeries, SamplerDoesNotPerturbTheRun) {
  CleanEnv env;
  const System s = make_system(Grid3(4, 4, 12), 7);
  const RunOutput off = run_bicgstab(s, 1, 0, /*with_profiler=*/false);
  const RunOutput on = run_bicgstab(s, 1, 64, /*with_profiler=*/false);
  EXPECT_GT(on.frames.size(), 2u) << "sampling was supposed to be on";
  expect_bits_identical(off, on);
}

TEST(TimeSeries, FramesBitIdenticalAcrossThreadCounts) {
  CleanEnv env;
  const System s = make_system(Grid3(4, 4, 12), 11);
  const RunOutput t1 = run_bicgstab(s, 1, 128, /*with_profiler=*/true);
  ASSERT_GT(t1.frames.size(), 1u);
  for (const int threads : {2, 8}) {
    const RunOutput tn = run_bicgstab(s, threads, 128, /*with_profiler=*/true);
    expect_bits_identical(t1, tn);
    ASSERT_EQ(t1.frames.size(), tn.frames.size()) << threads << " threads";
    for (std::size_t i = 0; i < t1.frames.size(); ++i) {
      TimeSeriesFrame a = t1.frames[i];
      TimeSeriesFrame b = tn.frames[i];
      EXPECT_EQ(a, b) << "frame " << i << " diverged at " << threads
                      << " threads";
    }
  }
}

TEST(TimeSeries, WindowedProfilerDeltasSumToTotalsExactly) {
  CleanEnv env;
  const System s = make_system(Grid3(4, 4, 12), 13);
  for (const int threads : {1, 2, 8}) {
    const RunOutput out = run_bicgstab(s, threads, 100, /*with_profiler=*/true);
    ASSERT_GT(out.frames.size(), 1u);
    // The last frame is the partial window closed by sample_now().
    EXPECT_NE(out.frames.back().window_cycles, 0u);
    std::array<std::uint64_t, wse::kNumProgPhases> phase_sum{};
    std::array<std::uint64_t, kNumCycleCats> cat_sum{};
    std::uint64_t window_sum = 0;
    for (const TimeSeriesFrame& f : out.frames) {
      ASSERT_TRUE(f.has_profiler);
      window_sum += f.window_cycles;
      for (std::size_t p = 0; p < phase_sum.size(); ++p) {
        phase_sum[p] += f.prof_phase[p];
      }
      for (std::size_t c = 0; c < cat_sum.size(); ++c) {
        cat_sum[c] += f.prof_cat[c];
      }
    }
    EXPECT_EQ(window_sum, out.cycles) << "windows must tile the run";
    for (int p = 0; p < wse::kNumProgPhases; ++p) {
      std::uint64_t want = 0;
      for (int c = 0; c < kNumCycleCats; ++c) {
        want += out.totals[static_cast<std::size_t>(p)]
                          [static_cast<std::size_t>(c)];
      }
      EXPECT_EQ(phase_sum[static_cast<std::size_t>(p)], want)
          << "phase " << p << " at " << threads << " threads";
    }
    for (int c = 0; c < kNumCycleCats; ++c) {
      std::uint64_t want = 0;
      for (int p = 0; p < wse::kNumProgPhases; ++p) {
        want += out.totals[static_cast<std::size_t>(p)]
                          [static_cast<std::size_t>(c)];
      }
      EXPECT_EQ(cat_sum[static_cast<std::size_t>(c)], want)
          << "category " << c << " at " << threads << " threads";
    }
  }
}

// --- artifact round trip ------------------------------------------------

TEST(TimeSeries, WriteLoadSelfCheckRoundTrip) {
  CleanEnv env;
  const System s = make_system(Grid3(4, 4, 8), 17);
  CS1Params arch;
  SimParams sim;
  BicgstabSimulation simulation(s.a, 2, arch, sim);
  TimeSeriesSampler sampler(64);
  sampler.set_program("roundtrip 4x4x8");
  simulation.fabric().set_sampler(&sampler);
  (void)simulation.run(s.b);
  simulation.fabric().sample_now();
  simulation.fabric().set_sampler(nullptr);

  ScalarHistory scalars;
  scalars.record(0, "residual", 1.0);
  scalars.record(1, "residual", 0.125);
  scalars.record(1, "rho", -3.5);

  const std::string path =
      ::testing::TempDir() + "wss_timeseries_roundtrip/series.json";
  std::string error;
  ASSERT_TRUE(write_timeseries(path, sampler, &scalars, &error)) << error;

  TimeSeries ts;
  ASSERT_TRUE(load_timeseries(path, &ts, &error)) << error;
  EXPECT_TRUE(self_check_timeseries(ts, &error)) << error;
  EXPECT_EQ(ts.schema, kTimeseriesSchema);
  EXPECT_EQ(ts.program, "roundtrip 4x4x8");
  EXPECT_EQ(ts.width, 4);
  EXPECT_EQ(ts.height, 4);
  EXPECT_EQ(ts.sample_cycles, 64u);
  ASSERT_EQ(ts.frames.size(), sampler.frames().size());
  for (std::size_t i = 0; i < ts.frames.size(); ++i) {
    EXPECT_EQ(ts.frames[i], sampler.frames()[i]) << "frame " << i;
  }
  ASSERT_EQ(ts.scalars.size(), 3u);
  EXPECT_EQ(ts.scalars[1].name, "residual");
  EXPECT_EQ(ts.scalars[1].iteration, 1u);
  EXPECT_EQ(ts.scalars[1].value, 0.125);
  EXPECT_EQ(ts.scalars[2].value, -3.5);
}

TEST(TimeSeries, TornTrailingFrameFailsCleanlyThenRecovers) {
  // The skip-and-retry contract `wss_top --follow` leans on: catching the
  // writer mid-flush (file truncated inside the trailing frame) must come
  // back as a clean load failure — no crash, no half-parsed series — and
  // the very next read of the completed file must succeed. The follow
  // loop keeps its last good display on a failed tick, so cleanly
  // rejecting a torn read IS the tolerance.
  CleanEnv env;
  const System s = make_system(Grid3(4, 4, 8), 23);
  CS1Params arch;
  SimParams sim;
  BicgstabSimulation simulation(s.a, 2, arch, sim);
  TimeSeriesSampler sampler(64);
  sampler.set_program("torn 4x4x8");
  simulation.fabric().set_sampler(&sampler);
  (void)simulation.run(s.b);
  simulation.fabric().sample_now();
  simulation.fabric().set_sampler(nullptr);

  const std::string path =
      ::testing::TempDir() + "wss_timeseries_torn/series.json";
  std::string error;
  ASSERT_TRUE(write_timeseries(path, sampler, nullptr, &error)) << error;

  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good());
  std::string full((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  in.close();
  ASSERT_GT(full.size(), 16u);

  // Tear the file at several depths into its tail — every cut must fail
  // cleanly with a diagnostic, never crash or yield a series.
  for (const double frac : {0.5, 0.9, 0.99}) {
    const std::size_t cut =
        static_cast<std::size_t>(static_cast<double>(full.size()) * frac);
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(full.data(), static_cast<std::streamsize>(cut));
    }
    TimeSeries ts;
    error.clear();
    EXPECT_FALSE(load_timeseries(path, &ts, &error))
        << "torn at " << cut << "/" << full.size() << " bytes parsed";
    EXPECT_FALSE(error.empty());
  }

  // Writer finishes the flush: the next tick loads and self-checks.
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(full.data(), static_cast<std::streamsize>(full.size()));
  }
  TimeSeries ts;
  ASSERT_TRUE(load_timeseries(path, &ts, &error)) << error;
  EXPECT_TRUE(self_check_timeseries(ts, &error)) << error;
}

TEST(TimeSeries, GoldenFileSelfChecks) {
  TimeSeries ts;
  std::string error;
  ASSERT_TRUE(load_timeseries(WSS_TIMESERIES_GOLDEN, &ts, &error)) << error;
  EXPECT_TRUE(self_check_timeseries(ts, &error)) << error;
  EXPECT_GT(ts.frames.size(), 0u);
  EXPECT_FALSE(pretty_timeseries(ts).empty());
}

TEST(TimeSeries, FirstFrameDivergenceLocalizesTheDifference) {
  TimeSeries a;
  a.schema = kTimeseriesSchema;
  a.program = "diff-test";
  a.sample_cycles = 10;
  for (std::uint64_t i = 1; i <= 4; ++i) {
    TimeSeriesFrame f;
    f.cycle = 10 * i;
    f.window_cycles = 10;
    f.instr_cycles = 100 + i;
    a.frames.push_back(f);
  }
  TimeSeries b = a;
  const Divergence same = first_divergence(a, b);
  EXPECT_FALSE(same.found);

  b.frames[2].instr_cycles += 1;
  const Divergence d = first_divergence(a, b);
  ASSERT_TRUE(d.found);
  EXPECT_EQ(d.index, 2u);
  EXPECT_EQ(d.cycle, 30u);
  EXPECT_NE(d.a, d.b);
  EXPECT_FALSE(pretty_divergence(d).empty());

  // A truncated series diverges at its end, against "-".
  TimeSeries shorter = a;
  shorter.frames.pop_back();
  const Divergence tail = first_divergence(a, shorter);
  ASSERT_TRUE(tail.found);
  EXPECT_EQ(tail.index, 3u);
  EXPECT_EQ(tail.b, "-");
}

TEST(TimeSeries, SparklineScalesToMax) {
  EXPECT_EQ(sparkline({}, 4), "    ");
  const std::string flat = sparkline({1.0, 1.0, 1.0, 1.0}, 4);
  EXPECT_EQ(flat, "@@@@");
  const std::string ramp = sparkline({0.0, 10.0}, 2);
  EXPECT_EQ(ramp.size(), 2u);
  EXPECT_EQ(ramp[1], '@');
  EXPECT_LT(ramp[0], ramp[1]);
}

// --- cadence edge cases (proptest) --------------------------------------

TEST(TimeSeries, CadenceCoversIntervalVsRunLengthEdgeCases) {
  CleanEnv env;
  proptest::check(
      "sampling cadence tiles any run length",
      [](proptest::Case& c) {
        const int width = c.size(2, 4);
        const int height = c.size(2, 4);
        // Interval may far exceed the run length (K > total cycles).
        const std::uint64_t interval =
            static_cast<std::uint64_t>(c.size(1, 400));
        const std::uint64_t steps1 =
            static_cast<std::uint64_t>(c.size(0, 150));
        const std::uint64_t steps2 =
            static_cast<std::uint64_t>(c.size(0, 150));
        static const CS1Params arch;
        Fabric fabric(width, height, arch, SimParams{});
        TimeSeriesSampler sampler(interval);
        fabric.set_sampler(&sampler);
        for (std::uint64_t i = 0; i < steps1; ++i) fabric.step();
        // Mid-run control reset: cumulative core counters shrink; deltas
        // must restart instead of underflowing.
        fabric.reset_control();
        for (std::uint64_t i = 0; i < steps2; ++i) fabric.step();
        fabric.sample_now();
        // A second close is a no-op (no cycles elapsed since the last).
        const std::size_t frames_after_close = sampler.frames().size();
        fabric.sample_now();
        ASSERT_EQ(sampler.frames().size(), frames_after_close);

        const std::uint64_t total = steps1 + steps2;
        if (total == 0) {
          // run(0): no cycles, no frames — never a zero-width frame.
          ASSERT_TRUE(sampler.frames().empty());
        } else {
          ASSERT_FALSE(sampler.frames().empty());
          std::uint64_t window_sum = 0;
          std::uint64_t prev_cycle = 0;
          for (const TimeSeriesFrame& f : sampler.frames()) {
            ASSERT_GT(f.window_cycles, 0u);
            ASSERT_GT(f.cycle, prev_cycle);
            ASSERT_EQ(f.cycle - prev_cycle, f.window_cycles);
            prev_cycle = f.cycle;
            window_sum += f.window_cycles;
          }
          ASSERT_EQ(window_sum, total) << "windows must tile the run";
          ASSERT_EQ(sampler.frames().back().cycle, total);
          if (interval > total) {
            // K > total cycles: only the close produced a frame.
            ASSERT_EQ(sampler.frames().size(), 1u);
          }
        }
        fabric.set_sampler(nullptr);
      },
      {.cases = 10, .seed = 2026});
}

// --- postmortem embedding (satellite) -----------------------------------

TEST(TimeSeries, PostmortemBundleEmbedsTheSeriesTail) {
  CleanEnv env;
  const System s = make_system(Grid3(4, 4, 8), 23);
  CS1Params arch;
  SimParams sim;
  BicgstabSimulation simulation(s.a, 2, arch, sim);
  TimeSeriesSampler sampler(32);
  simulation.fabric().set_sampler(&sampler);
  (void)simulation.run(s.b);
  simulation.fabric().sample_now();
  simulation.fabric().set_sampler(nullptr);
  ASSERT_GT(sampler.frames().size(), 2u);

  AnomalyInfo anomaly;
  anomaly.kind = AnomalyInfo::Kind::Manual;
  anomaly.cycle = simulation.fabric().stats().cycles;
  anomaly.detail = "timeseries tail embedding test";
  PostmortemInputs in;
  in.fabric = &simulation.fabric();
  in.timeseries = &sampler;
  in.program = "bicgstab 4x4x8";
  const std::string dir = ::testing::TempDir() + "wss_timeseries_postmortem";
  reset_output_stem_claims();
  std::string path;
  std::string error;
  ASSERT_TRUE(write_postmortem(dir, anomaly, in, &path, &error)) << error;

  Bundle bundle;
  ASSERT_TRUE(load_bundle(path, &bundle, &error)) << error;
  EXPECT_TRUE(self_check_bundle(bundle, &error)) << error;
  EXPECT_EQ(bundle.ts_sample_cycles, 32u);
  EXPECT_EQ(bundle.ts_frames_total, sampler.frames().size());
  const std::size_t want_tail =
      std::min(sampler.frames().size(), kPostmortemTimeseriesTail);
  ASSERT_EQ(bundle.ts_frames.size(), want_tail);
  // The retained tail is the *last* frames, bit-for-bit.
  const std::size_t skip = sampler.frames().size() - want_tail;
  for (std::size_t i = 0; i < want_tail; ++i) {
    EXPECT_EQ(bundle.ts_frames[i], sampler.frames()[skip + i]) << "tail frame "
                                                               << i;
  }
  const std::string rendered = pretty_bundle(bundle);
  EXPECT_NE(rendered.find("time-series tail"), std::string::npos) << rendered;
}

} // namespace
} // namespace wss::telemetry
