// Acceptance suite for the generic stencil front-end (src/stencilfe/,
// docs/STENCILFE.md): transition-spec validation, the tile memory layout,
// the host golden evaluator, and the conformance matrix — every shipped
// workload (heat/hotspot, 2D wave, Conway life, and the stencil9 anchor)
// must be bit-identical between the compiled fabric program and the host
// golden, on both execution backends, at WSS_SIM_THREADS 1/2/8, across
// host-driven generations. The stencil9 anchor is additionally held
// bit-equal to spmv9 on an all-ones Stencil9, tying the front-end to the
// proven backend-conformance halo-exchange program. A seeded property
// test (WSS_PROPTEST_SEED replays) draws random transition functions —
// fields, terms, coefficients, boundary policy, life rule — and demands
// the same equivalences. The calibrated perfmodel projection is asserted
// exactly against measured cycles for every shipped workload.

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "perfmodel/stencilfe_model.hpp"
#include "stencil/stencil9.hpp"
#include "stencilfe/executor.hpp"
#include "stencilfe/golden.hpp"
#include "stencilfe/program.hpp"
#include "stencilfe/workloads.hpp"
#include "support/env_guard.hpp"
#include "support/fabric_compare.hpp"
#include "support/proptest.hpp"
#include "wse/fabric.hpp"

namespace wss::stencilfe {
namespace {

using testsupport::CleanSimEnv;
using testsupport::expect_fabric_state_identical;
using testsupport::expect_stop_identical;
using wse::Backend;
using wse::CS1Params;
using wse::SimParams;

// Fabric keeps a pointer to its CS1Params, so the architecture object
// must outlive every fabric built from it.
const CS1Params& arch() {
  static const CS1Params a;
  return a;
}

void expect_state_bits(const std::vector<fp16_t>& want,
                       const std::vector<fp16_t>& got,
                       const std::string& label) {
  ASSERT_EQ(want.size(), got.size()) << label;
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(want[i].bits(), got[i].bits())
        << label << " word " << i << " (want " << want[i].to_double()
        << ", got " << got[i].to_double() << ")";
  }
}

/// Every cycle of the run stepped the fast loop, entered once.
void expect_turbo_engaged(const wse::Fabric& f, const std::string& label) {
  EXPECT_EQ(f.turbo_stats().turbo_cycles, f.stats().cycles) << label;
  EXPECT_EQ(f.turbo_stats().promotions, 1u) << label;
  EXPECT_EQ(f.turbo_stats().demotions, 0u) << label;
}

/// The full conformance matrix for one workload: golden as truth, the
/// reference backend at one thread as the observable baseline, then both
/// backends at 1/2/8 threads held bit-identical in result state, stop
/// info, and every fabric/telemetry counter.
void conformance_roundtrip(const TransitionFn& fn, int nx, int ny,
                           const std::vector<fp16_t>& init, int generations) {
  const std::vector<fp16_t> want = golden_run(fn, nx, ny, init, generations);

  SimParams base_sim;
  base_sim.backend = Backend::Reference;
  base_sim.sim_threads = 1;
  StencilExecutor base(fn, nx, ny, arch(), base_sim);
  base.load(init);
  const wse::StopInfo base_stop = base.step(generations);
  expect_state_bits(want, base.read_state(), fn.name + " reference t1");

  for (const Backend backend : {Backend::Reference, Backend::Turbo}) {
    for (const int threads : {1, 2, 8}) {
      if (backend == Backend::Reference && threads == 1) continue;
      const std::string label =
          fn.name + (backend == Backend::Turbo ? " turbo" : " reference") +
          " t" + std::to_string(threads);
      SimParams sim;
      sim.backend = backend;
      sim.sim_threads = threads;
      StencilExecutor ex(fn, nx, ny, arch(), sim);
      ex.load(init);
      const wse::StopInfo stop = ex.step(generations);
      expect_state_bits(want, ex.read_state(), label);
      expect_stop_identical(base_stop, stop, label);
      expect_fabric_state_identical(base.fabric(), ex.fabric(), label);
      if (backend == Backend::Turbo) expect_turbo_engaged(ex.fabric(), label);
    }
  }

  // The calibrated performance model projects this workload's measured
  // per-generation cycle count exactly (perfmodel/stencilfe_model.hpp).
  const auto projection = perfmodel::project_stencilfe_generation(fn, nx, ny);
  EXPECT_EQ(static_cast<std::uint64_t>(projection.total()),
            base.last_generation_cycles())
      << fn.name << " perfmodel projection drifted from measurement";
}

// --- spec validation and layout ----------------------------------------

TEST(StencilFe, ValidateRejectsUnmappableSpecs) {
  TransitionFn ok = heat_fn();
  EXPECT_NO_THROW(validate(ok));

  TransitionFn bad = ok;
  bad.fields = 0;
  EXPECT_THROW(validate(bad), std::invalid_argument);
  bad = ok;
  bad.fields = kMaxFields + 1;
  EXPECT_THROW(validate(bad), std::invalid_argument);
  bad = ok;
  bad.terms.clear();
  EXPECT_THROW(validate(bad), std::invalid_argument);
  bad = ok;
  bad.terms[0].dx = 2;
  EXPECT_THROW(validate(bad), std::invalid_argument);
  bad = ok;
  bad.terms[0].in_field = 1; // fields == 1
  EXPECT_THROW(validate(bad), std::invalid_argument);
  bad = wave_fn(); // two fields
  bad.life_rule = true;
  EXPECT_THROW(validate(bad), std::invalid_argument);
}

TEST(StencilFe, ExecutorRejectsPeriodicDegenerateAxes) {
  EXPECT_THROW(
      StencilExecutor(heat_fn(0.125, BoundaryPolicy::Periodic), 1, 4, arch()),
      std::invalid_argument);
  EXPECT_THROW(
      StencilExecutor(heat_fn(0.125, BoundaryPolicy::Periodic), 4, 1, arch()),
      std::invalid_argument);
}

TEST(StencilFe, CellLayoutAddressesTheGhostFrame) {
  for (const int fields : {1, 2}) {
    TransitionFn fn = fields == 1 ? heat_fn() : wave_fn();
    const CellLayout l = cell_layout(fn);
    EXPECT_EQ(l.fields, fields);
    EXPECT_EQ(l.own(), l.row_c + fields);
    // The 3x3 frame: west/center/east of each row, fields words apart.
    EXPECT_EQ(l.neighbor(-1, 0, 0), l.row_c);
    EXPECT_EQ(l.neighbor(0, 0, 0), l.own());
    EXPECT_EQ(l.neighbor(1, -1, fields - 1), l.row_n + 2 * fields + fields - 1);
    EXPECT_EQ(l.neighbor(-1, 1, 0), l.row_s);
    EXPECT_LE(l.used_halfwords,
              static_cast<int>(arch().tile_memory_bytes / 2));
  }
}

// --- golden evaluator sanity -------------------------------------------

TEST(StencilFe, GoldenHeatHoldsUniformInterior) {
  // (1-4a)*u + a*(4u) == u exactly for a = 0.125 and u = 1: a uniform
  // field is a fixed point away from the Dirichlet boundary, and edge
  // cells lose exactly the ghost share.
  const TransitionFn fn = heat_fn();
  const int nx = 5, ny = 5;
  std::vector<fp16_t> state(static_cast<std::size_t>(nx * ny), fp16_t(1.0));
  const auto next = golden_step(fn, nx, ny, state);
  EXPECT_EQ(next[static_cast<std::size_t>(2 * nx + 2)].to_double(), 1.0);
  // An edge-center cell sees one zero ghost: (1-4a) + 3a = 1 - a.
  EXPECT_EQ(next[static_cast<std::size_t>(0 * nx + 2)].to_double(), 0.875);
  // A corner sees two zero ghosts: 1 - 2a.
  EXPECT_EQ(next[0].to_double(), 0.75);
}

TEST(StencilFe, GoldenLifeBlinkerOscillates) {
  const TransitionFn fn = life_fn();
  const int nx = 5, ny = 5;
  std::vector<fp16_t> board(static_cast<std::size_t>(nx * ny), fp16_t(0.0));
  const auto at = [nx](int x, int y) { return static_cast<std::size_t>(y * nx + x); };
  board[at(1, 2)] = fp16_t(1.0);
  board[at(2, 2)] = fp16_t(1.0);
  board[at(3, 2)] = fp16_t(1.0);
  const auto gen1 = golden_step(fn, nx, ny, board);
  EXPECT_EQ(gen1[at(2, 1)].to_double(), 1.0);
  EXPECT_EQ(gen1[at(2, 2)].to_double(), 1.0);
  EXPECT_EQ(gen1[at(2, 3)].to_double(), 1.0);
  EXPECT_EQ(gen1[at(1, 2)].to_double(), 0.0);
  EXPECT_EQ(gen1[at(3, 2)].to_double(), 0.0);
  // Period 2: two generations restore the horizontal bar.
  expect_state_bits(board, golden_step(fn, nx, ny, gen1), "blinker period 2");
}

TEST(StencilFe, GoldenWaveReflectiveKeepsSymmetry) {
  // A left-right symmetric initial bump under reflective walls stays
  // left-right symmetric bit-for-bit.
  const TransitionFn fn = wave_fn();
  const int nx = 6, ny = 4;
  std::vector<fp16_t> state(static_cast<std::size_t>(nx * ny * 2), fp16_t(0.0));
  const auto at = [nx](int x, int y, int f) {
    return static_cast<std::size_t>((y * nx + x) * 2 + f);
  };
  for (int y = 0; y < ny; ++y) {
    for (int x = 0; x < nx; ++x) {
      const double bump = (x == 2 || x == 3) && y == 1 ? 0.5 : 0.0;
      state[at(x, y, 0)] = fp16_t(bump);
      state[at(x, y, 1)] = fp16_t(bump);
    }
  }
  const auto evolved = golden_run(fn, nx, ny, state, 4);
  for (int y = 0; y < ny; ++y) {
    for (int x = 0; x < nx; ++x) {
      for (int f = 0; f < 2; ++f) {
        EXPECT_EQ(evolved[at(x, y, f)].bits(),
                  evolved[at(nx - 1 - x, y, f)].bits())
            << "asymmetry at (" << x << "," << y << ") field " << f;
      }
    }
  }
}

TEST(StencilFe, Stencil9AnchorMatchesSpmv9AllOnesExactBits) {
  // The anchor's contract: unit-coefficient FMACs (one rounding) agree
  // bit-for-bit with spmv9's mul+add on an all-ones Stencil9, and the
  // ghost-zero FMACs the front-end executes (where spmv9 skips the
  // out-of-range neighbor) are exact no-ops.
  const TransitionFn fn = stencil9_fn();
  const int nx = 7, ny = 6;
  const Grid2 g(nx, ny);
  const std::vector<fp16_t> state = random_state(fn, nx, ny, 2027);

  Stencil9<fp16_t> ones(g);
  for (auto& c : ones.coeff) c.fill(fp16_t(1.0));
  Field2<fp16_t> v(g);
  for (int y = 0; y < ny; ++y) {
    for (int x = 0; x < nx; ++x) {
      v(x, y) = state[static_cast<std::size_t>(y * nx + x)];
    }
  }
  Field2<fp16_t> u(g);
  spmv9(ones, v, u);

  const auto got = golden_step(fn, nx, ny, state);
  for (int y = 0; y < ny; ++y) {
    for (int x = 0; x < nx; ++x) {
      ASSERT_EQ(got[static_cast<std::size_t>(y * nx + x)].bits(),
                u(x, y).bits())
          << "(" << x << "," << y << ")";
    }
  }
}

// --- fabric conformance: every workload, both backends, 1/2/8 threads ---

TEST(StencilFeConformance, HeatDirichlet) {
  CleanSimEnv env;
  const TransitionFn fn = heat_fn();
  conformance_roundtrip(fn, 6, 5, random_state(fn, 6, 5, 101), 3);
}

TEST(StencilFeConformance, HeatPeriodic) {
  CleanSimEnv env;
  const TransitionFn fn = heat_fn(0.125, BoundaryPolicy::Periodic);
  conformance_roundtrip(fn, 5, 4, random_state(fn, 5, 4, 103), 3);
}

TEST(StencilFeConformance, WaveReflective) {
  CleanSimEnv env;
  const TransitionFn fn = wave_fn();
  conformance_roundtrip(fn, 5, 4, random_state(fn, 5, 4, 107), 3);
}

TEST(StencilFeConformance, LifePeriodic) {
  CleanSimEnv env;
  const TransitionFn fn = life_fn();
  conformance_roundtrip(fn, 6, 6, random_life_state(6, 6, 109), 4);
}

TEST(StencilFeConformance, Stencil9Anchor) {
  CleanSimEnv env;
  const TransitionFn fn = stencil9_fn();
  conformance_roundtrip(fn, 5, 4, random_state(fn, 5, 4, 113), 2);
}

// --- seeded property: random transition functions ----------------------

TEST(StencilFeProperty, RandomTransitionsMatchGoldenOnBothBackends) {
  CleanSimEnv env;
  proptest::check(
      "random transition functions vs host golden, both backends, t1/2/8",
      [](proptest::Case& pc) {
        Rng& rng = pc.rng();
        TransitionFn fn;
        fn.name = "prop";
        fn.fields = pc.size(1, 2);
        fn.boundary = static_cast<BoundaryPolicy>(rng.below(3));
        const int nterms = pc.size(1, 6);
        for (int t = 0; t < nterms; ++t) {
          Term term;
          term.out_field = static_cast<int>(
              rng.below(static_cast<std::uint64_t>(fn.fields)));
          term.in_field = static_cast<int>(
              rng.below(static_cast<std::uint64_t>(fn.fields)));
          term.dx = static_cast<int>(rng.below(3)) - 1;
          term.dy = static_cast<int>(rng.below(3)) - 1;
          term.coeff = fp16_t(pc.uniform(-1.0, 1.0));
          fn.terms.push_back(term);
        }
        if (fn.fields == 1 && rng.below(4) == 0) fn.life_rule = true;
        validate(fn);

        const int nx = pc.size(2, 6);
        const int ny = pc.size(2, 6);
        const int generations = pc.size(1, 3);
        const std::vector<fp16_t> init =
            random_state(fn, nx, ny, pc.seed() ^ 0x51full);
        const std::vector<fp16_t> want =
            golden_run(fn, nx, ny, init, generations);

        for (const Backend backend : {Backend::Reference, Backend::Turbo}) {
          for (const int threads : {1, 2, 8}) {
            SimParams sim;
            sim.backend = backend;
            sim.sim_threads = threads;
            StencilExecutor ex(fn, nx, ny, arch(), sim);
            ex.load(init);
            (void)ex.step(generations);
            expect_state_bits(
                want, ex.read_state(),
                std::string(backend == Backend::Turbo ? "turbo" : "reference") +
                    " t" + std::to_string(threads) + " " + std::to_string(nx) +
                    "x" + std::to_string(ny));
          }
        }
      },
      {.cases = 4, .seed = 977});
}

} // namespace
} // namespace wss::stencilfe
