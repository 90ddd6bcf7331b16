// Determinism contract for the cycle-attribution profiler
// (docs/PROFILING.md): a profile recorded while stepping a fabric with ANY
// host thread count is bit-identical to the serial profile — phase x
// category matrices, compute intervals, wavelet-edge logs, iteration
// marks, and the derived critical paths and JSON. Runs the full BiCGStab
// dataflow on randomized fabric shapes under tests/support/proptest.hpp
// with 1, 2, and 8 threads. This file is part of test_wse so the TSan CI
// job races the recording surface as well.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>

#include "stencil/generators.hpp"
#include "support/observer_compare.hpp"
#include "support/proptest.hpp"
#include "telemetry/profiler.hpp"
#include "wse/fabric.hpp"
#include "wsekernels/bicgstab_program.hpp"

namespace wss::wse {
namespace {

constexpr int kThreadCounts[] = {2, 8};

struct Problem {
  Stencil7<fp16_t> a;
  Field3<fp16_t> b;
  int iterations = 2;
};

Problem make_problem(int nx, int ny, int z, std::uint64_t seed,
                     int iterations) {
  const Grid3 g(nx, ny, z);
  auto ad = make_momentum_like7(g, 0.5, seed);
  auto bd = make_rhs(ad, make_smooth_solution(g));
  const auto bp = precondition_jacobi(ad, bd);
  return Problem{convert_stencil<fp16_t>(ad), convert_field<fp16_t>(bp),
                 iterations};
}

/// Run the problem with `threads` host threads and a profiler attached.
std::unique_ptr<telemetry::Profiler> run_profiled(const Problem& p,
                                                  int threads) {
  const CS1Params arch;
  SimParams sim;
  sim.sim_threads = threads;
  auto prof = std::make_unique<telemetry::Profiler>(p.a.grid.nx, p.a.grid.ny);
  wsekernels::BicgstabSimulation s(p.a, p.iterations, arch, sim);
  s.fabric().set_profiler(prof.get());
  (void)s.run(p.b);
  s.fabric().set_profiler(nullptr);
  return prof;
}

/// Per-tile state (support/observer_compare.hpp), plus byte-identical
/// reports and identical derived analyses.
void expect_profiles_identical(const telemetry::Profiler& want,
                               const telemetry::Profiler& got,
                               const std::string& label) {
  testsupport::expect_profiles_identical(want, got, label);
  EXPECT_EQ(want.to_json(), got.to_json()) << label;
  EXPECT_EQ(want.iteration_windows(), got.iteration_windows()) << label;
  const auto pa = telemetry::per_iteration_critical_paths(want);
  const auto pb = telemetry::per_iteration_critical_paths(got);
  ASSERT_EQ(pa.size(), pb.size()) << label;
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_EQ(pa[i].pretty(), pb[i].pretty()) << label;
  }
}

TEST(ProfilerConformance, BitIdenticalAcrossThreadCounts) {
  proptest::check(
      "profile(threads) == profile(serial)",
      [](proptest::Case& c) {
        const int nx = c.size(3, 7);
        const int ny = c.size(3, 7);
        const int z = 4 * c.size(1, 5);
        const int iterations = c.size(1, 3);
        const Problem p =
            make_problem(nx, ny, z, c.rng().next_u64(), iterations);
        const auto serial = run_profiled(p, 1);
        ASSERT_GT(serial->observed_cycles(), 0u);
        for (const int threads : kThreadCounts) {
          const auto par = run_profiled(p, threads);
          expect_profiles_identical(
              *serial, *par,
              std::to_string(threads) + " threads, " + std::to_string(nx) +
                  "x" + std::to_string(ny) + "x" + std::to_string(z));
        }
      },
      {.cases = 4, .seed = 2026});
}

TEST(ProfilerConformance, FixedShapeEightThreadsByteIdenticalJson) {
  // A deterministic (non-random) anchor so failures reproduce without
  // proptest replay: the exact configuration the secV bench profiles.
  const Problem p = make_problem(6, 6, 16, 7, 3);
  const auto serial = run_profiled(p, 1);
  const auto par = run_profiled(p, 8);
  EXPECT_EQ(serial->to_json(), par->to_json());
}

} // namespace
} // namespace wss::wse
