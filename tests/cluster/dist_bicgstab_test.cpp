#include "cluster/dist_bicgstab.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "solver/stencil_operator.hpp"
#include "stencil/generators.hpp"

namespace wss::cluster {
namespace {

TEST(DistBicgstab, MatchesSequentialSolution) {
  const Grid3 g(12, 10, 8);
  auto a = make_convection_diffusion7(g, 1.5, -0.5, 1.0);
  const auto xref = make_smooth_solution(g);
  const auto b = make_rhs(a, xref);

  SolveControls c;
  c.max_iterations = 200;
  c.tolerance = 1e-10;

  for (const int ranks : {1, 2, 4, 8}) {
    World world(ranks);
    Field3<double> x(g, 0.0);
    const auto result = distributed_bicgstab(world, a, b, x, c);
    EXPECT_EQ(result.solve.reason, StopReason::Converged) << ranks;

    Stencil7Operator<double> op(a);
    std::vector<double> xv(x.begin(), x.end());
    std::vector<double> bv(b.begin(), b.end());
    EXPECT_LT(true_relative_residual<double>(op, std::span<const double>(bv),
                                             std::span<const double>(xv)),
              1e-9)
        << ranks << " ranks";
  }
}

TEST(DistBicgstab, RepeatedRunsAreBitIdentical) {
  // Allreduce sums the ranks' values in rank order, whatever order the
  // rank threads arrive in, so a rerun takes the same path bit for bit.
  const Grid3 g(24, 24, 24);
  auto a = make_convection_diffusion7(g, 1.0, -0.5, 0.5);
  const auto b = make_rhs(a, make_smooth_solution(g));
  SolveControls c;
  c.max_iterations = 100;
  c.tolerance = 1e-9;

  World world(8);
  Field3<double> first(g, 0.0);
  const int iterations =
      distributed_bicgstab(world, a, b, first, c).solve.iterations;
  for (int run = 1; run < 3; ++run) {
    Field3<double> x(g, 0.0);
    EXPECT_EQ(distributed_bicgstab(world, a, b, x, c).solve.iterations,
              iterations)
        << "run " << run;
    for (std::size_t i = 0; i < x.size(); ++i) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(x[i]),
                std::bit_cast<std::uint64_t>(first[i]))
          << "run " << run << " element " << i;
    }
  }
}

TEST(DistBicgstab, RankCountDoesNotChangeIterationCount) {
  // fp64 reductions summed in rank order: rank counts produce very
  // similar (often identical) convergence paths.
  const Grid3 g(8, 8, 8);
  auto a = make_poisson7(g);
  const auto xref = make_smooth_solution(g);
  const auto b = make_rhs(a, xref);
  SolveControls c;
  c.max_iterations = 300;
  c.tolerance = 1e-9;

  World w1(1), w4(4);
  Field3<double> x1(g, 0.0), x4(g, 0.0);
  const auto r1 = distributed_bicgstab(w1, a, b, x1, c);
  const auto r4 = distributed_bicgstab(w4, a, b, x4, c);
  EXPECT_NEAR(r1.solve.iterations, r4.solve.iterations, 3);
}

TEST(DistBicgstab, CommStatsScaleWithRanks) {
  const Grid3 g(16, 16, 16);
  auto a = make_poisson7(g);
  Field3<double> b(g, 1.0);
  SolveControls c;
  c.max_iterations = 5;
  c.tolerance = 0.0;

  World w2(2), w8(8);
  Field3<double> x2(g, 0.0), x8(g, 0.0);
  const auto r2 = distributed_bicgstab(w2, a, b, x2, c);
  const auto r8 = distributed_bicgstab(w8, a, b, x8, c);
  // More ranks, more halo messages.
  EXPECT_GT(r8.comm.messages_sent, r2.comm.messages_sent);
  EXPECT_GT(r8.comm.bytes_sent, 0u);
  // Allreduces per rank are rank-count independent: totals scale by 4.
  EXPECT_EQ(r8.comm.allreduces % r2.comm.allreduces, 0u);
}

TEST(IterationCommVolume, SurfaceToVolumeShrinks) {
  const Grid3 g(600, 600, 600);
  const auto v1k = iteration_comm_volume(g, 1024);
  const auto v16k = iteration_comm_volume(g, 16384);
  // Per-rank halo bytes shrink with more ranks...
  EXPECT_LT(v16k.halo_bytes_per_rank, v1k.halo_bytes_per_rank);
  // ...but total halo traffic grows.
  EXPECT_GT(v16k.halo_bytes_per_rank * 16384, v1k.halo_bytes_per_rank * 1024);
  EXPECT_EQ(v1k.allreduces, 4);
}

TEST(IterationCommVolume, SingleRankHasNoHalo) {
  const auto v = iteration_comm_volume(Grid3(64, 64, 64), 1);
  EXPECT_EQ(v.halo_bytes_per_rank, 0.0);
  EXPECT_EQ(v.halo_messages_per_rank, 0);
}

} // namespace
} // namespace wss::cluster
