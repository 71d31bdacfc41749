// Module 6 (extension): halo exchange correctness across rank counts,
// exchange styles and halo widths, plus the latency-hiding effect.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "minimpi/runtime.hpp"
#include "modules/stencil/module6.hpp"
#include "run_forced.hpp"

namespace mpi = dipdc::minimpi;
namespace m6 = dipdc::modules::stencil;
using dipdc::testing::run_forced;

namespace {

double sum_of(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

}  // namespace

TEST(Sequential, DiffusionConservesInteriorMassApproximately) {
  m6::Config cfg;
  cfg.global_cells = 1000;
  cfg.iterations = 8;
  const auto field = m6::run_sequential(cfg);
  ASSERT_EQ(field.size(), 1000u);
  // Diffusion with zero boundaries only loses mass through the two edges.
  double initial = 0.0;
  for (std::size_t i = 0; i < 1000; ++i) initial += m6::initial_value(i);
  const double final_sum = sum_of(field);
  EXPECT_LT(final_sum, initial + 1e-9);
  EXPECT_GT(final_sum, initial * 0.9);
}

TEST(Sequential, SmoothingReducesRoughness) {
  m6::Config cfg;
  cfg.global_cells = 512;
  cfg.iterations = 32;
  const auto field = m6::run_sequential(cfg);
  double rough_before = 0.0, rough_after = 0.0;
  for (std::size_t i = 1; i < 512; ++i) {
    rough_before += std::fabs(m6::initial_value(i) - m6::initial_value(i - 1));
    rough_after += std::fabs(field[i] - field[i - 1]);
  }
  EXPECT_LT(rough_after, rough_before / 4.0);
}

class StencilSweep
    : public ::testing::TestWithParam<std::tuple<int, int, m6::Exchange>> {};

TEST_P(StencilSweep, DistributedMatchesSequentialChecksum) {
  const auto [p, halo, exchange] = GetParam();
  if (exchange == m6::Exchange::kOverlapped && halo != 1) {
    GTEST_SKIP() << "overlap is implemented for halo width 1";
  }
  m6::Config cfg;
  cfg.global_cells = 4096;
  cfg.iterations = 24;
  cfg.halo_width = halo;
  cfg.exchange = exchange;
  const double expect = sum_of(m6::run_sequential(cfg));

  mpi::run(p, [&](mpi::Comm& comm) {
    const auto r = m6::run_distributed(comm, cfg);
    EXPECT_NEAR(r.checksum, expect, 1e-9 * std::fabs(expect) + 1e-12);
  });
}

INSTANTIATE_TEST_SUITE_P(
    RanksHalosExchanges, StencilSweep,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 8),
                       ::testing::Values(1, 2, 4),
                       ::testing::Values(m6::Exchange::kBlocking,
                                         m6::Exchange::kOverlapped)));

TEST(Stencil, DeepHalosReduceMessageCount) {
  m6::Config narrow, wide;
  narrow.global_cells = wide.global_cells = 4096;
  narrow.iterations = wide.iterations = 32;
  narrow.halo_width = 1;
  wide.halo_width = 4;
  std::uint64_t msgs_narrow = 0, msgs_wide = 0;
  mpi::run(4, [&](mpi::Comm& comm) {
    const auto a = m6::run_distributed(comm, narrow);
    const auto b = m6::run_distributed(comm, wide);
    if (comm.rank() == 1) {  // an interior rank with two neighbours
      msgs_narrow = a.halo_messages;
      msgs_wide = b.halo_messages;
    }
  });
  EXPECT_EQ(msgs_narrow, 64u);  // 2 per round x 32 rounds
  EXPECT_EQ(msgs_wide, 16u);    // 2 per round x 8 rounds
}

TEST(Stencil, OverlapHidesCommunication) {
  // On a multi-node machine with meaningful latency, the overlapped
  // exchange finishes sooner than the serialized one.
  m6::Config blocking, overlapped;
  blocking.global_cells = overlapped.global_cells = 1 << 15;
  blocking.iterations = overlapped.iterations = 64;
  blocking.exchange = m6::Exchange::kBlocking;
  overlapped.exchange = m6::Exchange::kOverlapped;

  mpi::RuntimeOptions opts;
  opts.machine = dipdc::perfmodel::MachineConfig::monsoon_like(4);
  opts.machine.inter_latency = 2e-5;  // a slow interconnect

  auto sim_time = [&](const m6::Config& cfg) {
    return run_forced(8, opts, [&](mpi::Comm& comm) {
      return m6::run_distributed(comm, cfg).sim_time;
    });
  };
  const double t_blocking = sim_time(blocking);
  const double t_overlapped = sim_time(overlapped);
  EXPECT_LT(t_overlapped, t_blocking);
}

TEST(Stencil, RejectsBadConfigs) {
  m6::Config cfg;
  cfg.iterations = 10;
  cfg.halo_width = 3;  // not a divisor
  EXPECT_THROW((void)m6::run_sequential(cfg),
               dipdc::support::PreconditionError);
  m6::Config overlap_wide;
  overlap_wide.exchange = m6::Exchange::kOverlapped;
  overlap_wide.halo_width = 2;
  overlap_wide.iterations = 4;
  EXPECT_THROW((void)m6::run_sequential(overlap_wide),
               dipdc::support::PreconditionError);
  m6::Config unstable;
  unstable.alpha = 0.9;
  EXPECT_THROW((void)m6::run_sequential(unstable),
               dipdc::support::PreconditionError);
}

TEST(Stencil, TooManyRanksForTheGridRejected) {
  m6::Config cfg;
  cfg.global_cells = 4;
  cfg.halo_width = 2;
  cfg.iterations = 2;
  EXPECT_THROW(
      mpi::run(4, [&](mpi::Comm& comm) { m6::run_distributed(comm, cfg); }),
      dipdc::support::PreconditionError);
}
