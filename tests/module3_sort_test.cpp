// Module 3: distributed bucket sort, load imbalance, histogram splitters.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "dataio/dataset.hpp"
#include "minimpi/ops.hpp"
#include "minimpi/runtime.hpp"
#include "modules/sort/module3.hpp"
#include "support/rng.hpp"
#include "run_forced.hpp"

namespace mpi = dipdc::minimpi;
namespace m3 = dipdc::modules::distsort;
using dipdc::testing::run_forced;

namespace {

std::vector<double> local_uniform(int rank, std::size_t n, double lo,
                                  double hi) {
  auto rng = dipdc::support::make_stream(500, static_cast<std::uint64_t>(rank));
  std::vector<double> v(n);
  for (auto& x : v) x = rng.uniform(lo, hi);
  return v;
}

std::vector<double> local_exponential(int rank, std::size_t n, double rate) {
  auto rng = dipdc::support::make_stream(501, static_cast<std::uint64_t>(rank));
  std::vector<double> v(n);
  for (auto& x : v) x = rng.exponential(rate);
  return v;
}

/// The regular-sampling splitters computed serially with std::sort: 16p
/// evenly spaced samples of each rank's sorted data, then every 16p-th of
/// all p * 16p samples sorted.
std::vector<double> sampling_splitters_ref(
    const std::vector<std::vector<double>>& per_rank, double lo) {
  const std::size_t np = per_rank.size();
  const std::size_t per = 16 * np;
  std::vector<double> all;
  for (auto local : per_rank) {
    std::sort(local.begin(), local.end());
    for (std::size_t i = 0; i < per; ++i) {
      all.push_back(local.empty()
                        ? lo
                        : local[std::min(local.size() - 1,
                                         (2 * i + 1) * local.size() /
                                             (2 * per))]);
    }
  }
  std::sort(all.begin(), all.end());
  std::vector<double> splitters;
  for (std::size_t i = 1; i < np; ++i) splitters.push_back(all[i * per]);
  return splitters;
}

}  // namespace

TEST(Splitters, EqualWidthAreEvenlySpaced) {
  mpi::run(4, [](mpi::Comm& comm) {
    m3::Config cfg;
    cfg.lo = 0.0;
    cfg.hi = 8.0;
    std::vector<double> none;
    const auto s = m3::compute_splitters(comm, none, cfg);
    ASSERT_EQ(s.size(), 3u);
    EXPECT_DOUBLE_EQ(s[0], 2.0);
    EXPECT_DOUBLE_EQ(s[1], 4.0);
    EXPECT_DOUBLE_EQ(s[2], 6.0);
  });
}

TEST(Splitters, HistogramEqualizesSkewedData) {
  mpi::run(4, [](mpi::Comm& comm) {
    m3::Config cfg;
    cfg.policy = m3::SplitterPolicy::kHistogram;
    cfg.lo = 0.0;
    cfg.hi = 10.0;
    auto local = local_exponential(comm.rank(), 20000, 1.0);
    for (auto& v : local) v = std::min(v, 9.999);
    const auto s = m3::compute_splitters(comm, local, cfg);
    ASSERT_EQ(s.size(), 3u);
    // For Exp(1), the quartile boundaries are about 0.29, 0.69, 1.39 —
    // far below the equal-width 2.5/5.0/7.5.
    EXPECT_LT(s[0], 1.0);
    EXPECT_LT(s[1], 1.5);
    EXPECT_LT(s[2], 2.5);
    EXPECT_TRUE(std::is_sorted(s.begin(), s.end()));
  });
}

class SortSweep : public ::testing::TestWithParam<int> {};

TEST_P(SortSweep, UniformEqualWidthSortsAndBalances) {
  const int p = GetParam();
  mpi::run(p, [](mpi::Comm& comm) {
    auto local = local_uniform(comm.rank(), 5000, 0.0, 1.0);
    m3::Config cfg;  // equal width over [0,1)
    const auto r = m3::distributed_bucket_sort(comm, local, cfg);
    EXPECT_TRUE(r.globally_sorted);
    EXPECT_EQ(r.total_elements, 5000u * static_cast<std::size_t>(comm.size()));
    EXPECT_LT(r.imbalance, 1.1);  // uniform data balances naturally
    EXPECT_TRUE(std::is_sorted(local.begin(), local.end()));
  });
}

TEST_P(SortSweep, ExponentialEqualWidthIsImbalanced) {
  const int p = GetParam();
  if (p < 4) GTEST_SKIP() << "imbalance needs several buckets";
  mpi::run(p, [p](mpi::Comm& comm) {
    auto local = local_exponential(comm.rank(), 5000, 1.0);
    for (auto& v : local) v = std::min(v, 9.999);
    m3::Config cfg;
    cfg.lo = 0.0;
    cfg.hi = 10.0;
    const auto r = m3::distributed_bucket_sort(comm, local, cfg);
    EXPECT_TRUE(r.globally_sorted);
    // Exp(1) clipped to [0,10): the first width-10/p bucket holds the bulk.
    EXPECT_GT(r.imbalance, 2.0);
  });
}

TEST_P(SortSweep, HistogramRestoresBalance) {
  const int p = GetParam();
  mpi::run(p, [](mpi::Comm& comm) {
    auto local = local_exponential(comm.rank(), 5000, 1.0);
    for (auto& v : local) v = std::min(v, 9.999);
    m3::Config cfg;
    cfg.policy = m3::SplitterPolicy::kHistogram;
    cfg.lo = 0.0;
    cfg.hi = 10.0;
    cfg.histogram_bins = 512;
    const auto r = m3::distributed_bucket_sort(comm, local, cfg);
    EXPECT_TRUE(r.globally_sorted);
    EXPECT_LT(r.imbalance, 1.5);
  });
}

INSTANTIATE_TEST_SUITE_P(WorldSizes, SortSweep,
                         ::testing::Values(1, 2, 4, 7, 8));

TEST(Sort, AllElementsSurviveTheExchange) {
  mpi::run(4, [](mpi::Comm& comm) {
    auto local = local_uniform(comm.rank(), 1000, 0.0, 1.0);
    auto copy = local;
    m3::Config cfg;
    const auto r = m3::distributed_bucket_sort(comm, local, cfg);
    EXPECT_TRUE(r.globally_sorted);
    // Global multiset preserved: compare sums as a cheap proxy.
    double in_sum = 0.0, out_sum = 0.0;
    for (const double v : copy) in_sum += v;
    for (const double v : local) out_sum += v;
    const double gin = comm.allreduce_value(in_sum, mpi::ops::Sum{});
    const double gout = comm.allreduce_value(out_sum, mpi::ops::Sum{});
    EXPECT_NEAR(gin, gout, 1e-9 * gin);
  });
}

TEST(Sort, EmptyLocalDataIsHandled) {
  mpi::run(3, [](mpi::Comm& comm) {
    std::vector<double> local;
    if (comm.rank() == 1) local = {0.9, 0.1, 0.5};
    m3::Config cfg;
    const auto r = m3::distributed_bucket_sort(comm, local, cfg);
    EXPECT_TRUE(r.globally_sorted);
    EXPECT_EQ(r.total_elements, 3u);
  });
}

TEST(Sort, DuplicateValuesStayTogether) {
  mpi::run(4, [](mpi::Comm& comm) {
    std::vector<double> local(100, 0.25);
    m3::Config cfg;
    const auto r = m3::distributed_bucket_sort(comm, local, cfg);
    EXPECT_TRUE(r.globally_sorted);
    // All duplicates land in one bucket: maximal imbalance p.
    EXPECT_NEAR(r.imbalance, 4.0, 1e-9);
  });
}

TEST(Sort, HistogramCostsMoreCommunicationSetupButSimilarTotal) {
  // Sanity on the paper's claim that histogram-based performance is
  // similar to the uniform/equal-width case.
  const int p = 8;
  const double t_uniform = run_forced(p, {}, [&](mpi::Comm& comm) {
    auto local = local_uniform(comm.rank(), 20000, 0.0, 1.0);
    m3::Config cfg;
    return m3::distributed_bucket_sort(comm, local, cfg).sim_time;
  });
  const double t_hist = run_forced(p, {}, [&](mpi::Comm& comm) {
    auto local = local_exponential(comm.rank(), 20000, 1.0);
    for (auto& v : local) v = std::min(v, 9.999);
    m3::Config cfg;
    cfg.policy = m3::SplitterPolicy::kHistogram;
    cfg.lo = 0.0;
    cfg.hi = 10.0;
    return m3::distributed_bucket_sort(comm, local, cfg).sim_time;
  });
  EXPECT_LT(t_hist, t_uniform * 2.0);
  EXPECT_GT(t_hist, t_uniform * 0.5);
}

TEST(Sort, MemoryBoundScalingIsBelowModule2) {
  // The module's scalability lesson: sorting (memory-bound) achieves lower
  // parallel efficiency than the compute-bound distance matrix.  Here we
  // just check that sort speedup at 8 ranks is clearly sublinear.
  auto time_at = [&](int p) {
    return run_forced(p, {}, [&](mpi::Comm& comm) {
      // Fixed global size: strong scaling.
      const std::size_t local_n = 160000 / static_cast<std::size_t>(p);
      auto local = local_uniform(comm.rank(), local_n, 0.0, 1.0);
      m3::Config cfg;
      return m3::distributed_bucket_sort(comm, local, cfg).sim_time;
    });
  };
  const double speedup8 = time_at(1) / time_at(8);
  EXPECT_GT(speedup8, 1.0);
  EXPECT_LT(speedup8, 6.0);
}

TEST(Sampling, BalancesSkewedData) {
  mpi::run(8, [](mpi::Comm& comm) {
    auto local = local_exponential(comm.rank(), 5000, 1.0);
    for (auto& v : local) v = std::min(v, 9.999);
    m3::Config cfg;
    cfg.policy = m3::SplitterPolicy::kSampling;
    cfg.lo = 0.0;
    cfg.hi = 10.0;
    const auto r = m3::distributed_bucket_sort(comm, local, cfg);
    EXPECT_TRUE(r.globally_sorted);
    EXPECT_LT(r.imbalance, 1.2);
  });
}

TEST(Sampling, SurvivesHeterogeneousRankDistributions) {
  // Each rank holds data from a *different* range: rank r draws from
  // [r, r+1).  The histogram policy sees only rank 0's slice and collapses;
  // regular sampling uses all ranks and stays balanced.
  const int p = 8;
  auto make_local = [](int rank) {
    auto rng = dipdc::support::make_stream(
        900, static_cast<std::uint64_t>(rank));
    std::vector<double> v(4000);
    for (auto& x : v) x = rank + rng.uniform();
    return v;
  };
  double imb_hist = 0.0, imb_sample = 0.0;
  mpi::run(p, [&](mpi::Comm& comm) {
    {
      auto local = make_local(comm.rank());
      m3::Config cfg;
      cfg.policy = m3::SplitterPolicy::kHistogram;
      cfg.lo = 0.0;
      cfg.hi = 8.0;
      const auto r = m3::distributed_bucket_sort(comm, local, cfg);
      EXPECT_TRUE(r.globally_sorted);
      if (comm.rank() == 0) imb_hist = r.imbalance;
    }
    {
      auto local = make_local(comm.rank());
      m3::Config cfg;
      cfg.policy = m3::SplitterPolicy::kSampling;
      cfg.lo = 0.0;
      cfg.hi = 8.0;
      const auto r = m3::distributed_bucket_sort(comm, local, cfg);
      EXPECT_TRUE(r.globally_sorted);
      if (comm.rank() == 0) imb_sample = r.imbalance;
    }
  });
  // Rank 0's local data is all in [0,1): its histogram squeezes every
  // splitter into that interval, dumping almost everything on the last
  // rank (imbalance ~ p).  Sampling stays near-perfect.
  EXPECT_GT(imb_hist, 3.0);
  EXPECT_LT(imb_sample, 1.2);
}

TEST(Sampling, SplittersEqualStdSortReference) {
  // Skewed (capped exponential, uneven counts) and heterogeneous (rank r
  // draws from a 1/64 grid over [r, r+1), the last rank holds nothing)
  // inputs, both with duplicates.
  const int p = 6;
  std::vector<std::vector<double>> skewed, heterogeneous;
  for (int r = 0; r < p; ++r) {
    auto v =
        local_exponential(r, 3001 + 97 * static_cast<std::size_t>(r), 1.0);
    for (auto& x : v) x = std::min(x, 9.999);
    skewed.push_back(std::move(v));
    auto h = local_uniform(r, r == p - 1 ? 0 : 2000, 0.0, 1.0);
    for (auto& x : h) x = r + std::floor(x * 64.0) / 64.0;
    heterogeneous.push_back(std::move(h));
  }
  for (const auto* per_rank : {&skewed, &heterogeneous}) {
    const auto want = sampling_splitters_ref(*per_rank, 0.0);
    mpi::run(p, [&](mpi::Comm& comm) {
      m3::Config cfg;
      cfg.policy = m3::SplitterPolicy::kSampling;
      cfg.lo = 0.0;
      cfg.hi = 10.0;
      const auto got = m3::compute_splitters(
          comm, (*per_rank)[static_cast<std::size_t>(comm.rank())], cfg);
      EXPECT_EQ(got, want) << "rank " << comm.rank();
    });
  }
}

TEST(Sampling, UniformDataStaysBalancedAcrossRankCounts) {
  for (const int p : {1, 2, 4, 7}) {
    mpi::run(p, [](mpi::Comm& comm) {
      auto local = local_uniform(comm.rank(), 3000, 0.0, 1.0);
      m3::Config cfg;
      cfg.policy = m3::SplitterPolicy::kSampling;
      const auto r = m3::distributed_bucket_sort(comm, local, cfg);
      EXPECT_TRUE(r.globally_sorted);
      EXPECT_LT(r.imbalance, 1.25);
    });
  }
}
