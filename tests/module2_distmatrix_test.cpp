// Module 2: distance-matrix kernels, locality model, distributed driver.
#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "cachesim/cache.hpp"
#include "dataio/dataset.hpp"
#include "minimpi/ops.hpp"
#include "minimpi/runtime.hpp"
#include "modules/distmatrix/module2.hpp"
#include "run_forced.hpp"

namespace mpi = dipdc::minimpi;
namespace m2 = dipdc::modules::distmatrix;
namespace cs = dipdc::cachesim;
namespace io = dipdc::dataio;
using dipdc::testing::run_forced;

namespace {

std::vector<double> sequential_matrix(const io::Dataset& d) {
  const std::size_t n = d.size();
  std::vector<double> out(n * n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::size_t k = 0; k < d.dim(); ++k) {
        const double diff = d.point(i)[k] - d.point(j)[k];
        acc += diff * diff;
      }
      out[i * n + j] = std::sqrt(acc);
    }
  }
  return out;
}

}  // namespace

TEST(Kernels, RowwiseMatchesOracle) {
  const auto d = io::generate_uniform(64, 8, 0.0, 1.0, 3);
  const auto oracle = sequential_matrix(d);
  std::vector<double> out(64 * 64);
  cs::NullTracer t;
  m2::distance_rows_rowwise(d.values(), d.dim(), d.size(), 0, 64,
                            std::span<double>(out), t);
  for (std::size_t i = 0; i < out.size(); ++i) {
    ASSERT_DOUBLE_EQ(out[i], oracle[i]);
  }
}

TEST(Kernels, TiledMatchesRowwiseForEveryTileSize) {
  const auto d = io::generate_uniform(50, 7, -1.0, 1.0, 4);
  std::vector<double> rowwise(50 * 50), tiled(50 * 50);
  cs::NullTracer t;
  m2::distance_rows_rowwise(d.values(), d.dim(), d.size(), 0, 50,
                            std::span<double>(rowwise), t);
  for (const std::size_t tile : {1u, 3u, 7u, 16u, 50u, 64u}) {
    std::fill(tiled.begin(), tiled.end(), -1.0);
    m2::distance_rows_tiled(d.values(), d.dim(), d.size(), 0, 50, tile,
                            std::span<double>(tiled), t);
    for (std::size_t i = 0; i < tiled.size(); ++i) {
      ASSERT_DOUBLE_EQ(tiled[i], rowwise[i]) << "tile=" << tile;
    }
  }
}

TEST(Kernels, PartialRowBlocksCoverTheMatrix) {
  const auto d = io::generate_uniform(30, 4, 0.0, 1.0, 5);
  const auto oracle = sequential_matrix(d);
  cs::NullTracer t;
  std::vector<double> block(10 * 30);
  m2::distance_rows_rowwise(d.values(), d.dim(), d.size(), 10, 20,
                            std::span<double>(block), t);
  for (std::size_t i = 0; i < 10; ++i) {
    for (std::size_t j = 0; j < 30; ++j) {
      ASSERT_DOUBLE_EQ(block[i * 30 + j], oracle[(i + 10) * 30 + j]);
    }
  }
}

TEST(Kernels, StripsHoldWholeEightRowGroups) {
  // Each in-core strip is one distance_rows call, whose AVX-512 tier
  // blocks 8 rows: a strip of 4 rows (n > 8192) would never reach it.
  constexpr std::size_t kSizes[] = {1, 1000, 4096, 8192, 8193, 16384,
                                    1000000};
  for (const std::size_t n : kSizes) {
    const std::size_t rows = m2::rows_per_strip(n);
    EXPECT_GE(rows, 8u) << "n=" << n;
    EXPECT_EQ(rows % 8, 0u) << "n=" << n;
  }
  EXPECT_EQ(m2::rows_per_strip(4096), 8u);  // the benchmark's strips
}

TEST(CacheBehaviour, TilingReducesMeasuredMisses) {
  // The module's central observation, measured with the cache simulator:
  // for a dataset larger than the cache, the tiled kernel misses less.
  const std::size_t n = 512, dim = 16;  // 64 KiB dataset
  const auto d = io::generate_uniform(n, dim, 0.0, 1.0, 6);
  std::vector<double> out(64 * n);
  const cs::CacheConfig cache{16 * 1024, 64, 8};

  cs::CacheHierarchy h_row({cache});
  cs::CacheTracer t_row(&h_row);
  m2::distance_rows_rowwise(d.values(), dim, n, 0, 64,
                            std::span<double>(out), t_row);

  cs::CacheHierarchy h_tile({cache});
  cs::CacheTracer t_tile(&h_tile);
  m2::distance_rows_tiled(d.values(), dim, n, 0, 64, /*tile=*/64,
                          std::span<double>(out), t_tile);

  EXPECT_LT(h_tile.memory_traffic_bytes() * 2, h_row.memory_traffic_bytes());
  EXPECT_LT(h_tile.level(0).miss_rate(), h_row.level(0).miss_rate());
}

TEST(CacheBehaviour, OversizedTilesDegradeToRowwise) {
  const std::size_t n = 512, dim = 16;
  const auto d = io::generate_uniform(n, dim, 0.0, 1.0, 6);
  std::vector<double> out(32 * n);
  const cs::CacheConfig cache{16 * 1024, 64, 8};

  auto traffic_for_tile = [&](std::size_t tile) {
    cs::CacheHierarchy h({cache});
    cs::CacheTracer t(&h);
    m2::distance_rows_tiled(d.values(), dim, n, 0, 32, tile,
                            std::span<double>(out), t);
    return h.memory_traffic_bytes();
  };
  // A tile that fits (64 pts = 8 KiB) beats one that thrashes (512 pts =
  // 64 KiB > 16 KiB cache): the module's small-vs-large tile trade-off.
  EXPECT_LT(traffic_for_tile(64) * 2, traffic_for_tile(512));
}

TEST(TrafficModel, AnalyticEstimateTracksSimulator) {
  // The analytic DRAM-traffic model used by the machine model must agree
  // with the cache simulator within a factor of two across regimes.
  const std::size_t n = 512, dim = 16, rows = 64;
  const auto d = io::generate_uniform(n, dim, 0.0, 1.0, 7);
  std::vector<double> out(rows * n);
  const cs::CacheConfig cache{16 * 1024, 64, 8};

  cs::CacheHierarchy h_row({cache});
  cs::CacheTracer t_row(&h_row);
  m2::distance_rows_rowwise(d.values(), dim, n, 0, rows,
                            std::span<double>(out), t_row);
  const double est_row =
      m2::estimated_traffic_rowwise(rows, n, dim, cache.size_bytes);
  const auto measured_row = static_cast<double>(h_row.memory_traffic_bytes());
  EXPECT_GT(est_row, measured_row / 2.0);
  EXPECT_LT(est_row, measured_row * 2.0);

  cs::CacheHierarchy h_tile({cache});
  cs::CacheTracer t_tile(&h_tile);
  m2::distance_rows_tiled(d.values(), dim, n, 0, rows, 64,
                          std::span<double>(out), t_tile);
  const double est_tile =
      m2::estimated_traffic_tiled(rows, n, dim, 64, cache.size_bytes);
  const auto measured_tile =
      static_cast<double>(h_tile.memory_traffic_bytes());
  EXPECT_GT(est_tile, measured_tile / 2.0);
  EXPECT_LT(est_tile, measured_tile * 2.0);
}

TEST(TrafficModel, TiledNeverExceedsRowwise) {
  for (const std::size_t tile : {8u, 32u, 128u, 1024u, 4096u}) {
    EXPECT_LE(m2::estimated_traffic_tiled(100, 4096, 16, tile, 256 * 1024),
              m2::estimated_traffic_rowwise(100, 4096, 16, 256 * 1024) *
                  1.001);
  }
}

class DistributedSweep : public ::testing::TestWithParam<int> {};

TEST_P(DistributedSweep, ChecksumIndependentOfRankCountAndTiling) {
  const int p = GetParam();
  const auto d = io::generate_uniform(96, 12, 0.0, 1.0, 8);

  // Sequential oracle checksum.
  const auto oracle = sequential_matrix(d);
  double expect = 0.0;
  for (const double v : oracle) expect += v;

  for (const std::size_t tile : {0u, 16u}) {
    m2::Config cfg;
    cfg.tile = tile;
    mpi::run(p, [&](mpi::Comm& comm) {
      const auto result = m2::run_distributed(
          comm, comm.rank() == 0 ? d : io::Dataset{}, cfg);
      EXPECT_NEAR(result.checksum, expect, 1e-6 * expect);
      EXPECT_EQ(result.n, 96u);
    });
  }
}

INSTANTIATE_TEST_SUITE_P(WorldSizes, DistributedSweep,
                         ::testing::Values(1, 2, 3, 4, 7, 8));

TEST(Distributed, TiledIsFasterInSimulatedTime) {
  const auto d = io::generate_uniform(512, 16, 0.0, 1.0, 9);
  m2::Config rowwise;
  rowwise.cache = {16 * 1024, 64, 8};
  m2::Config tiled = rowwise;
  tiled.tile = 64;

  // A bandwidth-constrained node (many ranks sharing modest DRAM
  // bandwidth) is where locality pays: the row-wise kernel goes
  // memory-bound while the tiled one stays compute-bound.
  mpi::RuntimeOptions opts;
  opts.machine.node_mem_bandwidth = 10e9;

  auto sim_time = [&](const m2::Config& cfg) {
    return run_forced(4, opts, [&](mpi::Comm& comm) {
      return m2::run_distributed(comm, comm.rank() == 0 ? d : io::Dataset{},
                                 cfg)
          .sim_time;
    });
  };
  const double t_row = sim_time(rowwise);
  const double t_tile = sim_time(tiled);
  EXPECT_LT(t_tile, t_row);
}

TEST(Distributed, TracedRunReportsMissRate) {
  const auto d = io::generate_uniform(128, 8, 0.0, 1.0, 10);
  m2::Config cfg;
  cfg.trace_cache = true;
  cfg.cache = {8 * 1024, 64, 8};
  mpi::run(2, [&](mpi::Comm& comm) {
    const auto result = m2::run_distributed(
        comm, comm.rank() == 0 ? d : io::Dataset{}, cfg);
    EXPECT_GT(result.miss_rate, 0.0);
    EXPECT_GT(result.dram_bytes, 0.0);
  });
}

TEST(Distributed, ComputeBoundScalesWell) {
  // Strong scaling with a tiled (compute-bound) configuration: simulated
  // time at 8 ranks is at least 6x better than at 1 rank.
  const auto d = io::generate_uniform(512, 16, 0.0, 1.0, 11);
  m2::Config cfg;
  cfg.tile = 64;
  auto time_at = [&](int p) {
    return run_forced(p, {}, [&](mpi::Comm& comm) {
      return m2::run_distributed(comm, comm.rank() == 0 ? d : io::Dataset{},
                                 cfg)
          .sim_time;
    });
  };
  const double t1 = time_at(1);
  const double t8 = time_at(8);
  EXPECT_GT(t1 / t8, 6.0);
}

// ---- Extension: symmetric triangle + cyclic rows (outcome 15) -------------

TEST(Symmetric, ChecksumMatchesFullComputation) {
  const auto d = io::generate_uniform(96, 12, 0.0, 1.0, 8);
  m2::Config full;
  const double expect = run_forced(4, {}, [&](mpi::Comm& comm) {
    return m2::run_distributed(comm, comm.rank() == 0 ? d : io::Dataset{},
                               full)
        .checksum;
  });
  for (const bool symmetric : {true}) {
    for (const auto dist :
         {m2::RowDistribution::kBlock, m2::RowDistribution::kCyclic}) {
      for (const int p : {1, 3, 4, 8}) {
        m2::Config cfg;
        cfg.symmetric = symmetric;
        cfg.distribution = dist;
        mpi::run(p, [&](mpi::Comm& comm) {
          const auto r = m2::run_distributed(
              comm, comm.rank() == 0 ? d : io::Dataset{}, cfg);
          EXPECT_NEAR(r.checksum, expect, 1e-6 * expect);
        });
      }
    }
  }
}

TEST(Symmetric, StripFoldIsBitIdenticalToAWholeBlockFold) {
  // The extension path computes and folds each rank's rows strip by strip
  // (m2::rows_per_strip).  The reference builds a rank's rows in one block
  // with the list kernel and folds them row by row, j from the diagonal,
  // off-diagonal entries doubled, then reduces the partial sums the way
  // the driver does.  n is chosen so every rank spans several strips,
  // the last one partial.
  constexpr int p = 3;
  std::size_t n = p;
  while (n / p <= 2 * m2::rows_per_strip(n) ||
         (n / p) % m2::rows_per_strip(n) == 0) {
    ++n;
  }
  const auto d = io::generate_uniform(n, 12, 0.0, 1.0, 16);
  for (const auto dist :
       {m2::RowDistribution::kBlock, m2::RowDistribution::kCyclic}) {
    for (const std::size_t tile : {std::size_t{0}, std::size_t{16}}) {
      m2::Config cfg;
      cfg.symmetric = true;
      cfg.distribution = dist;
      cfg.tile = tile;
      double got = 0.0;
      double expect = 0.0;
      mpi::run(p, [&](mpi::Comm& comm) {
        const auto r = m2::run_distributed(
            comm, comm.rank() == 0 ? d : io::Dataset{}, cfg);
        const auto rank = static_cast<std::size_t>(comm.rank());
        std::vector<std::size_t> rows;
        if (dist == m2::RowDistribution::kCyclic) {
          for (std::size_t i = rank; i < n; i += p) rows.push_back(i);
        } else {
          const auto [rb, re] = io::block_partition(n, p)[rank];
          for (std::size_t i = rb; i < re; ++i) rows.push_back(i);
        }
        std::vector<double> block(rows.size() * n);
        cs::NullTracer t;
        m2::distance_rows_list(d.values(), d.dim(), n,
                               std::span<const std::size_t>(rows),
                               /*symmetric=*/true, tile,
                               std::span<double>(block), t);
        double local = 0.0;
        for (std::size_t rr = 0; rr < rows.size(); ++rr) {
          const std::size_t i = rows[rr];
          for (std::size_t j = i; j < n; ++j) {
            const double v = block[rr * n + j];
            local += j > i ? 2.0 * v : v;
          }
        }
        double sum = 0.0;
        comm.reduce(std::span<const double>(&local, 1),
                    std::span<double>(&sum, 1), mpi::ops::Sum{}, 0);
        if (comm.rank() == 0) {
          got = r.checksum;
          expect = sum;
        }
      });
      EXPECT_EQ(got, expect) << "n " << n << " tile " << tile
                             << (dist == m2::RowDistribution::kCyclic
                                     ? " cyclic"
                                     : " block");
    }
  }
}

TEST(Symmetric, CyclicFullChecksumAlsoMatches) {
  const auto d = io::generate_uniform(64, 8, 0.0, 1.0, 12);
  m2::Config full, cyclic_full;
  cyclic_full.distribution = m2::RowDistribution::kCyclic;
  const auto [a, b] = run_forced(4, {}, [&](mpi::Comm& comm) {
    const double block_sum =
        m2::run_distributed(comm, comm.rank() == 0 ? d : io::Dataset{}, full)
            .checksum;
    const double cyclic_sum =
        m2::run_distributed(comm, comm.rank() == 0 ? d : io::Dataset{},
                            cyclic_full)
            .checksum;
    return std::make_pair(block_sum, cyclic_sum);
  });
  EXPECT_NEAR(a, b, 1e-9 * a);
}

TEST(Symmetric, BlockRowsAreImbalancedCyclicRowsAreNot) {
  const auto d = io::generate_uniform(512, 8, 0.0, 1.0, 13);
  m2::Config block, cyclic;
  block.symmetric = cyclic.symmetric = true;
  block.distribution = m2::RowDistribution::kBlock;
  cyclic.distribution = m2::RowDistribution::kCyclic;
  const auto [imb_block, imb_cyclic] = run_forced(8, {}, [&](mpi::Comm& comm) {
    const double b = m2::run_distributed(
                         comm, comm.rank() == 0 ? d : io::Dataset{}, block)
                         .compute_imbalance;
    const double c = m2::run_distributed(
                         comm, comm.rank() == 0 ? d : io::Dataset{}, cyclic)
                         .compute_imbalance;
    return std::make_pair(b, c);
  });
  // Rank 0's block holds the longest triangle rows: it does ~(2 - 1/p)x the
  // average work.  Cyclic interleaving is near-perfect.
  EXPECT_GT(imb_block, 1.5);
  EXPECT_LT(imb_cyclic, 1.05);
}

TEST(Symmetric, CyclicTriangleBeatsFullMatrixInSimulatedTime) {
  const auto d = io::generate_uniform(512, 16, 0.0, 1.0, 14);
  m2::Config full, tri;
  tri.symmetric = true;
  tri.distribution = m2::RowDistribution::kCyclic;
  const auto [t_full, t_tri] = run_forced(8, {}, [&](mpi::Comm& comm) {
    const double f = m2::run_distributed(
                         comm, comm.rank() == 0 ? d : io::Dataset{}, full)
                         .sim_time;
    const double t = m2::run_distributed(
                         comm, comm.rank() == 0 ? d : io::Dataset{}, tri)
                         .sim_time;
    return std::make_pair(f, t);
  });
  // Half the arithmetic, balanced: clearly faster (compute dominates here).
  EXPECT_LT(t_tri, t_full * 0.75);
}

TEST(Symmetric, ListKernelAgreesWithBlockKernel) {
  const auto d = io::generate_uniform(40, 6, 0.0, 1.0, 15);
  std::vector<double> expect(40 * 40);
  cs::NullTracer t;
  m2::distance_rows_rowwise(d.values(), 6, 40, 0, 40,
                            std::span<double>(expect), t);
  std::vector<std::size_t> rows;
  for (std::size_t i = 0; i < 40; i += 3) rows.push_back(i);
  std::vector<double> got(rows.size() * 40, -1.0);
  m2::distance_rows_list(d.values(), 6, 40,
                         std::span<const std::size_t>(rows),
                         /*symmetric=*/false, /*tile=*/8,
                         std::span<double>(got), t);
  for (std::size_t r = 0; r < rows.size(); ++r) {
    for (std::size_t j = 0; j < 40; ++j) {
      ASSERT_DOUBLE_EQ(got[r * 40 + j], expect[rows[r] * 40 + j]);
    }
  }
}
