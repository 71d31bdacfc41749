// Module 2 — Distance Matrix (paper §III-C).
//
// Students compute the N x N Euclidean distance matrix over
// high-dimensional (the module uses 90-D) points with MPI_Scatter /
// MPI_Reduce, first with a row-wise access pattern and then tiled, compare
// the two, and measure cache misses with a performance tool.  Here:
//
//  * the kernels are templated on a cachesim tracer, so the identical loop
//    nest runs natively or through the cache simulator (the "performance
//    tool" substitute);
//  * an analytic DRAM-traffic model predicts the kernels' memory behaviour
//    from the cache capacity alone; tests validate it against the
//    simulator, and the distributed driver feeds it to the machine model so
//    scaling experiments reflect the locality difference;
//  * the distributed driver follows the module's structure: the root owns
//    the dataset, row blocks are scattered (Scatterv), the full dataset is
//    broadcast (every rank needs all points as distance partners), each
//    rank fills its block of rows, and a Reduce combines the checksum and
//    the slowest rank's time.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <span>

#include "cachesim/cache.hpp"
#include "dataio/dataset.hpp"
#include "kernels/detail/canonical.hpp"
#include "kernels/dispatch.hpp"
#include "minimpi/comm.hpp"

namespace dipdc::modules::distmatrix {

// The templated loop nests below are the *traced/reference* kernels: the
// identical traversal runs natively (NullTracer) or through the cache
// simulator.  The untraced production path dispatches to the
// register-blocked SIMD kernels in src/kernels instead; both compute
// every ‖a−b‖² in the canonical lane-blocked accumulation order
// (kernels/detail/canonical.hpp), so traced runs, scalar runs and SIMD
// runs all produce bit-identical distances and checksums.

/// Row-wise kernel: for each local row i, stream every point j.
/// `all` is the full n x dim dataset; rows [row_begin, row_end) are
/// computed into `out` (size (row_end-row_begin) x n).
template <typename Tracer>
void distance_rows_rowwise(std::span<const double> all, std::size_t dim,
                           std::size_t n, std::size_t row_begin,
                           std::size_t row_end, std::span<double> out,
                           Tracer& tracer) {
  const std::size_t rows = row_end - row_begin;
  for (std::size_t i = 0; i < rows; ++i) {
    const double* a = all.data() + (row_begin + i) * dim;
    if constexpr (Tracer::kEnabled) {
      tracer.touch(a, dim * sizeof(double));
    }
    for (std::size_t j = 0; j < n; ++j) {
      const double* b = all.data() + j * dim;
      if constexpr (Tracer::kEnabled) {
        tracer.touch(b, dim * sizeof(double));
      }
      out[i * n + j] =
          std::sqrt(kernels::detail::squared_distance_ref(a, b, dim));
    }
  }
}

/// Tiled kernel: points j are processed in tiles of `tile` points; a tile
/// stays cache-resident while every local row visits it.
template <typename Tracer>
void distance_rows_tiled(std::span<const double> all, std::size_t dim,
                         std::size_t n, std::size_t row_begin,
                         std::size_t row_end, std::size_t tile,
                         std::span<double> out, Tracer& tracer) {
  const std::size_t rows = row_end - row_begin;
  for (std::size_t jt = 0; jt < n; jt += tile) {
    const std::size_t jt_end = std::min(n, jt + tile);
    for (std::size_t i = 0; i < rows; ++i) {
      const double* a = all.data() + (row_begin + i) * dim;
      if constexpr (Tracer::kEnabled) {
        tracer.touch(a, dim * sizeof(double));
      }
      for (std::size_t j = jt; j < jt_end; ++j) {
        const double* b = all.data() + j * dim;
        if constexpr (Tracer::kEnabled) {
          tracer.touch(b, dim * sizeof(double));
        }
        out[i * n + j] =
            std::sqrt(kernels::detail::squared_distance_ref(a, b, dim));
      }
    }
  }
}

/// Floating-point work of `pairs` distances: 3 flops per dimension
/// (subtract, multiply, accumulate) plus the square root.
[[nodiscard]] double pair_flops(double pairs, std::size_t dim);

/// Floating-point work of a `rows x n` block: pair_flops(rows * n, dim).
[[nodiscard]] double block_flops(std::size_t rows, std::size_t n,
                                 std::size_t dim);

/// Rows per output strip of the untraced in-core paths.  They compute a
/// rank's rows a strip at a time into one reused buffer of about 256 KiB
/// (L2-sized) and continue the checksum over each strip as it lands,
/// instead of building the rank's whole rows x n block.  A multiple of 8
/// (the AVX-512 micro-kernel's row group), and at least 8.
[[nodiscard]] constexpr std::size_t rows_per_strip(std::size_t n) {
  constexpr std::size_t kStripBytes = 256 * 1024;
  const std::size_t rows =
      kStripBytes / (std::max<std::size_t>(n, 1) * sizeof(double)) / 8 * 8;
  return std::max<std::size_t>(rows, 8);
}

/// Analytic DRAM traffic (bytes) of the row-wise kernel: when the dataset
/// exceeds the cache, every row pass streams all n partner points again.
[[nodiscard]] double estimated_traffic_rowwise(std::size_t rows,
                                               std::size_t n, std::size_t dim,
                                               std::size_t cache_bytes);

/// Analytic DRAM traffic (bytes) of the tiled kernel: a cache-resident tile
/// is loaded once per tile pass while the rows stream; oversized tiles
/// degenerate to the row-wise behaviour.
[[nodiscard]] double estimated_traffic_tiled(std::size_t rows, std::size_t n,
                                             std::size_t dim,
                                             std::size_t tile,
                                             std::size_t cache_bytes);

/// How matrix rows are assigned to ranks.
enum class RowDistribution {
  kBlock,   // contiguous row blocks (the module's prescription)
  kCyclic,  // row i -> rank i % p (the fix for the symmetric imbalance)
};

struct Config {
  /// 0 = row-wise; otherwise the j-tile size in points.
  std::size_t tile = 0;
  /// Extension (learning outcome 15, "improve beyond the module"):
  /// exploit d(i,j) = d(j,i) and compute only the upper triangle — half
  /// the arithmetic.  With block rows this is badly imbalanced (early
  /// rows own long triangle rows); cyclic distribution restores balance.
  bool symmetric = false;
  RowDistribution distribution = RowDistribution::kBlock;
  /// Run the kernel through the cache simulator and report measured miss
  /// rates / traffic instead of the analytic estimate (slower).
  bool trace_cache = false;
  /// Geometry used for both the tracer and the analytic estimate.
  cachesim::CacheConfig cache{256 * 1024, 64, 8};
  /// Compute-kernel ISA for the untraced fast path (`--kernel=` /
  /// DIPDC_KERNEL); scalar and simd are bit-identical by contract.
  kernels::Policy kernel = kernels::Policy::kAuto;
};

struct Result {
  std::size_t n = 0;
  std::size_t dim = 0;
  /// Slowest rank's simulated total time (the experiment's figure of
  /// merit), plus the root's phase breakdown.
  double sim_time = 0.0;
  double compute_time = 0.0;
  double comm_time = 0.0;
  /// Sum of all n^2 distances: identical across configurations, used as
  /// the cross-configuration correctness check.
  double checksum = 0.0;
  /// DRAM bytes per rank (measured when trace_cache, else estimated).
  double dram_bytes = 0.0;
  /// Measured miss rate (only when trace_cache).
  double miss_rate = 0.0;
  /// max/mean of per-rank distance-pair counts (1.0 = perfectly balanced).
  double compute_imbalance = 1.0;
};

/// Generalized kernel over an arbitrary list of rows; when `symmetric`,
/// only j >= i is computed for each listed row i (the upper triangle).
/// `out` holds rows.size() x n entries; untouched cells are left as-is.
template <typename Tracer>
void distance_rows_list(std::span<const double> all, std::size_t dim,
                        std::size_t n, std::span<const std::size_t> rows,
                        bool symmetric, std::size_t tile,
                        std::span<double> out, Tracer& tracer) {
  const std::size_t step = tile == 0 ? n : tile;
  for (std::size_t jt = 0; jt < n; jt += step) {
    const std::size_t jt_end = std::min(n, jt + step);
    for (std::size_t r = 0; r < rows.size(); ++r) {
      const std::size_t i = rows[r];
      const double* a = all.data() + i * dim;
      if constexpr (Tracer::kEnabled) {
        tracer.touch(a, dim * sizeof(double));
      }
      const std::size_t j_begin = symmetric ? std::max(jt, i) : jt;
      for (std::size_t j = j_begin; j < jt_end; ++j) {
        const double* b = all.data() + j * dim;
        if constexpr (Tracer::kEnabled) {
          tracer.touch(b, dim * sizeof(double));
        }
        out[r * n + j] =
            std::sqrt(kernels::detail::squared_distance_ref(a, b, dim));
      }
    }
  }
}

/// Distributed distance matrix: the dataset lives on rank 0.
/// Every rank must call this with the same config.
Result run_distributed(minimpi::Comm& comm, const dataio::Dataset& dataset,
                       const Config& config);

/// Knobs of the out-of-core pipeline (run_streamed).
struct StreamConfig {
  /// Overlap the next chunk's broadcast (and the root's disk read-ahead)
  /// with the current chunk's compute.  Off = issue-and-wait per chunk:
  /// same data through the same collectives, nothing hidden — the
  /// baseline the benches compare against.
  bool overlap = true;
};

/// Out-of-core distance matrix: the dataset lives in a chunk file
/// (dataio/chunk.hpp) that only rank 0 opens, and no rank ever holds more
/// input points than its own row block plus two chunks of partner points.
/// Each rank does hold its whole my_rows x n output stripe: the chunks
/// fill it a column stripe at a time, and the row-major checksum needs
/// complete rows.  Two sweeps over the file: a streamed Scatterv hands
/// each rank its block rows, then the chunks stream past every rank as
/// distance partners through the read / communicate / compute rotation in
/// modules/stream_sweep.hpp.  Results — checksum included — are
/// bit-identical to run_distributed on the same data, on every backend.
/// Supports the module's base configuration (block rows, full matrix,
/// untraced); every rank must pass the same config.
Result run_streamed(minimpi::Comm& comm, const std::string& chunk_path,
                    const Config& config, const StreamConfig& stream = {});

}  // namespace dipdc::modules::distmatrix
