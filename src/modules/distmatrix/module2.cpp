#include "modules/distmatrix/module2.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "dataio/chunk.hpp"
#include "kernels/distance.hpp"
#include "minimpi/ops.hpp"
#include "modules/stream_sweep.hpp"
#include "support/error.hpp"
#include "support/page_allocator.hpp"

namespace dipdc::modules::distmatrix {

namespace mpi = minimpi;

double pair_flops(double pairs, std::size_t dim) {
  return pairs * (3.0 * static_cast<double>(dim) + 1.0);
}

double block_flops(std::size_t rows, std::size_t n, std::size_t dim) {
  return pair_flops(static_cast<double>(rows) * static_cast<double>(n), dim);
}

namespace {

/// An LRU cache effectively retains slightly less than its capacity of a
/// mixed working set (the output stores and loop state evict a few lines).
constexpr double kEffectiveCapacity = 0.9;

double point_bytes(std::size_t dim) {
  return static_cast<double>(dim) * sizeof(double);
}

}  // namespace

double estimated_traffic_rowwise(std::size_t rows, std::size_t n,
                                 std::size_t dim, std::size_t cache_bytes) {
  const double dataset = static_cast<double>(n) * point_bytes(dim);
  const double effective =
      kEffectiveCapacity * static_cast<double>(cache_bytes);
  if (dataset <= effective) {
    // Everything stays resident after the first pass.
    return dataset + static_cast<double>(rows) * point_bytes(dim);
  }
  // Each of the `rows` passes streams the full dataset from DRAM.
  return static_cast<double>(rows) * dataset;
}

double estimated_traffic_tiled(std::size_t rows, std::size_t n,
                               std::size_t dim, std::size_t tile,
                               std::size_t cache_bytes) {
  DIPDC_REQUIRE(tile > 0, "tile size must be positive");
  const double effective =
      kEffectiveCapacity * static_cast<double>(cache_bytes);
  const double tile_bytes = static_cast<double>(tile) * point_bytes(dim);
  const double rows_bytes = static_cast<double>(rows) * point_bytes(dim);
  if (tile_bytes > effective) {
    // The tile itself thrashes: no reuse, row-wise behaviour.
    return estimated_traffic_rowwise(rows, n, dim, cache_bytes);
  }
  if (tile_bytes + rows_bytes <= effective) {
    // Both the tile and the whole row block stay resident: every point
    // loads from DRAM exactly once.
    return static_cast<double>(n) * point_bytes(dim) + rows_bytes;
  }
  // Per tile pass: the tile loads once and stays resident while all `rows`
  // row points stream through the remaining capacity.
  const double ntiles =
      std::ceil(static_cast<double>(n) / static_cast<double>(tile));
  return ntiles * (tile_bytes + rows_bytes);
}

namespace {

/// Combine — the module's MPI_Reduce step, shared by every driver: the
/// checksum (Sum) and this rank's span since `t0` (Max) are reduced to the
/// root, then, when the driver counts them, this rank's distance pairs
/// (Max, then Sum, for the compute imbalance); every result is broadcast
/// back in the same order.
void combine(mpi::Comm& comm, double local_checksum, double t0,
             std::optional<double> pairs, Result& result) {
  comm.phase_begin("combine");
  const auto reduce = [&](double value, auto op) {
    double out = 0.0;
    comm.reduce(std::span<const double>(&value, 1),
                std::span<double>(&out, 1), op, 0);
    return out;
  };
  const double checksum = reduce(local_checksum, mpi::ops::Sum{});
  const double slowest = reduce(comm.wtime() - t0, mpi::ops::Max{});
  double max_pairs = 0.0;
  double sum_pairs = 0.0;
  if (pairs) {
    max_pairs = reduce(*pairs, mpi::ops::Max{});
    sum_pairs = reduce(*pairs, mpi::ops::Sum{});
  }
  result.checksum = comm.bcast_value(checksum, 0);
  result.sim_time = comm.bcast_value(slowest, 0);
  if (pairs) {
    max_pairs = comm.bcast_value(max_pairs, 0);
    sum_pairs = comm.bcast_value(sum_pairs, 0);
    const double mean_pairs = sum_pairs / static_cast<double>(comm.size());
    result.compute_imbalance =
        mean_pairs > 0.0 ? max_pairs / mean_pairs : 1.0;
  }
  comm.phase_end();
}

}  // namespace

Result run_distributed(mpi::Comm& comm, const dataio::Dataset& dataset,
                       const Config& config) {
  const int p = comm.size();
  const int r = comm.rank();

  // Geometry travels from the root so only rank 0 needs the real dataset.
  std::size_t shape[2] = {dataset.size(), dataset.dim()};
  comm.bcast(std::span<std::size_t>(shape, 2), 0);
  const std::size_t n = shape[0];
  const std::size_t dim = shape[1];
  DIPDC_REQUIRE(n > 0 && dim > 0, "dataset must be non-empty");

  Result result;
  result.n = n;
  result.dim = dim;

  // Every rank needs all points as distance partners.  Both copies the
  // in-core path allocates on every rank (this one and the scattered row
  // block) are page-mapped: the ranks allocate and free them at the same
  // time, and in the shared heap their free order would decide the
  // process's peak (support/page_allocator.hpp).
  const auto bcast_dataset = [&] {
    std::vector<double, support::PageAllocator<double>> all(n * dim);
    if (r == 0) {
      std::copy(dataset.values().begin(), dataset.values().end(),
                all.begin());
    }
    comm.bcast(std::span<double>(all), 0);
    return all;
  };

  // The extension path (symmetric triangle and/or cyclic rows) shares the
  // broadcast but assigns rows by index list and skips the block scatter.
  if (config.symmetric || config.distribution == RowDistribution::kCyclic) {
    const double t0x = comm.wtime();
    const auto all = bcast_dataset();
    const double t_commx = comm.wtime();

    std::vector<std::size_t> my_rows;
    if (config.distribution == RowDistribution::kCyclic) {
      for (std::size_t i = static_cast<std::size_t>(r); i < n;
           i += static_cast<std::size_t>(p)) {
        my_rows.push_back(i);
      }
    } else {
      const auto parts =
          dataio::block_partition(n, static_cast<std::size_t>(p));
      for (std::size_t i = parts[static_cast<std::size_t>(r)].first;
           i < parts[static_cast<std::size_t>(r)].second; ++i) {
        my_rows.push_back(i);
      }
    }

    // Strip by strip of my_rows, the same j-tile traversal as the traced
    // distance_rows_list template, but each row sweep runs through the
    // dispatched SIMD/scalar kernel.  The checksum covers the *full*
    // matrix: off-diagonal triangle entries count twice, so every
    // configuration reports the same value.  It continues row by row as
    // each strip lands, so the add chain is the whole block's.
    const kernels::Isa isa = kernels::resolve(config.kernel);
    const std::size_t step = config.tile == 0 ? n : config.tile;
    const std::size_t strip_rows = rows_per_strip(n);
    std::vector<double> strip(std::min(my_rows.size(), strip_rows) * n);
    double local_checksum = 0.0;
    for (std::size_t s = 0; s < my_rows.size(); s += strip_rows) {
      const auto rows = std::span<const std::size_t>(my_rows).subspan(
          s, std::min(strip_rows, my_rows.size() - s));
      for (std::size_t jt = 0; jt < n; jt += step) {
        const std::size_t jt_end = std::min(n, jt + step);
        for (std::size_t rr = 0; rr < rows.size(); ++rr) {
          const std::size_t i = rows[rr];
          const std::size_t j_begin =
              config.symmetric ? std::max(jt, i) : jt;
          kernels::distance_row(isa, all.data() + i * dim, all.data(), dim,
                                j_begin, jt_end, strip.data() + rr * n);
        }
      }
      for (std::size_t rr = 0; rr < rows.size(); ++rr) {
        const std::size_t i = rows[rr];
        const std::size_t j0 = config.symmetric ? i : 0;
        for (std::size_t j = j0; j < n; ++j) {
          const double v = strip[rr * n + j];
          local_checksum += (config.symmetric && j > i) ? 2.0 * v : v;
        }
      }
    }

    // Cost: pairs actually computed, with the locality estimate scaled by
    // the fraction of the full row sweep each row performs.
    double pairs = 0.0;
    for (const std::size_t i : my_rows) {
      pairs += static_cast<double>(config.symmetric ? n - i : n);
    }
    const double full_pairs =
        static_cast<double>(my_rows.size()) * static_cast<double>(n);
    const double full_traffic =
        config.tile == 0
            ? estimated_traffic_rowwise(my_rows.size(), n, dim,
                                        config.cache.size_bytes)
            : estimated_traffic_tiled(my_rows.size(), n, dim, config.tile,
                                      config.cache.size_bytes);
    result.dram_bytes =
        full_pairs > 0.0 ? full_traffic * pairs / full_pairs : 0.0;
    comm.sim_compute(pair_flops(pairs, dim), result.dram_bytes);

    combine(comm, local_checksum, t0x, pairs, result);
    result.comm_time = t_commx - t0x;
    result.compute_time = (comm.wtime() - t0x) - result.comm_time;
    return result;
  }

  const auto parts = dataio::block_partition(n, static_cast<std::size_t>(p));
  const auto [row_begin, row_end] = parts[static_cast<std::size_t>(r)];
  const std::size_t my_rows = row_end - row_begin;

  const double t0 = comm.wtime();

  // Scatter the row blocks (the module's MPI_Scatter step, generalized to
  // Scatterv for non-divisible n), then broadcast the whole dataset since
  // every rank needs all points as distance partners.
  comm.phase_begin("scatter");
  std::vector<std::size_t> counts(static_cast<std::size_t>(p));
  std::vector<std::size_t> displs(static_cast<std::size_t>(p));
  for (int i = 0; i < p; ++i) {
    counts[static_cast<std::size_t>(i)] =
        (parts[static_cast<std::size_t>(i)].second -
         parts[static_cast<std::size_t>(i)].first) *
        dim;
    displs[static_cast<std::size_t>(i)] =
        parts[static_cast<std::size_t>(i)].first * dim;
  }
  std::vector<double, support::PageAllocator<double>> my_block(my_rows * dim);
  comm.scatterv(dataset.values(), std::span<const std::size_t>(counts),
                std::span<const std::size_t>(displs),
                std::span<double>(my_block), 0);

  const auto all = bcast_dataset();
  comm.phase_end();

  const double t_comm_in = comm.wtime();

  // Local computation.  The kernel runs natively (and through the cache
  // simulator when tracing); its simulated cost is charged to the machine
  // model with the locality-aware traffic estimate.
  comm.phase_begin("compute");
  double local_checksum = 0.0;
  if (config.trace_cache) {
    // The tracer records the output stores' addresses, so this path keeps
    // the rank's whole block.
    std::vector<double> block(my_rows * n);
    cachesim::CacheHierarchy hierarchy({config.cache});
    cachesim::CacheTracer tracer(&hierarchy);
    if (config.tile == 0) {
      distance_rows_rowwise(std::span<const double>(all), dim, n, row_begin,
                            row_end, std::span<double>(block), tracer);
    } else {
      distance_rows_tiled(std::span<const double>(all), dim, n, row_begin,
                          row_end, config.tile, std::span<double>(block),
                          tracer);
    }
    result.dram_bytes = static_cast<double>(hierarchy.memory_traffic_bytes());
    result.miss_rate = hierarchy.level(0).miss_rate();
    local_checksum = std::accumulate(block.begin(), block.end(), 0.0);
  } else {
    // Untraced fast path: the register-blocked dispatched kernel
    // (bit-identical to the traced loops above by the canonical
    // accumulation contract), strip by strip into one reused buffer.  The
    // checksum continues over each strip in row-major order, so its add
    // chain is the one the whole block would have had.
    const kernels::Isa isa = kernels::resolve(config.kernel);
    const std::size_t strip_rows = rows_per_strip(n);
    std::vector<double> strip(std::min(my_rows, strip_rows) * n);
    for (std::size_t i = row_begin; i < row_end; i += strip_rows) {
      const std::size_t i_end = std::min(row_end, i + strip_rows);
      kernels::distance_rows(isa, all.data(), dim, n, i, i_end, config.tile,
                             strip.data());
      local_checksum = std::accumulate(
          strip.data(), strip.data() + (i_end - i) * n, local_checksum);
    }
    result.dram_bytes =
        config.tile == 0
            ? estimated_traffic_rowwise(my_rows, n, dim,
                                        config.cache.size_bytes)
            : estimated_traffic_tiled(my_rows, n, dim, config.tile,
                                      config.cache.size_bytes);
  }
  comm.sim_compute(block_flops(my_rows, n, dim), result.dram_bytes);
  comm.phase_end();

  const double t_compute = comm.wtime();

  // Combine: checksum (correctness) and the slowest rank's span.
  combine(comm, local_checksum, t0, std::nullopt, result);
  result.comm_time = t_comm_in - t0;
  result.compute_time = t_compute - t_comm_in;
  return result;
}

// Out of core: the dataset streams from disk through the nonblocking-
// broadcast rotation instead of being held resident everywhere.  Two
// sweeps over the chunk file:
//
//   1. distribute — rank 0 reads each chunk and Scatterv's the slices to
//      the owning ranks (the streamed stand-in for the in-core Scatterv;
//      every byte travels once, unlike a broadcast, so this sweep costs
//      1/p of the compute sweep's traffic);
//   2. compute — each chunk is a tile of partner points: every local row
//      computes its distances against the resident chunk, filling the
//      column stripe of the output block.
//
// Each pair (i, j) goes through the same dispatched kernel as the in-core
// path, and the checksum sums the output block in the same row-major
// order as the in-core strip fold, so the result is bit-identical to
// run_distributed — the determinism tests pin exactly that.  Unlike the
// in-core path, this one keeps the rank's whole my_rows x n block: chunks
// fill it column stripe by column stripe, so no row is complete before
// the last chunk.
Result run_streamed(mpi::Comm& comm, const std::string& chunk_path,
                    const Config& config, const StreamConfig& stream) {
  DIPDC_REQUIRE(!config.symmetric &&
                    config.distribution == RowDistribution::kBlock &&
                    !config.trace_cache,
                "run_streamed supports the base configuration: block rows, "
                "full matrix, no cache tracing");
  const int p = comm.size();
  const int r = comm.rank();

  std::unique_ptr<dataio::ChunkReader> reader;
  if (r == 0) reader = std::make_unique<dataio::ChunkReader>(chunk_path);
  const dataio::ChunkFileInfo geo =
      streaming::bcast_geometry(comm, reader.get());
  const std::size_t dim = geo.dim;
  const std::size_t n = geo.total_rows;
  DIPDC_REQUIRE(n > 0 && dim > 0, "dataset must be non-empty");

  Result result;
  result.n = n;
  result.dim = dim;

  const auto parts = dataio::block_partition(n, static_cast<std::size_t>(p));
  const auto [row_begin, row_end] = parts[static_cast<std::size_t>(r)];
  const std::size_t my_rows = row_end - row_begin;

  const double t0 = comm.wtime();

  // Sweep 1 — distribute: rank 0 reads each chunk and scatters its row
  // slices straight to the owners.  The root's read-ahead (overlap mode)
  // hides chunk k+1's disk time behind chunk k's Scatterv.
  std::vector<double> my_points(my_rows * dim);
  std::vector<double> chunk;
  std::vector<std::size_t> counts(static_cast<std::size_t>(p));
  std::vector<std::size_t> displs(static_cast<std::size_t>(p));
  std::size_t filled = 0;  // doubles of my_points received so far
  for (std::size_t k = 0; k < geo.num_chunks(); ++k) {
    if (r == 0) streaming::read_chunk(comm, *reader, k, stream.overlap, chunk);
    const std::size_t cb = k * geo.chunk_rows;            // first row
    const std::size_t ce = cb + geo.rows_in_chunk(k);     // past-last row
    for (std::size_t m = 0; m < static_cast<std::size_t>(p); ++m) {
      const std::size_t lo = std::max(cb, parts[m].first);
      const std::size_t hi = std::min(ce, parts[m].second);
      counts[m] = lo < hi ? (hi - lo) * dim : 0;
      displs[m] = lo < hi ? (lo - cb) * dim : 0;
    }
    comm.phase_begin("stream_comm");
    comm.scatterv(std::span<const double>(chunk),
                  std::span<const std::size_t>(counts),
                  std::span<const std::size_t>(displs),
                  std::span<double>(my_points.data() + filled,
                                    counts[static_cast<std::size_t>(r)]),
                  0);
    comm.phase_end();
    filled += counts[static_cast<std::size_t>(r)];
  }
  DIPDC_REQUIRE(filled == my_rows * dim, "distribution sweep lost rows");
  const double t_distributed = comm.wtime();

  // Sweep 2 — compute: each chunk is a resident tile of partner points.
  if (r == 0) reader->reset();
  std::vector<double> block(my_rows * n);
  const kernels::Isa isa = kernels::resolve(config.kernel);
  double compute_sim = 0.0;
  streaming::chunk_sweep(
      comm, reader.get(), geo, stream.overlap,
      [&](std::size_t k, std::span<const double> values) {
        const std::size_t cb = k * geo.chunk_rows;
        const std::size_t rows_k = values.size() / dim;
        const double t_in = comm.wtime();
        for (std::size_t rr = 0; rr < my_rows; ++rr) {
          kernels::distance_row(isa, my_points.data() + rr * dim,
                                values.data(), dim, 0, rows_k,
                                block.data() + rr * n + cb);
        }
        // Charge the machine model chunk by chunk: the flops are exact;
        // the DRAM traffic is the tiled estimate's share for this tile
        // (streaming over chunks *is* j-tiling with tile = chunk_rows).
        const double share =
            static_cast<double>(rows_k) / static_cast<double>(n);
        comm.sim_compute(
            block_flops(my_rows, rows_k, dim),
            share * estimated_traffic_tiled(my_rows, n, dim, geo.chunk_rows,
                                            config.cache.size_bytes));
        compute_sim += comm.wtime() - t_in;
      });
  result.dram_bytes = estimated_traffic_tiled(my_rows, n, dim,
                                              geo.chunk_rows,
                                              config.cache.size_bytes);

  // Combine — the in-core path's, over the block in row-major order.
  combine(comm, std::accumulate(block.begin(), block.end(), 0.0), t0,
          std::nullopt, result);

  // The distribute sweep is all communication; the compute sweep splits
  // into kernel time (measured around the consume) and the transfers.
  result.compute_time = compute_sim;
  result.comm_time = (t_distributed - t0) +
                     ((comm.wtime() - t_distributed) - compute_sim);
  return result;
}

}  // namespace dipdc::modules::distmatrix
