// Module 3 — Distribution Sort (paper §III-D).
//
// A distributed bucket sort: every rank starts with local unsorted data
// (already distributed, as the module prescribes), buckets are assigned one
// per rank, a communication phase scatters each rank's data to the bucket
// owners, and every rank sorts its bucket locally.  The data stays
// distributed afterwards (large datasets exceed one node's memory).
//
// The three activities map to configurations:
//   1. uniform input, equal-width buckets            -> balanced
//   2. exponential input, equal-width buckets        -> heavy imbalance
//   3. exponential input, histogram-based splitters  -> balance restored
//
// The drivers below differ only in how keys reach their bucket owner
// (Alltoallv in core, a chunk-stream filter out of core); the local sort,
// the verification and the metrics are one shared tail.  The elastic
// variant wraps the in-core driver.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "kernels/dispatch.hpp"
#include "minimpi/comm.hpp"

namespace dipdc::modules::distsort {

enum class SplitterPolicy {
  kEqualWidth,  // bucket i owns [lo + i*w, lo + (i+1)*w), equal widths
  kHistogram,   // rank 0 histograms its local data and equalizes counts
  kSampling,    // regular sampling over ALL ranks (the PSRS splitter
                // selection) — an extension beyond the module: robust even
                // when ranks hold differently-distributed data
};

struct Config {
  SplitterPolicy policy = SplitterPolicy::kEqualWidth;
  /// Domain of the keys; values outside are clamped into the end buckets.
  double lo = 0.0;
  double hi = 1.0;
  /// Bins of the rank-0 histogram for kHistogram.
  std::size_t histogram_bins = 256;
  /// Compute-kernel ISA for the histogram and splitter-scan passes
  /// (`--kernel=` / DIPDC_KERNEL); scalar and simd bucket identically.
  kernels::Policy kernel = kernels::Policy::kAuto;
};

struct Result {
  std::size_t total_elements = 0;
  /// Elements owned by this rank after the exchange.
  std::size_t local_elements = 0;
  /// max / mean of post-exchange bucket sizes: 1.0 = perfectly balanced.
  double imbalance = 1.0;
  /// All ranks locally sorted and bucket ranges globally ordered, and no
  /// element lost (allreduce-verified).
  bool globally_sorted = false;
  /// Slowest rank's simulated total, and the root's phase breakdown.
  double sim_time = 0.0;
  double exchange_time = 0.0;
  double sort_time = 0.0;
  /// Bytes this rank shipped during the exchange.
  std::uint64_t exchange_bytes = 0;
};

/// Sorts `local` (this rank's share of the global data) into a global
/// bucket order; on return `local` holds this rank's sorted bucket.
/// Every rank must use the same config.
Result distributed_bucket_sort(minimpi::Comm& comm,
                               std::vector<double>& local,
                               const Config& config);

/// Elastic-container variant (src/container).
struct ElasticConfig {
  /// Rebalance only when max/mean bucket size exceeds this.
  double imbalance_threshold = 1.10;
};

/// Bucket sort with the keys held in an elastic container: the bucket
/// exchange is adopted into the container, and whenever max/mean bucket
/// size exceeds the threshold a unit-weight repartition levels the skew
/// (contiguous ranges slide between neighbouring ranks, so the global
/// sort order is preserved).  A rank kill is survived — the survivors
/// shrink the communicator, restore the generation-0 checkpoint of the
/// unsorted input, and redo the sort on the shrunken world.  The final
/// global sorted sequence is bit-identical to the no-fault run.  `world` must be the communicator
/// the fault plan targets; `sorted_root` (optional) receives the full
/// sorted array on (surviving) rank 0.
Result elastic_bucket_sort(minimpi::Comm& world, std::vector<double> local,
                           const Config& config,
                           const ElasticConfig& elastic = {},
                           std::vector<double>* sorted_root = nullptr);

/// The splitters (p-1 ascending values) the configuration produces; exposed
/// for tests and for the bench's explanation output.
std::vector<double> compute_splitters(minimpi::Comm& comm,
                                      const std::vector<double>& local,
                                      const Config& config);

/// Knobs of the out-of-core pipeline (streamed_bucket_sort).
struct StreamConfig {
  /// Overlap the next chunk's broadcast (and the root's disk read-ahead)
  /// with the current chunk's bucket filter; off = issue-and-wait.
  bool overlap = true;
};

/// Out-of-core bucket sort: the keys live in a chunk file (dim-1 rows;
/// dataio/chunk.hpp) that only rank 0 opens.  Chunks stream past every
/// rank through the read / communicate / compute rotation
/// (modules/stream_sweep.hpp); each rank keeps the keys of its own bucket
/// as they pass and sorts them once the sweep ends, so the exchange
/// dissolves into the stream — no Alltoallv, no rank ever holds more than
/// its bucket plus two chunks.  Requires kEqualWidth splitters (the data-
/// dependent policies need a look at the data before it streams).  On
/// return `sorted` holds this rank's sorted bucket, bit-identical to what
/// distributed_bucket_sort leaves on this rank for the same file split
/// any which way across ranks.  Every rank must pass the same config.
Result streamed_bucket_sort(minimpi::Comm& comm,
                            const std::string& chunk_path,
                            const Config& config,
                            std::vector<double>& sorted,
                            const StreamConfig& stream = {});

}  // namespace dipdc::modules::distsort
