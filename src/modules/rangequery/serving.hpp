// Module 4, serving mode — a sharded range-query *service* under
// sustained load (the "millions of users" scenario the batch module can
// only gesture at).
//
// The batch module (module4.hpp) replicates the points on every rank,
// answers one fixed query set, and exits.  Serving mode changes all
// three premises:
//
//   * **Sharded data.**  The extent is cut into a g x g spatial grid and
//     the row-major cell ids are block-partitioned over the shard ranks
//     (container::Partitioning — the same deterministic cut machinery
//     the elastic containers use).  Each shard materializes only its own
//     points, stored as coordinate arrays (SoA) in row-major cell order
//     for the SIMD filter kernel; no rank holds the whole dataset.
//   * **Open-loop load.**  Rank 0 is a driver generating a sustained
//     query stream at a fixed offered rate: arrival i happens at
//     (i+1)/qps whether or not the system has kept up (open loop — the
//     defining property that lets saturation actually hurt).  Queries
//     are admitted into a bounded queue (arrivals beyond the cap are
//     rejected and counted), closed into fixed-size admission batches,
//     and each batch is routed to exactly the shards whose cell ranges
//     intersect each query window.
//   * **Pipelined execution.**  Up to `pipeline` batches are in flight:
//     the driver scatters batch k+1 while the shards still execute
//     batch k, then gathers per-query match counts and records each
//     query's latency (completion minus arrival) into an obs log2
//     histogram.  p50/p99 and achieved queries/sec come out of that
//     histogram — the serving numbers the handbook chapter reads.
//
// Everything runs in simulated time on the minimpi machine model, so a
// fixed configuration is bit-identical across transport backends and
// kernel ISAs: the same queries are admitted, dropped, and answered,
// with the same latencies, on threads, shm, and tcp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "kernels/dispatch.hpp"
#include "minimpi/comm.hpp"
#include "modules/rangequery/module4.hpp"
#include "obs/metrics.hpp"
#include "support/rng.hpp"

namespace dipdc::modules::rangequery {

/// Spatial mix of the open-loop query stream.
enum class Mix {
  kUniform,  // windows uniformly placed over the whole extent
  kHotspot,  // `hot_fraction` of windows inside one small hot box
  kZipf,     // window placement by Zipf-ranked grid-cell popularity
};

/// Parses "uniform" | "hotspot" | "zipf" (throws support::
/// PreconditionError on anything else).
Mix parse_mix(std::string_view text);
const char* mix_name(Mix mix);

struct ServeConfig {
  // Dataset: n_points uniform in [0, extent)^2, sharded by grid cell.
  std::size_t n_points = 50000;
  double extent = 100.0;
  /// Query window side (windows are placed corner-first and kept inside
  /// the extent).
  double side = 4.0;

  // Open-loop workload.
  double qps = 4000.0;    // offered arrival rate (queries per simulated second)
  double duration = 1.0;  // seconds of arrivals (offered = round(qps*duration))
  Mix mix = Mix::kUniform;
  double hot_fraction = 0.9;         // hotspot: share of queries in the hot box
  double hot_extent_fraction = 0.1;  // hotspot: hot box side / extent
  double zipf_s = 1.1;               // zipf: popularity exponent

  // Admission and pipeline.
  std::size_t batch = 16;       // admission batch size (queries per batch)
  std::size_t queue_cap = 256;  // bounded queue: arrivals beyond this drop
  std::size_t pipeline = 2;     // max batches in flight (1 = no overlap)

  /// Grid cells per side; 0 = smallest g with g*g >= 4 * shards.
  std::size_t grid = 0;

  std::uint64_t seed = 1;  // points draw from seed, the stream from seed+1
  kernels::Policy kernel = kernels::Policy::kAuto;
  CostConstants costs{};
};

struct ServeResult {
  // Admission accounting (driver).
  std::uint64_t offered = 0;    // open-loop arrivals generated
  std::uint64_t admitted = 0;   // entered the bounded queue
  std::uint64_t rejected = 0;   // dropped at the full queue
  std::uint64_t completed = 0;  // answered (== admitted: admitted work finishes)
  std::uint64_t batches = 0;

  std::uint64_t total_matches = 0;    // sum of per-query match counts
  /// Points the modelled brute-force shard scan tests, over all shards:
  /// every routed query against every point of its shard.  The simulated
  /// clock charges this scan; the host scans only the cells a window
  /// overlaps (detail::ShardCells), which gives the same counts.
  std::uint64_t entries_checked = 0;
  /// max / mean of per-shard modelled scan entries (1.0 = balanced).
  double shard_imbalance = 0.0;

  double makespan = 0.0;      // driver clock when the last batch completed
  double achieved_qps = 0.0;  // completed / makespan
  double p50_latency = 0.0;   // seconds, from the log2 histogram
  double p99_latency = 0.0;
  double mean_latency = 0.0;
  double max_latency = 0.0;

  /// Per-query latency in microseconds, log2-bucketed (driver only).
  obs::Histogram latency_us;

  int shards = 0;
  int grid_side = 0;
};

/// Runs the serving loop on `comm`: rank 0 drives, ranks 1..size-1 hold
/// shards.  Requires comm.size() >= 2.  The full result is produced on
/// rank 0 (shards return the shared aggregates only).
ServeResult serve(minimpi::Comm& comm, const ServeConfig& config);

/// The deterministic open-loop query generator (exposed for tests and
/// the bench): produces the exact stream `serve` consumes, as a pure
/// function of the config's workload parameters and seed.
class QueryStream {
 public:
  QueryStream(const ServeConfig& config, int grid_side);

  /// Next query window (corner-placed, clamped inside the extent).
  spatial::Rect next();

 private:
  double extent_;
  double side_;
  Mix mix_;
  double hot_fraction_;
  spatial::Point2 hot_corner_;  // hot box corner (hotspot mix)
  double hot_side_;
  double cell_side_;                // zipf mix: grid geometry
  int grid_side_;
  std::vector<double> zipf_cdf_;    // cumulative cell popularity
  std::vector<std::uint32_t> zipf_cells_;  // popularity rank -> cell id
  support::Xoshiro256 rng_;
};

/// Smallest grid side g with g*g >= 4 * shards (the default used when
/// ServeConfig::grid == 0).
int default_grid_side(int shards);

namespace detail {

/// Grid coordinate of `v` on an axis of `g` cells `cell_side` wide:
/// trunc(v / cell_side) clamped into [0, g-1], so a value at `extent`
/// lands in the last cell (and NaN in the first).  The rule is monotone
/// in v, so every point of a closed window lies in a cell the window's
/// corners span.  Routing and the shard scan are exact because both
/// use this one rule.
std::size_t cell_coord(double v, double cell_side, int g);

/// One shard's points, bucketed by grid cell: the points whose row-major
/// cell id lies in the owned range [c0, c1), as coordinate arrays sorted
/// by cell, with `start_[c - c0]` the first slot of cell c.
class ShardCells {
 public:
  /// Keeps the owned points of the stream `visit` produces: visit(f)
  /// calls f(x, y) once per point.  `visit` runs twice and must replay
  /// the same stream.  The first pass counts the points per cell, the
  /// second writes each point into its slot, so the coordinate arrays are
  /// allocated once, at their final size.
  template <class Visit>
  ShardCells(double cell_side, int g, std::size_t c0, std::size_t c1,
             Visit&& visit);

  [[nodiscard]] std::size_t size() const { return xs_.size(); }

  /// Points inside the closed `window`, equal to count_in_rect over every
  /// point of the shard.  Each window row covers a contiguous run of cell
  /// ids; the run clipped to the owned range is one count_in_rect call.
  [[nodiscard]] std::uint64_t count(kernels::Isa isa,
                                    const spatial::Rect& window) const;

 private:
  [[nodiscard]] std::size_t cell_of(double x, double y) const {
    return cell_coord(y, cell_side_, g_) * static_cast<std::size_t>(g_) +
           cell_coord(x, cell_side_, g_);
  }

  double cell_side_;
  int g_;
  std::size_t c0_;
  std::vector<std::size_t> start_;  // c1 - c0 + 1 slots; back() == size()
  std::vector<double> xs_;
  std::vector<double> ys_;
};

template <class Visit>
ShardCells::ShardCells(double cell_side, int g, std::size_t c0,
                       std::size_t c1, Visit&& visit)
    : cell_side_(cell_side), g_(g), c0_(c0), start_(c1 - c0 + 1, 0) {
  visit([&](double x, double y) {
    const std::size_t c = cell_of(x, y);
    if (c >= c0 && c < c1) ++start_[c - c0 + 1];
  });
  for (std::size_t i = 1; i < start_.size(); ++i) start_[i] += start_[i - 1];
  xs_.resize(start_.back());
  ys_.resize(start_.back());
  std::vector<std::size_t> next(start_.begin(), start_.end() - 1);
  visit([&](double x, double y) {
    const std::size_t c = cell_of(x, y);
    if (c < c0 || c >= c1) return;
    const std::size_t slot = next[c - c0]++;
    xs_[slot] = x;
    ys_[slot] = y;
  });
}

}  // namespace detail

}  // namespace dipdc::modules::rangequery
