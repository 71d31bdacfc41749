#include "modules/rangequery/serving.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <string>

#include "container/partitioning.hpp"
#include "kernels/filter.hpp"
#include "minimpi/ops.hpp"
#include "support/error.hpp"

namespace dipdc::modules::rangequery {

namespace mpi = minimpi;
namespace sp = spatial;

namespace {

// Message tags of the serving protocol (driver <-> shard p2p).
constexpr int kTagHeader = 41;
constexpr int kTagQueries = 42;
constexpr int kTagReply = 43;

/// Per-batch, per-shard frame header.  done=1 is the shutdown signal
/// (sent once per shard after the last batch drained).
struct BatchHeader {
  std::uint64_t batch_id = 0;
  std::uint32_t nqueries = 0;
  std::uint32_t done = 0;
};
static_assert(std::is_trivially_copyable_v<BatchHeader>);

/// Shards (0-based shard indices) whose cell ranges intersect `window`:
/// walks the covered cell rows and marks the owners of each contiguous
/// row-major id run (the cuts are monotone, so a run's owners are a
/// consecutive shard range).
void route_query(const sp::Rect& window, double cell_side, int g,
                 const container::Partitioning& cells,
                 std::vector<std::uint8_t>& routed) {
  const std::size_t cx0 = detail::cell_coord(window.xmin, cell_side, g);
  const std::size_t cx1 = detail::cell_coord(window.xmax, cell_side, g);
  const std::size_t cy0 = detail::cell_coord(window.ymin, cell_side, g);
  const std::size_t cy1 = detail::cell_coord(window.ymax, cell_side, g);
  for (std::size_t cy = cy0; cy <= cy1; ++cy) {
    const std::size_t a = cy * static_cast<std::size_t>(g) + cx0;
    const std::size_t b = cy * static_cast<std::size_t>(g) + cx1;
    for (int s = cells.owner(a); s <= cells.owner(b); ++s) {
      routed[static_cast<std::size_t>(s)] = 1;
    }
  }
}

/// A dispatched batch the driver is still waiting on.
struct InFlight {
  std::uint64_t id = 0;
  std::vector<double> arrival;             // per-query arrival times
  std::vector<std::uint64_t> matches;      // per-query merged counts
  std::vector<std::vector<std::uint32_t>> routed_local;  // shard -> positions
  std::vector<mpi::Request> sends;         // scatter isends to drain
};

}  // namespace

std::size_t detail::cell_coord(double v, double cell_side, int g) {
  const double c = v / cell_side;
  if (!(c > 0.0)) return 0;
  return static_cast<std::size_t>(std::min(c, static_cast<double>(g - 1)));
}

std::uint64_t detail::ShardCells::count(kernels::Isa isa,
                                        const sp::Rect& window) const {
  const auto g = static_cast<std::size_t>(g_);
  const std::size_t c1 = c0_ + start_.size() - 1;
  const std::size_t cx0 = cell_coord(window.xmin, cell_side_, g_);
  const std::size_t cx1 = cell_coord(window.xmax, cell_side_, g_);
  const std::size_t cy1 = cell_coord(window.ymax, cell_side_, g_);
  std::uint64_t n = 0;
  for (std::size_t cy = cell_coord(window.ymin, cell_side_, g_); cy <= cy1;
       ++cy) {
    const std::size_t a = std::max(cy * g + cx0, c0_);
    const std::size_t b = std::min(cy * g + cx1 + 1, c1);
    if (a >= b) continue;
    const std::size_t lo = start_[a - c0_];
    n += kernels::count_in_rect(isa, xs_.data() + lo, ys_.data() + lo,
                                start_[b - c0_] - lo, window.xmin,
                                window.ymin, window.xmax, window.ymax);
  }
  return n;
}

int default_grid_side(int shards) {
  int g = 1;
  while (g * g < 4 * shards) ++g;
  return g;
}

Mix parse_mix(std::string_view text) {
  if (text == "uniform") return Mix::kUniform;
  if (text == "hotspot") return Mix::kHotspot;
  if (text == "zipf") return Mix::kZipf;
  throw support::PreconditionError("unknown mix '" + std::string(text) +
                                   "' (uniform|hotspot|zipf)");
}

const char* mix_name(Mix mix) {
  switch (mix) {
    case Mix::kUniform: return "uniform";
    case Mix::kHotspot: return "hotspot";
    case Mix::kZipf: return "zipf";
  }
  return "?";
}

QueryStream::QueryStream(const ServeConfig& config, int grid_side)
    : extent_(config.extent),
      side_(std::min(config.side, config.extent)),
      mix_(config.mix),
      hot_fraction_(config.hot_fraction),
      hot_side_(config.hot_extent_fraction * config.extent),
      cell_side_(config.extent / static_cast<double>(grid_side)),
      grid_side_(grid_side),
      rng_(config.seed + 1) {
  DIPDC_REQUIRE(config.extent > 0.0 && config.side >= 0.0,
                "bad workload geometry");
  // The hot box corner is part of the stream's identity: drawn first,
  // once, so every consumer of (seed, mix) sees the same hot region.
  const double span = std::max(extent_ - hot_side_, 0.0);
  hot_corner_.x = rng_.uniform(0.0, std::max(span, 1e-300));
  hot_corner_.y = rng_.uniform(0.0, std::max(span, 1e-300));
  if (mix_ == Mix::kZipf) {
    // Popularity rank r -> weight (r+1)^-s over a seeded shuffle of the
    // cell ids, so the hot cells are scattered over the grid (and hence
    // over the shards) instead of always being the low ids.
    const auto ncells =
        static_cast<std::size_t>(grid_side_) * static_cast<std::size_t>(grid_side_);
    zipf_cells_.resize(ncells);
    for (std::size_t c = 0; c < ncells; ++c) {
      zipf_cells_[c] = static_cast<std::uint32_t>(c);
    }
    for (std::size_t c = ncells - 1; c > 0; --c) {
      std::swap(zipf_cells_[c], zipf_cells_[rng_.uniform_index(c + 1)]);
    }
    zipf_cdf_.resize(ncells);
    double acc = 0.0;
    for (std::size_t r = 0; r < ncells; ++r) {
      acc += std::pow(static_cast<double>(r + 1), -config.zipf_s);
      zipf_cdf_[r] = acc;
    }
    for (double& v : zipf_cdf_) v /= acc;
  }
}

sp::Rect QueryStream::next() {
  const double span = std::max(extent_ - side_, 0.0);
  double x = 0.0;
  double y = 0.0;
  switch (mix_) {
    case Mix::kUniform:
      x = rng_.uniform(0.0, extent_);
      y = rng_.uniform(0.0, extent_);
      break;
    case Mix::kHotspot:
      if (rng_.uniform() < hot_fraction_) {
        x = hot_corner_.x + rng_.uniform(0.0, std::max(hot_side_, 1e-300));
        y = hot_corner_.y + rng_.uniform(0.0, std::max(hot_side_, 1e-300));
      } else {
        x = rng_.uniform(0.0, extent_);
        y = rng_.uniform(0.0, extent_);
      }
      break;
    case Mix::kZipf: {
      const double u = rng_.uniform();
      const auto it =
          std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u);
      const std::size_t rank = it == zipf_cdf_.end()
                                   ? zipf_cdf_.size() - 1
                                   : static_cast<std::size_t>(
                                         it - zipf_cdf_.begin());
      const std::uint32_t cell = zipf_cells_[rank];
      const auto cx = static_cast<double>(cell % static_cast<std::uint32_t>(
                                                     grid_side_));
      const auto cy = static_cast<double>(cell / static_cast<std::uint32_t>(
                                                     grid_side_));
      x = cx * cell_side_ + rng_.uniform(0.0, cell_side_);
      y = cy * cell_side_ + rng_.uniform(0.0, cell_side_);
      break;
    }
  }
  x = std::min(x, span);
  y = std::min(y, span);
  return {x, y, x + side_, y + side_};
}

ServeResult serve(mpi::Comm& comm, const ServeConfig& config) {
  DIPDC_REQUIRE(comm.size() >= 2,
                "serving needs at least 2 ranks (driver + 1 shard)");
  DIPDC_REQUIRE(config.qps > 0.0 && config.duration >= 0.0,
                "bad open-loop rate/duration");
  DIPDC_REQUIRE(config.batch >= 1 && config.batch <= config.queue_cap,
                "admission batch must fit the bounded queue");
  DIPDC_REQUIRE(config.pipeline >= 1, "pipeline depth must be >= 1");

  const int shards = comm.size() - 1;
  const int g = config.grid == 0 ? default_grid_side(shards)
                                 : static_cast<int>(config.grid);
  DIPDC_REQUIRE(g >= 1, "grid side must be >= 1");
  const double cell_side = config.extent / static_cast<double>(g);
  const auto ncells =
      static_cast<std::size_t>(g) * static_cast<std::size_t>(g);
  // The shard map: row-major cell ids block-partitioned over the shards
  // (the elastic containers' deterministic cut machinery, reused).
  const auto cells = container::Partitioning::block(ncells, shards);
  const kernels::Isa isa = kernels::resolve(config.kernel);

  ServeResult result;
  result.shards = shards;
  result.grid_side = g;

  std::uint64_t local_entries = 0;  // this shard's scanned points

  if (comm.rank() == 0) {
    // ---- Driver: open-loop admission, routing, pipelined scatter/gather.
    QueryStream stream(config, g);
    const auto offered = static_cast<std::uint64_t>(
        std::llround(config.qps * config.duration));
    const auto arrival = [&](std::uint64_t i) {
      return static_cast<double>(i + 1) / config.qps;
    };

    struct Queued {
      sp::Rect window;
      double arrival = 0.0;
    };
    std::deque<Queued> queue;
    std::deque<InFlight> inflight;
    std::uint64_t generated = 0;  // arrivals materialized from the stream
    std::uint64_t next_batch_id = 0;

    // Absorbs every arrival with time <= now: into the queue while it has
    // room, counted as rejected otherwise (the bounded-queue drop).
    const auto absorb = [&](double now) {
      while (generated < offered && arrival(generated) <= now) {
        const sp::Rect w = stream.next();
        if (queue.size() < config.queue_cap) {
          queue.push_back({w, arrival(generated)});
          ++result.admitted;
        } else {
          ++result.rejected;
        }
        ++generated;
      }
    };

    // Scatters the front `n` queued queries as one batch: routes each
    // window to its intersecting shards, isends per-shard headers and
    // query payloads (non-blocking, so batch k+1 leaves while batch k is
    // still executing), and parks the batch on the in-flight queue.
    std::vector<std::uint8_t> routed(static_cast<std::size_t>(shards));
    const auto dispatch = [&](std::size_t n) {
      mpi::Comm::Phase phase(comm, "serve.scatter");
      InFlight batch;
      batch.id = next_batch_id++;
      batch.matches.assign(n, 0);
      batch.routed_local.resize(static_cast<std::size_t>(shards));
      std::vector<std::vector<sp::Rect>> per_shard(
          static_cast<std::size_t>(shards));
      for (std::size_t i = 0; i < n; ++i) {
        const Queued& q = queue.front();
        std::fill(routed.begin(), routed.end(), 0);
        route_query(q.window, cell_side, g, cells, routed);
        for (int s = 0; s < shards; ++s) {
          if (routed[static_cast<std::size_t>(s)] == 0) continue;
          per_shard[static_cast<std::size_t>(s)].push_back(q.window);
          batch.routed_local[static_cast<std::size_t>(s)].push_back(
              static_cast<std::uint32_t>(i));
        }
        batch.arrival.push_back(q.arrival);
        queue.pop_front();
      }
      for (int s = 0; s < shards; ++s) {
        const auto& qs = per_shard[static_cast<std::size_t>(s)];
        BatchHeader header;
        header.batch_id = batch.id;
        header.nqueries = static_cast<std::uint32_t>(qs.size());
        batch.sends.push_back(
            comm.isend_value(header, /*dest=*/s + 1, kTagHeader));
        if (!qs.empty()) {
          batch.sends.push_back(comm.isend(
              std::span<const sp::Rect>(qs), s + 1, kTagQueries));
        }
      }
      ++result.batches;
      inflight.push_back(std::move(batch));
    };

    // Gathers the oldest in-flight batch: per-shard count vectors merged
    // into per-query totals; the batch's queries all complete when the
    // last reply lands, and each latency (completion - arrival) goes
    // into the log2 histogram in microseconds.
    std::vector<std::uint64_t> reply;
    const auto complete_oldest = [&]() {
      mpi::Comm::Phase phase(comm, "serve.gather");
      InFlight batch = std::move(inflight.front());
      inflight.pop_front();
      for (int s = 0; s < shards; ++s) {
        const auto& local = batch.routed_local[static_cast<std::size_t>(s)];
        if (local.empty()) continue;
        reply.assign(local.size(), 0);
        comm.recv(std::span<std::uint64_t>(reply), s + 1, kTagReply);
        for (std::size_t i = 0; i < local.size(); ++i) {
          batch.matches[local[i]] += reply[i];
        }
      }
      comm.wait_all(std::span<mpi::Request>(batch.sends));
      const double now = comm.wtime();
      for (std::size_t i = 0; i < batch.arrival.size(); ++i) {
        const double latency = now - batch.arrival[i];
        result.latency_us.observe(latency * 1e6);
        result.total_matches += batch.matches[i];
      }
      result.completed += batch.arrival.size();
      result.makespan = now;
    };

    while (true) {
      absorb(comm.wtime());
      const bool drained =
          generated == offered && queue.empty() && inflight.empty();
      if (drained) break;
      // Scatter first (fills the pipeline), gather second, idle last.
      if (inflight.size() < config.pipeline &&
          (queue.size() >= config.batch ||
           (generated == offered && !queue.empty()))) {
        dispatch(std::min(queue.size(), config.batch));
        continue;
      }
      if (!inflight.empty()) {
        complete_oldest();
        continue;
      }
      // Nothing in flight and no closable batch: idle-wait for the
      // arrival that fills the batch (or the last arrival of the run).
      const std::uint64_t fill =
          std::min(generated + (config.batch - queue.size()) - 1,
                   offered - 1);
      const double wake = arrival(fill);
      if (wake > comm.wtime()) comm.sim_advance(wake - comm.wtime());
    }
    result.offered = offered;
    result.achieved_qps = result.makespan > 0.0
                              ? static_cast<double>(result.completed) /
                                    result.makespan
                              : 0.0;
    result.mean_latency = result.latency_us.mean() * 1e-6;
    result.max_latency = result.latency_us.max * 1e-6;
    result.p50_latency = result.latency_us.quantile(0.50) * 1e-6;
    result.p99_latency = result.latency_us.quantile(0.99) * 1e-6;

    // Shutdown: one done-header per shard.
    for (int s = 0; s < shards; ++s) {
      BatchHeader header;
      header.done = 1;
      comm.send_value(header, s + 1, kTagHeader);
    }
  } else {
    // ---- Shard: materialize owned points, then serve batches until done.
    const int me = comm.rank() - 1;
    // Every shard walks the same seeded point stream and keeps its own
    // cells' points: sharding without ever materializing the global
    // array (the stream is O(1) transient state).
    const detail::ShardCells shard(
        cell_side, g, cells.begin(me), cells.end(me), [&](auto&& keep) {
          support::Xoshiro256 rng(config.seed);
          for (std::size_t i = 0; i < config.n_points; ++i) {
            const double x = rng.uniform(0.0, config.extent);
            const double y = rng.uniform(0.0, config.extent);
            keep(x, y);
          }
        });
    // Building the local shard is charged one pass over the global
    // stream (generation) plus the owned points' storage traffic; the
    // host's extra counting pass is not part of the model.
    comm.sim_compute(8.0 * static_cast<double>(config.n_points),
                     16.0 * static_cast<double>(shard.size()));

    std::vector<sp::Rect> queries;
    std::vector<std::uint64_t> counts;
    while (true) {
      const auto header = comm.recv_value<BatchHeader>(0, kTagHeader);
      if (header.done != 0) break;
      if (header.nqueries == 0) continue;
      queries.resize(header.nqueries);
      comm.recv(std::span<sp::Rect>(queries), 0, kTagQueries);
      mpi::Comm::Phase phase(comm, "serve.execute");
      counts.resize(header.nqueries);
      for (std::size_t i = 0; i < queries.size(); ++i) {
        counts[i] = shard.count(isa, queries[i]);
      }
      // Two clocks: the host scans only the overlapped cells, the
      // simulated clock charges the paper's brute-force shard scan.
      const double scanned = static_cast<double>(queries.size()) *
                             static_cast<double>(shard.size());
      local_entries +=
          static_cast<std::uint64_t>(queries.size()) * shard.size();
      comm.sim_compute(config.costs.flops_per_entry * scanned,
                       config.costs.bytes_per_entry_scan * scanned);
      comm.send(std::span<const std::uint64_t>(counts), 0, kTagReply);
    }
  }

  // ---- Shared aggregates (collective over the full communicator).
  const auto entries = static_cast<std::uint64_t>(comm.allreduce_value(
      static_cast<long long>(local_entries), mpi::ops::Sum{}));
  const auto max_entries = static_cast<std::uint64_t>(comm.allreduce_value(
      static_cast<long long>(local_entries), mpi::ops::Max{}));
  result.entries_checked = entries;
  const double mean_entries =
      static_cast<double>(entries) / static_cast<double>(shards);
  result.shard_imbalance =
      mean_entries > 0.0 ? static_cast<double>(max_entries) / mean_entries
                         : 0.0;
  return result;
}

}  // namespace dipdc::modules::rangequery
