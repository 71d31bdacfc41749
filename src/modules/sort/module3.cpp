#include "modules/sort/module3.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <span>

#include "container/container.hpp"
#include "dataio/chunk.hpp"
#include "kernels/sort.hpp"
#include "minimpi/error.hpp"
#include "minimpi/ops.hpp"
#include "modules/stream_sweep.hpp"
#include "support/error.hpp"

namespace dipdc::modules::distsort {

namespace mpi = minimpi;

std::vector<double> compute_splitters(mpi::Comm& comm,
                                      const std::vector<double>& local,
                                      const Config& config) {
  DIPDC_REQUIRE(config.lo < config.hi, "key domain must be non-empty");
  const int p = comm.size();
  std::vector<double> splitters(static_cast<std::size_t>(p - 1));

  if (config.policy == SplitterPolicy::kEqualWidth) {
    const double width =
        (config.hi - config.lo) / static_cast<double>(p);
    for (int i = 1; i < p; ++i) {
      splitters[static_cast<std::size_t>(i - 1)] =
          config.lo + width * static_cast<double>(i);
    }
    return splitters;
  }

  if (config.policy == SplitterPolicy::kSampling) {
    // Regular sampling (the PSRS selection): every rank contributes p
    // evenly spaced samples of its *sorted* local data; the root sorts the
    // p*p samples and picks every p-th one as a splitter.  Unlike the
    // histogram policy this uses information from all ranks, so it stays
    // balanced even when ranks hold differently-distributed data.
    // Oversampling tightens the classic 2x PSRS bucket bound to ~(1+1/c).
    constexpr std::size_t kOversample = 16;
    const auto np = static_cast<std::size_t>(p);
    const std::size_t per_rank = kOversample * np;
    std::vector<double> sorted_local(local);
    kernels::sort_keys(sorted_local.data(), sorted_local.size());
    std::vector<double> samples(per_rank, config.lo);
    if (!sorted_local.empty()) {
      for (std::size_t i = 0; i < per_rank; ++i) {
        const std::size_t pos = std::min(
            sorted_local.size() - 1,
            (2 * i + 1) * sorted_local.size() / (2 * per_rank));
        samples[i] = sorted_local[pos];
      }
    }
    std::vector<double> all_samples(per_rank * np);
    comm.gather(std::span<const double>(samples),
                std::span<double>(all_samples), 0);
    if (comm.rank() == 0) {
      kernels::sort_keys(all_samples.data(), all_samples.size());
      for (int i = 1; i < p; ++i) {
        splitters[static_cast<std::size_t>(i - 1)] =
            all_samples[static_cast<std::size_t>(i) * per_rank];
      }
    }
    comm.bcast(std::span<double>(splitters), 0);
    return splitters;
  }

  // Histogram policy: rank 0 approximates the global distribution with a
  // histogram of *its* local data (the module's prescription) and places
  // splitters so each bucket would receive an equal share.
  if (comm.rank() == 0) {
    DIPDC_REQUIRE(config.histogram_bins >= static_cast<std::size_t>(p),
                  "need at least one histogram bin per rank");
    std::vector<std::uint64_t> hist(config.histogram_bins, 0);
    const double bin_width =
        (config.hi - config.lo) / static_cast<double>(config.histogram_bins);
    kernels::histogram(kernels::resolve(config.kernel), local.data(),
                       local.size(), config.lo, bin_width,
                       config.histogram_bins, hist.data());
    const double per_bucket =
        static_cast<double>(local.size()) / static_cast<double>(p);
    std::size_t cumulative = 0;
    int next_split = 1;
    for (std::size_t b = 0;
         b < hist.size() && next_split < p; ++b) {
      cumulative += hist[b];
      while (next_split < p &&
             static_cast<double>(cumulative) >=
                 per_bucket * static_cast<double>(next_split)) {
        splitters[static_cast<std::size_t>(next_split - 1)] =
            config.lo + bin_width * static_cast<double>(b + 1);
        ++next_split;
      }
    }
    // Any splitters not placed (degenerate histograms) fall at the top.
    for (; next_split < p; ++next_split) {
      splitters[static_cast<std::size_t>(next_split - 1)] = config.hi;
    }
  }
  comm.bcast(std::span<double>(splitters), 0);
  return splitters;
}

namespace {

double log2_safe(std::size_t n) {
  return n < 2 ? 1.0 : std::log2(static_cast<double>(n));
}

/// Reduce to the root then broadcast: the module prescribes MPI_Reduce, so
/// the reference solution uses it (rather than Allreduce) for its global
/// quantities.
template <typename T, typename Op>
T reduce_to_all(mpi::Comm& comm, T value, Op op) {
  T out{};
  comm.reduce(std::span<const T>(&value, 1), std::span<T>(&out, 1), op, 0);
  return comm.bcast_value(out, 0);
}

/// Everything after the exchange, shared by the in-core and streamed
/// drivers: the local sort of this rank's bucket (in place), the
/// verification (counts preserved, every rank sorted, bucket fronts
/// ordered across ranks), the load-balance metrics and the slowest rank's
/// span since `t0`.  `global_in()` yields the element count the exchange
/// had to preserve; it runs right after the sort, which is where the
/// in-core driver reduces its input counts.
Result sort_and_verify(mpi::Comm& comm, std::vector<double>& bucket,
                       double t0,
                       const std::function<long long()>& global_in,
                       Result result) {
  const auto np = static_cast<std::size_t>(comm.size());
  const double t_exchanged = comm.wtime();

  // Local sort, in place (a rank holds its bucket and nothing the size of
  // it besides).  Cost model: the paper's comparison sort, memory-bound —
  // per element roughly 2*log2(n) flop-equivalents against 8*log2(n) bytes
  // of traffic (multiple passes over a working set that exceeds cache).
  // The host runs a radix sort instead; the simulated clock charges this.
  comm.phase_begin("local_sort");
  kernels::sort_keys(bucket.data(), bucket.size());
  const double nlogn =
      static_cast<double>(bucket.size()) * log2_safe(bucket.size());
  comm.sim_compute(2.0 * nlogn, 8.0 * nlogn);
  comm.phase_end();
  const double t_sorted = comm.wtime();

  const long long expected = global_in();
  const long long global_out = reduce_to_all(
      comm, static_cast<long long>(bucket.size()), mpi::ops::Sum{});
  const bool locally_sorted = std::is_sorted(bucket.begin(), bucket.end());

  // Boundary check: my smallest element must not precede any lower rank's
  // largest.  Gather (min, max) pairs and check on the root.
  const double lowest = std::numeric_limits<double>::lowest();
  const double pair[2] = {bucket.empty() ? lowest : bucket.front(),
                          bucket.empty() ? lowest : bucket.back()};
  std::vector<double> fronts(2 * np);
  comm.gather(std::span<const double>(pair, 2), std::span<double>(fronts), 0);
  bool boundaries_ok = true;
  if (comm.rank() == 0) {
    double prev_max = lowest;
    for (std::size_t i = 0; i < np; ++i) {
      const double imn = fronts[2 * i];
      const double imx = fronts[2 * i + 1];
      if (imn == lowest && imx == lowest) continue;  // empty bucket
      if (imn < prev_max) boundaries_ok = false;
      prev_max = imx;
    }
  }
  boundaries_ok = comm.bcast_value(boundaries_ok, 0);

  const char all_ok = static_cast<char>(locally_sorted && boundaries_ok &&
                                        global_out == expected);
  result.globally_sorted =
      reduce_to_all(comm, all_ok, mpi::ops::LogicalAnd{}) != 0;

  // Load-balance metrics.
  const auto my_count = static_cast<long long>(bucket.size());
  const long long max_count = reduce_to_all(comm, my_count, mpi::ops::Max{});
  result.total_elements = static_cast<std::size_t>(global_out);
  result.local_elements = bucket.size();
  const double mean_count =
      static_cast<double>(global_out) / static_cast<double>(np);
  result.imbalance =
      mean_count > 0.0 ? static_cast<double>(max_count) / mean_count : 1.0;

  const double my_total = comm.wtime() - t0;
  result.sim_time = reduce_to_all(comm, my_total, mpi::ops::Max{});
  result.exchange_time = t_exchanged - t0;
  result.sort_time = t_sorted - t_exchanged;
  return result;
}

}  // namespace

Result distributed_bucket_sort(mpi::Comm& comm, std::vector<double>& local,
                               const Config& config) {
  const auto np = static_cast<std::size_t>(comm.size());
  Result result;

  const double t0 = comm.wtime();
  comm.phase_begin("partition");
  const std::vector<double> splitters =
      compute_splitters(comm, local, config);

  // Classify local elements into per-destination buckets with the
  // dispatched splitter-scan kernel, then place them bucket-contiguously
  // in one stable counting pass (replaces the per-element push_back into
  // p vectors).  Cost model: one pass over the data (compute-light,
  // streaming).
  std::vector<std::uint32_t> dest(local.size());
  kernels::bucket_indices(kernels::resolve(config.kernel), local.data(),
                          local.size(), splitters.data(), splitters.size(),
                          dest.data());
  comm.sim_compute(2.0 * static_cast<double>(local.size()),
                   8.0 * static_cast<double>(local.size()));
  comm.phase_end();

  // Exchange with Alltoallv — the module's scatter phase.
  comm.phase_begin("exchange");
  std::vector<std::size_t> send_counts(np), send_displs(np);
  for (const std::uint32_t d : dest) ++send_counts[d];
  std::size_t placed = 0;
  for (std::size_t i = 0; i < np; ++i) {
    send_displs[i] = placed;
    placed += send_counts[i];
  }
  std::vector<double> send_buf(local.size());
  std::vector<std::size_t> cursor = send_displs;
  for (std::size_t i = 0; i < local.size(); ++i) {
    send_buf[cursor[dest[i]]++] = local[i];
  }
  std::vector<std::size_t> recv_counts(np), recv_displs(np);
  comm.alltoall(std::span<const std::size_t>(send_counts),
                std::span<std::size_t>(recv_counts));
  std::size_t total_recv = 0;
  for (std::size_t i = 0; i < np; ++i) {
    recv_displs[i] = total_recv;
    total_recv += recv_counts[i];
  }
  std::vector<double> bucket(total_recv);
  comm.alltoallv(std::span<const double>(send_buf),
                 std::span<const std::size_t>(send_counts),
                 std::span<const std::size_t>(send_displs),
                 std::span<double>(bucket),
                 std::span<const std::size_t>(recv_counts),
                 std::span<const std::size_t>(recv_displs));
  result.exchange_bytes =
      static_cast<std::uint64_t>(send_buf.size() * sizeof(double));
  comm.phase_end();

  const auto sent_total = static_cast<long long>(local.size());
  local = std::move(bucket);
  return sort_and_verify(
      comm, local, t0,
      [&] { return reduce_to_all(comm, sent_total, mpi::ops::Sum{}); },
      result);
}

// Out of core the redistribution dissolves into the stream: every chunk
// is broadcast past every rank, and each rank keeps exactly the keys that
// fall into its own equal-width bucket (the same dispatched splitter-scan
// kernel classifies them).  The bucket then goes through the same sort and
// verification as the in-core one — the same multiset a no-streaming run
// would have assembled, so the sorted buckets are bit-identical to the
// in-core result however the input was split across ranks.
Result streamed_bucket_sort(mpi::Comm& comm, const std::string& chunk_path,
                            const Config& config, std::vector<double>& sorted,
                            const StreamConfig& stream) {
  DIPDC_REQUIRE(config.policy == SplitterPolicy::kEqualWidth,
                "streamed_bucket_sort needs data-independent (equal-width) "
                "splitters; histogram/sampling would have to see the data "
                "before it streams");
  const auto nr = static_cast<std::uint32_t>(comm.rank());
  Result result;

  std::unique_ptr<dataio::ChunkReader> reader;
  if (comm.rank() == 0) {
    reader = std::make_unique<dataio::ChunkReader>(chunk_path);
    DIPDC_REQUIRE(reader->dim() == 1, "key files are 1-dimensional rows");
  }
  const dataio::ChunkFileInfo geo =
      streaming::bcast_geometry(comm, reader.get());

  const double t0 = comm.wtime();

  // Splitters are a pure function of (lo, hi, p) — no data needed.
  const std::vector<double> splitters = compute_splitters(comm, {}, config);

  // Sweep — every chunk passes every rank; each keeps its bucket's keys.
  // Classification cost matches the in-core partition pass (one streaming
  // scan); the keeps are charged with it.
  std::vector<double> bucket;
  std::vector<std::uint32_t> dest;
  const kernels::Isa isa = kernels::resolve(config.kernel);
  streaming::chunk_sweep(
      comm, reader.get(), geo, stream.overlap,
      [&](std::size_t, std::span<const double> values) {
        dest.resize(values.size());
        kernels::bucket_indices(isa, values.data(), values.size(),
                                splitters.data(), splitters.size(),
                                dest.data());
        // Branch-free keep: half the keys go each way on uniform input, so
        // a branch on each would mispredict.  Count, grow once (doubling,
        // as push_back would, so the bucket never ends far above its final
        // size), then write every key and advance only past the kept ones.
        std::size_t keep = 0;
        for (const std::uint32_t d : dest) {
          keep += static_cast<std::size_t>(d == nr);
        }
        const std::size_t m0 = bucket.size();
        if (m0 + keep > bucket.capacity()) {
          bucket.reserve(std::max(2 * bucket.capacity(), m0 + keep));
        }
        bucket.resize(m0 + keep);
        double* out = bucket.data() + m0;
        for (std::size_t i = 0, m = 0; m < keep; ++i) {
          out[m] = values[i];
          m += static_cast<std::size_t>(dest[i] == nr);
        }
        comm.sim_compute(2.0 * static_cast<double>(values.size()),
                         8.0 * static_cast<double>(values.size()));
      });
  // Broadcasting every chunk to every rank is what this rank shipped /
  // received through the stream.
  result.exchange_bytes =
      static_cast<std::uint64_t>(geo.total_rows * sizeof(double));

  sorted = std::move(bucket);
  return sort_and_verify(
      comm, sorted, t0,
      [&] { return static_cast<long long>(geo.total_rows); }, result);
}

Result elastic_bucket_sort(mpi::Comm& world, std::vector<double> local,
                           const Config& config,
                           const ElasticConfig& elastic,
                           std::vector<double>* sorted_root) {
  namespace box = dipdc::container;
  mpi::Comm* comm = &world;
  // Shrunken communicators must outlive the container (it keeps a pointer
  // to the communicator it was recovered onto).
  std::deque<mpi::Comm> shrunk;
  std::optional<box::Container<double>> keys;

  for (;;) {
    try {
      if (!keys) {
        keys.emplace(
            box::Container<double>::from_counts(*comm, 1, std::move(local)));
        // Generation 0 is all recovery ever needs here: the sort's input
        // is immutable, so survivors restore it and redo the whole sort.
        keys->checkpoint({});
      }
      std::vector<double> work = keys->local();
      Result result = distributed_bucket_sort(*comm, work, config);
      // Owner-computes adoption: the exchange already moved the data; the
      // container relearns the (skewed) cuts from the new counts.
      keys->adopt(std::move(work));
      keys->rebalance(elastic.imbalance_threshold);
      result.local_elements = keys->count();
      result.imbalance = keys->partitioning().count_imbalance();
      if (sorted_root != nullptr) {
        const box::Partitioning& part = keys->partitioning();
        const int p = comm->size();
        std::vector<std::size_t> counts(static_cast<std::size_t>(p));
        std::vector<std::size_t> displs(static_cast<std::size_t>(p));
        for (int i = 0; i < p; ++i) {
          counts[static_cast<std::size_t>(i)] = part.count(i);
          displs[static_cast<std::size_t>(i)] = part.begin(i);
        }
        std::vector<double> gathered(comm->rank() == 0 ? part.total() : 0);
        comm->gatherv(std::span<const double>(keys->local()), counts, displs,
                      std::span<double>(gathered), 0);
        if (comm->rank() == 0) *sorted_root = std::move(gathered);
      }
      return result;
    } catch (const mpi::RankFailedError&) {
      if (comm->failed_rank() == comm->world_rank()) throw;  // I am the corpse
      shrunk.push_back(comm->shrink());
      comm = &shrunk.back();
      // A kill during the input snapshot can strand slower survivors
      // inside the constructor; if any rank missed it, generation 0 is not
      // ring-wide and the dead rank's input shard is unrecoverable.
      if (comm->allreduce_value(keys ? 1 : 0, mpi::ops::Min{}) != 1) {
        throw mpi::RankFailedError(
            "module3 elastic: a rank died before the input checkpoint "
            "completed; its keys are lost");
      }
      (void)keys->recover(*comm);  // restores the generation-0 input
    }
  }
}

}  // namespace dipdc::modules::distsort
