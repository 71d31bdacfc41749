#include "modules/kmeans/module5.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <deque>
#include <limits>
#include <optional>
#include <utility>

#include "container/container.hpp"
#include "kernels/distance.hpp"
#include "kernels/kmeans.hpp"
#include "minimpi/error.hpp"
#include "minimpi/ops.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace dipdc::modules::kmeans {

namespace mpi = minimpi;

namespace {

// The assignment and centroid-update hot loops live in src/kernels
// (kernels::assign_points / kernels::update_centroids): runtime-dispatched
// scalar/AVX2 implementations that are bit-identical by the canonical
// accumulation contract, so every path below clusters identically no
// matter which ISA runs.

/// Initial centroids at the data owner: first-k or k-means++ seeding.
std::vector<double> initial_centroids(const dataio::Dataset& dataset,
                                      const Config& config,
                                      kernels::Isa isa) {
  const std::size_t k = config.k;
  const std::size_t dim = dataset.dim();
  std::vector<double> centroids(k * dim);
  if (config.init == Init::kFirstK) {
    std::copy(dataset.values().begin(),
              dataset.values().begin() + static_cast<std::ptrdiff_t>(k * dim),
              centroids.begin());
    return centroids;
  }
  // k-means++: choose each next seed with probability proportional to its
  // squared distance to the nearest already-chosen seed.
  support::Xoshiro256 rng(config.init_seed);
  const std::size_t n = dataset.size();
  std::vector<double> d2(n, std::numeric_limits<double>::infinity());
  std::size_t first = rng.uniform_index(n);
  for (std::size_t j = 0; j < dim; ++j) {
    centroids[j] = dataset.point(first)[j];
  }
  for (std::size_t c = 1; c <= k; ++c) {
    // Refresh distances against the centroid chosen in the previous round.
    const double* last = centroids.data() + (c - 1) * dim;
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double dist =
          kernels::squared_distance(isa, dataset.point(i).data(), last, dim);
      d2[i] = std::min(d2[i], dist);
      total += d2[i];
    }
    if (c == k) break;
    double target = rng.uniform() * total;
    std::size_t pick = n - 1;
    for (std::size_t i = 0; i < n; ++i) {
      target -= d2[i];
      if (target <= 0.0) {
        pick = i;
        break;
      }
    }
    for (std::size_t j = 0; j < dim; ++j) {
      centroids[c * dim + j] = dataset.point(pick)[j];
    }
  }
  return centroids;
}

/// Assignment-phase cost: k distance evaluations per point (3 flops per
/// dimension each) over one stream of the local points.
void charge_assignment(mpi::Comm& comm, std::size_t local_points,
                       std::size_t k, std::size_t dim) {
  const double n = static_cast<double>(local_points);
  comm.sim_compute(n * static_cast<double>(k) * 3.0 *
                       static_cast<double>(dim),
                   n * static_cast<double>(dim) * sizeof(double));
}

/// Checkpoint blob for the elastic path: [next iteration | centroids].
/// Replicated on every rank, so any survivor's copy restores the run.
std::vector<std::byte> pack_state(std::uint64_t next_iter,
                                  std::span<const double> centroids) {
  std::vector<std::byte> blob(sizeof(next_iter) + centroids.size_bytes());
  std::memcpy(blob.data(), &next_iter, sizeof(next_iter));
  if (!centroids.empty()) {
    std::memcpy(blob.data() + sizeof(next_iter), centroids.data(),
                centroids.size_bytes());
  }
  return blob;
}

bool unpack_state(std::span<const std::byte> blob, std::uint64_t* next_iter,
                  std::vector<double>* centroids) {
  if (blob.size() < sizeof(*next_iter)) return false;
  std::memcpy(next_iter, blob.data(), sizeof(*next_iter));
  centroids->resize((blob.size() - sizeof(*next_iter)) / sizeof(double));
  if (!centroids->empty()) {
    std::memcpy(centroids->data(), blob.data() + sizeof(*next_iter),
                centroids->size() * sizeof(double));
  }
  return true;
}

/// The distributed Lloyd iteration, written once for both drivers.
/// distributed() and elastic() differ only in where the points live (a
/// static Scatterv block or an elastic container) and in how they recover,
/// so each driver hands step() its local rows, the Gatherv layout of one
/// entry per point (every rank's count and first global index) and the
/// rank holding the full dataset; the assign and update phases, and the
/// closing reductions, are the same code on both paths.
class Lloyd {
 public:
  Lloyd(const dataio::Dataset& dataset, const Config& config)
      : dataset_(dataset),
        config_(config),
        isa_(kernels::resolve(config.kernel)) {}

  /// Broadcasts the root's shape: sets `dim`, returns the point count.
  std::size_t bcast_shape(mpi::Comm& comm) {
    std::size_t shape[2] = {dataset_.size(), dataset_.dim()};
    comm.bcast(std::span<std::size_t>(shape, 2), 0);
    DIPDC_REQUIRE(config_.k > 0 && config_.k <= shape[0],
                  "need 1 <= k <= n");
    dim = shape[1];
    return shape[0];
  }

  /// Seeds the centroids on `root`, which holds the dataset, and
  /// broadcasts them.
  void bcast_initial_centroids(mpi::Comm& comm, int root) {
    centroids.assign(config_.k * dim, 0.0);
    if (comm.rank() == root) {
      centroids = initial_centroids(dataset_, config_, isa_);
    }
    comm.bcast(std::span<double>(centroids), root);
  }

  /// Nearest-centroid assignment of `points` (the fused dispatched
  /// assign+accumulate kernel); returns the per-centroid sums and counts
  /// packed as [k*dim sums | k counts].
  std::vector<double> assign(std::span<const double> points) {
    const std::size_t k = config_.k;
    assignment.resize(points.size() / dim);
    std::vector<double> sums(k * dim + k, 0.0);
    kernels::assign_points(isa_, points.data(), assignment.size(), dim,
                           centroids.data(), k, assignment.data(),
                           sums.data(), sums.data() + k * dim);
    return sums;
  }

  /// One iteration: assign the local points, then update the centroids
  /// with the configured strategy.  Returns the centroid movement, the
  /// same on every rank.
  double step(mpi::Comm& comm, std::span<const double> points,
              std::span<const std::size_t> counts,
              std::span<const std::size_t> displs, int data_root) {
    const std::size_t k = config_.k;
    comm.phase_begin("assign");
    const std::vector<double> local = assign(points);
    charge_assignment(comm, assignment.size(), k, dim);
    comm.phase_end();

    // Centroid update: the module's two communication options.
    comm.phase_begin("update");
    const double t_comm = comm.wtime();
    double movement = 0.0;
    if (config_.strategy == Strategy::kWeightedMeans) {
      std::vector<double> global_sums(k * dim, 0.0);
      std::vector<double> global_counts(k, 0.0);
      comm.allreduce(std::span<const double>(local.data(), k * dim),
                     std::span<double>(global_sums), mpi::ops::Sum{});
      comm.allreduce(std::span<const double>(local.data() + k * dim, k),
                     std::span<double>(global_counts), mpi::ops::Sum{});
      movement = kernels::update_centroids(isa_, centroids.data(),
                                           global_sums.data(),
                                           global_counts.data(), k, dim);
    } else {
      // Explicit assignments: gather every rank's assignment vector to the
      // data root, which owns the full dataset and recomputes the
      // centroids.
      if (data_root < 0) {
        throw mpi::RankFailedError(
            "module5 elastic: the dataset holder died; "
            "explicit-assignments cannot continue");
      }
      const bool root = comm.rank() == data_root;
      const std::size_t n = root ? dataset_.size() : 0;
      std::vector<std::size_t> all_assignments(n);
      comm.gatherv(std::span<const std::size_t>(assignment), counts, displs,
                   std::span<std::size_t>(all_assignments), data_root);
      if (root) {
        std::vector<double> root_sums(k * dim, 0.0);
        std::vector<double> root_counts(k, 0.0);
        for (std::size_t i = 0; i < n; ++i) {
          const std::size_t c = all_assignments[i];
          DIPDC_REQUIRE(c < k, "corrupt assignment index");
          for (std::size_t j = 0; j < dim; ++j) {
            root_sums[c * dim + j] += dataset_.point(i)[j];
          }
          root_counts[c] += 1.0;
        }
        movement = kernels::update_centroids(isa_, centroids.data(),
                                             root_sums.data(),
                                             root_counts.data(), k, dim);
      }
      comm.bcast(std::span<double>(centroids), data_root);
      movement = comm.bcast_value(movement, data_root);
    }
    comm.phase_end();
    comm_marks += comm.wtime() - t_comm;
    return movement;
  }

  /// Closing reductions: inertia of `points` against `assignment`, the
  /// slowest rank's span since `t0`, and the transport bytes sent since
  /// `transport_before`, summed over the ranks.
  void finish(mpi::Comm& comm, std::span<const double> points, double t0,
              std::uint64_t transport_before, Result& result) const {
    result.centroids = centroids;
    double local_inertia = 0.0;
    for (std::size_t i = 0; i < assignment.size(); ++i) {
      local_inertia += kernels::squared_distance(
          isa_, points.data() + i * dim,
          centroids.data() + assignment[i] * dim, dim);
    }
    result.inertia = comm.allreduce_value(local_inertia, mpi::ops::Sum{});

    const double my_total = comm.wtime() - t0;
    result.sim_time = comm.allreduce_value(my_total, mpi::ops::Max{});
    result.comm_time = comm_marks;
    result.compute_time = my_total - comm_marks;
    const std::uint64_t transport_delta =
        comm.stats().transport_bytes_sent - transport_before;
    result.comm_bytes = static_cast<std::uint64_t>(comm.allreduce_value(
        static_cast<long long>(transport_delta), mpi::ops::Sum{}));
  }

  std::size_t dim = 0;
  std::vector<double> centroids;        // k x dim, replicated on every rank
  std::vector<std::size_t> assignment;  // nearest centroid per local point
  double comm_marks = 0.0;              // accumulated communication time

 private:
  const dataio::Dataset& dataset_;
  const Config& config_;
  kernels::Isa isa_;
};

}  // namespace

Result lloyd_sequential(const dataio::Dataset& dataset, const Config& config) {
  const std::size_t n = dataset.size();
  const std::size_t dim = dataset.dim();
  const std::size_t k = config.k;
  DIPDC_REQUIRE(k > 0 && k <= n, "need 1 <= k <= n");
  const kernels::Isa isa = kernels::resolve(config.kernel);

  Result result;
  result.centroids = initial_centroids(dataset, config, isa);
  std::vector<std::size_t> assignment(n, 0);

  for (int iter = 0; iter < config.max_iterations; ++iter) {
    std::vector<double> sums(k * dim, 0.0);
    std::vector<double> counts(k, 0.0);
    kernels::assign_points(isa, dataset.values().data(), n, dim,
                           result.centroids.data(), k, assignment.data(),
                           sums.data(), counts.data());
    const double movement = kernels::update_centroids(
        isa, result.centroids.data(), sums.data(), counts.data(), k, dim);
    result.iterations = iter + 1;
    if (movement <= config.tolerance) {
      result.converged = true;
      break;
    }
  }

  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t c = assignment[i];
    result.inertia += kernels::squared_distance(
        isa, dataset.point(i).data(), result.centroids.data() + c * dim,
        dim);
  }
  return result;
}

Result distributed(mpi::Comm& comm, const dataio::Dataset& dataset,
                   const Config& config) {
  const auto np = static_cast<std::size_t>(comm.size());
  Lloyd lloyd(dataset, config);

  const double t0 = comm.wtime();

  // Distribute the data: shape, row blocks, initial centroids.
  comm.phase_begin("distribute");
  const std::size_t n = lloyd.bcast_shape(comm);
  const std::size_t dim = lloyd.dim;
  // One block layout in two units: doubles for the Scatterv of the rows,
  // points for the explicit strategy's Gatherv of the assignments.
  const auto parts = dataio::block_partition(n, np);
  std::vector<std::size_t> counts(np), displs(np), elems(np), elem_displs(np);
  for (std::size_t i = 0; i < np; ++i) {
    counts[i] = parts[i].second - parts[i].first;
    displs[i] = parts[i].first;
    elems[i] = counts[i] * dim;
    elem_displs[i] = displs[i] * dim;
  }
  std::vector<double> local(elems[static_cast<std::size_t>(comm.rank())]);
  comm.scatterv(dataset.values(), std::span<const std::size_t>(elems),
                std::span<const std::size_t>(elem_displs),
                std::span<double>(local), 0);
  lloyd.bcast_initial_centroids(comm, 0);
  comm.phase_end();
  lloyd.comm_marks += comm.wtime() - t0;

  // Byte accounting starts after the one-time data distribution, so
  // comm_bytes isolates the per-iteration cost the two strategies differ
  // in (the module's communication-volume comparison).
  const std::uint64_t transport_before = comm.stats().transport_bytes_sent;

  Result result;
  for (int iter = 0; iter < config.max_iterations; ++iter) {
    const double movement = lloyd.step(comm, local, counts, displs, 0);
    result.iterations = iter + 1;
    if (movement <= config.tolerance) {
      result.converged = true;
      break;
    }
  }

  // Inertia over the last assignment.
  lloyd.finish(comm, local, t0, transport_before, result);
  return result;
}

Result elastic(mpi::Comm& world, const dataio::Dataset& dataset,
               const Config& config, const ElasticConfig& elastic) {
  namespace box = dipdc::container;
  mpi::Comm* comm = &world;
  // Shrunken communicators must outlive the container (it keeps a pointer
  // to the communicator it was recovered onto).
  std::deque<mpi::Comm> shrunk;
  // World rank of the dataset holder — stable across shrink renumbering.
  const int data_world = world.world_group()[0];
  // New-comm rank of the dataset holder, or -1 when it died.
  const auto data_root_on = [&](mpi::Comm& c) {
    const std::vector<int> group = c.world_group();
    for (std::size_t i = 0; i < group.size(); ++i) {
      if (group[i] == data_world) return static_cast<int>(i);
    }
    return -1;
  };
  Lloyd lloyd(dataset, config);

  const double t0 = world.wtime();
  std::uint64_t transport_before = world.stats().transport_bytes_sent;

  std::optional<box::Container<double>> pts;
  std::uint64_t start_iter = 0;
  std::vector<std::size_t> prev_assignment;
  Result result;

  for (;;) {
    try {
      if (!pts) {
        comm->phase_begin("distribute");
        const double t_comm = comm->wtime();
        const std::size_t n = lloyd.bcast_shape(*comm);
        std::vector<double> source;
        if (comm->rank() == 0) {
          source.assign(dataset.values().begin(), dataset.values().end());
        }
        pts.emplace(box::Container<double>::scatter(*comm, std::move(source),
                                                    n, lloyd.dim));
        lloyd.bcast_initial_centroids(*comm, 0);
        comm->phase_end();
        lloyd.comm_marks += comm->wtime() - t_comm;
        pts->checkpoint(pack_state(0, lloyd.centroids));
        start_iter = 0;
        // Byte accounting starts after the one-time distribution, matching
        // distributed(); recovery traffic after a kill does count.
        transport_before = comm->stats().transport_bytes_sent;
      }

      std::vector<double> churn;  // one buffer, refilled every iteration
      for (std::uint64_t iter = start_iter;
           iter < static_cast<std::uint64_t>(config.max_iterations); ++iter) {
        const box::Partitioning& part = pts->partitioning();
        const int p = comm->size();
        std::vector<std::size_t> counts(static_cast<std::size_t>(p));
        std::vector<std::size_t> displs(static_cast<std::size_t>(p));
        for (int i = 0; i < p; ++i) {
          counts[static_cast<std::size_t>(i)] = part.count(i);
          displs[static_cast<std::size_t>(i)] = part.begin(i);
        }
        // Reads go through the const view: the points never change here,
        // so the checkpoints below keep them off the wire.
        const double movement =
            lloyd.step(*comm, std::as_const(*pts).local(), counts, displs,
                       data_root_on(*comm));
        result.iterations = static_cast<int>(iter) + 1;

        // Churn weights feed the next rebalance AND the checkpoint, so a
        // post-failure re-cut balances by the same measure.
        const std::vector<std::size_t>& assignment = lloyd.assignment;
        const std::size_t my_n = assignment.size();
        churn.assign(my_n, 2.0);
        if (prev_assignment.size() == my_n) {
          for (std::size_t i = 0; i < my_n; ++i) {
            churn[i] = assignment[i] != prev_assignment[i] ? 2.0 : 1.0;
          }
        }
        pts->set_weights(churn);
        pts->checkpoint(pack_state(iter + 1, lloyd.centroids));

        if (movement <= config.tolerance) {
          result.converged = true;
          break;
        }
        if (elastic.repartition &&
            pts->rebalance(elastic.imbalance_threshold)) {
          prev_assignment.clear();  // points moved; churn restarts
        } else {
          prev_assignment = assignment;
        }
      }
      break;
    } catch (const mpi::RankFailedError&) {
      if (comm->failed_rank() == comm->world_rank()) throw;  // I am the corpse
      shrunk.push_back(comm->shrink());
      comm = &shrunk.back();
      prev_assignment.clear();
      // A kill during the distribution can strand slower survivors inside
      // the scatter constructor, so the survivors may disagree on whether
      // the container exists at all.  Agree first: if any rank missed the
      // construction, everyone discards it and redistributes from the
      // dataset holder instead of touching the container's collectives.
      const bool everyone_has_it =
          comm->allreduce_value(pts ? 1 : 0, mpi::ops::Min{}) == 1;
      if (!everyone_has_it) {
        if (data_root_on(*comm) != 0) {
          throw mpi::RankFailedError(
              "module5 elastic: the dataset holder died; "
              "cannot redistribute the points");
        }
        pts.reset();
        continue;
      }
      const std::vector<std::byte> blob = pts->recover(*comm);
      std::uint64_t next_iter = 0;
      if (unpack_state(blob, &next_iter, &lloyd.centroids) &&
          lloyd.centroids.size() == config.k * lloyd.dim) {
        start_iter = next_iter;
      } else {
        // Rebuilt from the source: iteration state restarts from scratch.
        const int data_root = data_root_on(*comm);
        DIPDC_REQUIRE(data_root >= 0,
                      "module5 elastic: source rebuild without the holder");
        lloyd.bcast_initial_centroids(*comm, data_root);
        start_iter = 0;
      }
    }
  }

  // Inertia: recompute the assignment against the final centroids — the
  // last stored one may predate a rebalance.
  lloyd.assign(std::as_const(*pts).local());
  lloyd.finish(*comm, std::as_const(*pts).local(), t0, transport_before,
               result);
  return result;
}

}  // namespace dipdc::modules::kmeans
