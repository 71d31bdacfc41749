#include "modules/stencil/module6.hpp"

#include <algorithm>

#include "dataio/dataset.hpp"
#include "minimpi/ops.hpp"
#include "support/error.hpp"

namespace dipdc::modules::stencil {

namespace mpi = minimpi;

double initial_value(std::size_t i) {
  // A deterministic, bounded, non-smooth field (hash-based) so that every
  // cell matters in the checksum.
  std::uint64_t z = (static_cast<std::uint64_t>(i) + 1) * 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z ^= z >> 31;
  return static_cast<double>(z % 10000) / 10000.0;
}

namespace {

/// Jacobi update of cells [lo, hi) of `cur` into `nxt`.
void relax(const std::vector<double>& cur, std::vector<double>& nxt,
           std::size_t lo, std::size_t hi, double alpha) {
  for (std::size_t i = lo; i < hi; ++i) {
    nxt[i] = cur[i] + alpha * (cur[i - 1] - 2.0 * cur[i] + cur[i + 1]);
  }
}

/// One Jacobi sweep over cells [lo, hi) of `cur` into `nxt`; cells outside
/// the range keep their current values.
void sweep(const std::vector<double>& cur, std::vector<double>& nxt,
           std::size_t lo, std::size_t hi, double alpha) {
  std::copy(cur.begin(), cur.end(), nxt.begin());
  relax(cur, nxt, lo, hi, alpha);
}

void validate(const Config& config) {
  DIPDC_REQUIRE(config.global_cells > 0, "need at least one cell");
  DIPDC_REQUIRE(config.iterations > 0, "need at least one iteration");
  DIPDC_REQUIRE(config.halo_width >= 1, "halo width must be positive");
  DIPDC_REQUIRE(config.iterations % config.halo_width == 0,
                "iterations must be a multiple of the halo width");
  DIPDC_REQUIRE(config.alpha > 0.0 && config.alpha <= 0.5,
                "diffusion coefficient must be in (0, 0.5] for stability");
  DIPDC_REQUIRE(
      config.exchange == Exchange::kBlocking || config.halo_width == 1,
      "the overlapped exchange is implemented for halo width 1 "
      "(deep halos and overlap are separate optimizations in this module)");
}

}  // namespace

std::vector<double> run_sequential(const Config& config) {
  validate(config);
  const std::size_t n = config.global_cells;
  // One ghost cell on each side holding the Dirichlet boundary (0).
  std::vector<double> cur(n + 2, 0.0), nxt(n + 2, 0.0);
  for (std::size_t i = 0; i < n; ++i) cur[i + 1] = initial_value(i);
  for (int it = 0; it < config.iterations; ++it) {
    sweep(cur, nxt, 1, n + 1, config.alpha);
    std::swap(cur, nxt);
  }
  return {cur.begin() + 1, cur.end() - 1};
}

Result run_distributed(mpi::Comm& comm, const Config& config) {
  validate(config);
  const int p = comm.size();
  const int r = comm.rank();
  const auto w = static_cast<std::size_t>(config.halo_width);

  DIPDC_REQUIRE(config.global_cells >=
                    static_cast<std::size_t>(p) * w,
                "every rank needs at least halo_width cells");
  const auto parts =
      dataio::block_partition(config.global_cells, static_cast<std::size_t>(p));
  const auto [begin, end] = parts[static_cast<std::size_t>(r)];
  const std::size_t len = end - begin;
  const std::size_t L = len + 2 * w;
  const bool leftmost = r == 0;
  const bool rightmost = r == p - 1;

  std::vector<double> cur(L, 0.0), nxt(L, 0.0);
  for (std::size_t i = 0; i < len; ++i) {
    cur[w + i] = initial_value(begin + i);
  }

  Result result;
  const double t0 = comm.wtime();
  double comm_marks = 0.0;

  const int rounds = config.iterations / config.halo_width;
  for (int round = 0; round < rounds; ++round) {
    const double tc = comm.wtime();
    if (config.exchange == Exchange::kBlocking) {
      // "Blocking" here means the exchange completes in full before any
      // computation (no overlap); the sends themselves are non-blocking so
      // the exchange cannot deadlock under the rendezvous protocol.
      comm.phase_begin("halo_exchange");
      std::vector<mpi::Request> sreqs;
      if (!rightmost) {
        sreqs.push_back(comm.isend(
            std::span<const double>(cur.data() + len, w), r + 1, 60));
        ++result.halo_messages;
      }
      if (!leftmost) {
        sreqs.push_back(comm.isend(
            std::span<const double>(cur.data() + w, w), r - 1, 61));
        ++result.halo_messages;
      }
      if (!leftmost) {
        comm.recv(std::span<double>(cur.data(), w), r - 1, 60);
      }
      if (!rightmost) {
        comm.recv(std::span<double>(cur.data() + w + len, w), r + 1, 61);
      }
      comm.wait_all(std::span<mpi::Request>(sreqs));
      comm.phase_end();
      comm_marks += comm.wtime() - tc;

      // w sweeps; the valid region shrinks inward from non-boundary edges.
      comm.phase_begin("sweep");
      for (std::size_t s = 1; s <= w; ++s) {
        const std::size_t lo = leftmost ? w : s;
        const std::size_t hi = rightmost ? L - w : L - s;
        if (lo < hi) sweep(cur, nxt, lo, hi, config.alpha);
        else std::copy(cur.begin(), cur.end(), nxt.begin());
        comm.sim_compute(4.0 * static_cast<double>(hi > lo ? hi - lo : 0),
                         16.0 * static_cast<double>(L));
        std::swap(cur, nxt);
      }
      comm.phase_end();
    } else {
      // Overlapped (w == 1): post the halo transfers, compute the
      // interior while they fly, then finish the two boundary cells.
      comm.phase_begin("overlap_round");
      std::vector<mpi::Request> reqs;
      if (!leftmost) {
        reqs.push_back(comm.irecv(std::span<double>(cur.data(), 1), r - 1,
                                  60));
        reqs.push_back(comm.isend(
            std::span<const double>(cur.data() + 1, 1), r - 1, 61));
        ++result.halo_messages;
      }
      if (!rightmost) {
        reqs.push_back(comm.irecv(
            std::span<double>(cur.data() + 1 + len, 1), r + 1, 61));
        reqs.push_back(comm.isend(
            std::span<const double>(cur.data() + len, 1), r + 1, 60));
        ++result.halo_messages;
      }
      comm_marks += comm.wtime() - tc;

      // Interior cells need no halo data.  Only the owned cells are
      // copied: the ghost cells' receives are still posted, and a ghost of
      // `nxt` is never read before the next round's receive overwrites it
      // (or, on an outer edge, it keeps the Dirichlet 0 it started with).
      std::copy_n(cur.begin() + 1, len, nxt.begin() + 1);
      if (len >= 2) {
        relax(cur, nxt, 2, len, config.alpha);
        comm.sim_compute(4.0 * static_cast<double>(len - 2),
                         16.0 * static_cast<double>(L));
      }

      const double tw = comm.wtime();
      comm.wait_all(std::span<mpi::Request>(reqs));
      comm_marks += comm.wtime() - tw;

      // Boundary cells, now that the ghosts arrived.
      if (len >= 1) {
        const std::size_t first = 1, last = len;
        nxt[first] = cur[first] + config.alpha * (cur[first - 1] -
                                                  2.0 * cur[first] +
                                                  cur[first + 1]);
        if (last != first) {
          nxt[last] = cur[last] + config.alpha * (cur[last - 1] -
                                                  2.0 * cur[last] +
                                                  cur[last + 1]);
        }
        comm.sim_compute(8.0, 64.0);
      }
      std::swap(cur, nxt);
      comm.phase_end();
    }
  }

  double local_sum = 0.0;
  for (std::size_t i = 0; i < len; ++i) local_sum += cur[w + i];
  double checksum = 0.0;
  comm.reduce(std::span<const double>(&local_sum, 1),
              std::span<double>(&checksum, 1), mpi::ops::Sum{}, 0);
  result.checksum = comm.bcast_value(checksum, 0);

  const double my_total = comm.wtime() - t0;
  double slowest = 0.0;
  comm.reduce(std::span<const double>(&my_total, 1),
              std::span<double>(&slowest, 1), mpi::ops::Max{}, 0);
  result.sim_time = comm.bcast_value(slowest, 0);
  result.comm_time = comm_marks;
  result.compute_time = my_total - comm_marks;
  return result;
}

}  // namespace dipdc::modules::stencil
