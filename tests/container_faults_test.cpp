// Shrink-on-failure scenario matrix: kill rank R at its Nth primitive call
// and assert the survivors finish with correct results, for an R x N grid
// over the elastic modules 3 (bucket sort, bit-exact) and 5 (k-means,
// tolerance-correct) and for the container itself, on every transport
// backend.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "container/container.hpp"
#include "dataio/dataset.hpp"
#include "minimpi/comm.hpp"
#include "minimpi/error.hpp"
#include "minimpi/ops.hpp"
#include "minimpi/runtime.hpp"
#include "modules/kmeans/module5.hpp"
#include "modules/sort/module3.hpp"
#include "run_forced.hpp"

namespace mpi = dipdc::minimpi;
namespace io = dipdc::dataio;
namespace m3 = dipdc::modules::distsort;
namespace m5 = dipdc::modules::kmeans;
using dipdc::container::Container;
using dipdc::container::Partitioning;
using dipdc::testing::all_backends;
using dipdc::testing::forced;

namespace {

mpi::RuntimeOptions kill_plan(mpi::BackendKind kind, int rank,
                              std::uint64_t at_call) {
  mpi::RuntimeOptions opts = forced(kind);
  opts.faults.kill_rank = rank;
  opts.faults.kill_at_call = at_call;
  return opts;
}

std::string label(mpi::BackendKind kind, int rank, std::uint64_t at_call) {
  return std::string(mpi::to_string(kind)) + " kill=" +
         std::to_string(rank) + "@" + std::to_string(at_call);
}

std::uint64_t element_value(std::size_t global_index) {
  return 0x9e3779b97f4a7c15ULL * (global_index + 1) ^ 0xabcdef;
}

/// Deterministic exponential-ish skewed keys in [0, 1): most mass near 0,
/// so equal-width buckets are heavily imbalanced — module 3's activity 2.
std::vector<double> skewed_keys(int rank, std::size_t count) {
  std::vector<double> keys(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t h =
        (static_cast<std::uint64_t>(rank) * 1000003 + i + 1) * 2654435761ULL;
    const double u =
        static_cast<double>(h % 1000003) / 1000003.0;  // uniform-ish
    keys[i] = 1.0 - std::exp(-3.0 * u);  // skewed towards 0... and < 1
  }
  return keys;
}

}  // namespace

// ---- Container-level scenarios ---------------------------------------------

// The test program: a checkpointed repartition loop.  Every checkpoint
// here follows a data move, so each one sends the layout too: sendrecv,
// two irecvs, two sends, two waits.  Per rank the call sequence is:
// checkpoint (calls 1-7), then per round allgatherv (8) + allreduce (9) +
// 2 alltoallv (10-11) + checkpoint (12-18), and so on.  9 and 20 kill
// after the dead rank has completed a full-participation collective that
// follows a checkpoint — the point at which every rank provably finished
// that checkpoint, so recovery is deterministic: 9 restores generation 0
// and 20 generation 1.  16 dies at generation 1's state send, after its
// layout went out, and falls back to 0.  6 (the dead rank's first wait,
// after both of its sends), 11 (an alltoallv) and 14 (generation 1's state
// irecv) land in between.  In every case the survivors shrink and the
// global array is intact bit-for-bit.
TEST(ContainerFaults, SurvivorsRecoverCheckpointedDataAfterAKill) {
  const std::size_t total = 60;
  std::vector<std::uint64_t> expected(total);
  for (std::size_t g = 0; g < total; ++g) expected[g] = element_value(g);

  for (const int kill_rank : {1, 2, 3}) {
    for (const std::uint64_t at_call :
         {6ULL, 9ULL, 11ULL, 14ULL, 16ULL, 20ULL}) {
      bool recovered_somewhere = false;
      mpi::run(
          4,
          [&](mpi::Comm& comm) {
            const Partitioning block =
                Partitioning::block(total, comm.size());
            std::vector<std::uint64_t> slab(block.count(comm.rank()));
            for (std::size_t i = 0; i < slab.size(); ++i) {
              slab[i] = element_value(block.begin(comm.rank()) + i);
            }
            Container<std::uint64_t> c =
                Container<std::uint64_t>::from_local(comm, total, 1, slab);
            mpi::Comm* cur = &comm;
            std::optional<mpi::Comm> shrunk;
            try {
              c.checkpoint({});
              for (int round = 0; round < 4; ++round) {
                std::vector<double> w(c.count());
                for (std::size_t i = 0; i < w.size(); ++i) {
                  w[i] = 1.0 + static_cast<double>(
                                   (c.global_begin() + i +
                                    static_cast<std::size_t>(7 * round)) %
                                   13);
                }
                c.set_weights(w);
                c.repartition();
                c.checkpoint({});
              }
            } catch (const mpi::RankFailedError&) {
              if (cur->failed_rank() == cur->world_rank()) throw;
              shrunk.emplace(cur->shrink());
              cur = &*shrunk;
              (void)c.recover(*cur);
              if (cur->rank() == 0) recovered_somewhere = true;
            }
            // Whether or not the kill fired before completion, the global
            // array must be intact on whatever communicator we ended on.
            const Partitioning& part = c.partitioning();
            const int p = cur->size();
            std::vector<std::size_t> counts(static_cast<std::size_t>(p));
            std::vector<std::size_t> displs(static_cast<std::size_t>(p));
            for (int r = 0; r < p; ++r) {
              counts[static_cast<std::size_t>(r)] = part.count(r);
              displs[static_cast<std::size_t>(r)] = part.begin(r);
            }
            std::vector<std::uint64_t> global(part.total());
            cur->allgatherv(std::span<const std::uint64_t>(c.local()),
                            counts, displs,
                            std::span<std::uint64_t>(global));
            EXPECT_EQ(global, expected)
                << label(mpi::BackendKind::kThreads, kill_rank, at_call);
          },
          kill_plan(mpi::BackendKind::kThreads, kill_rank, at_call));
      EXPECT_TRUE(recovered_somewhere)
          << "kill=" << kill_rank << "@" << at_call
          << " never triggered a recovery";
    }
  }
}

TEST(ContainerFaults, UnrecoverableWhenTheFirstCheckpointNeverCompleted) {
  // Rank 1 dies at its very first call — inside the generation-0 buddy
  // exchange — so no consistent generation exists and from_local has no
  // source to fall back to: recover() must throw on the survivors (and the
  // run must surface it, not swallow it).
  EXPECT_THROW(
      mpi::run(
          4,
          [&](mpi::Comm& comm) {
            const std::size_t total = 40;
            const Partitioning block =
                Partitioning::block(total, comm.size());
            std::vector<std::uint64_t> slab(block.count(comm.rank()), 7);
            Container<std::uint64_t> c =
                Container<std::uint64_t>::from_local(comm, total, 1, slab);
            std::optional<mpi::Comm> shrunk;
            try {
              c.checkpoint({});
              c.repartition();
            } catch (const mpi::RankFailedError&) {
              if (comm.failed_rank() == comm.world_rank()) throw;
              shrunk.emplace(comm.shrink());
              (void)c.recover(*shrunk);  // throws: nothing to restore
            }
          },
          kill_plan(mpi::BackendKind::kThreads, 1, 1)),
      mpi::RankFailedError);
}

TEST(ContainerFaults, RecoveredArrayIsIdenticalOnEveryBackend) {
  const std::size_t total = 48;
  auto run_one = [&](mpi::BackendKind kind) {
    std::vector<std::uint64_t> at_survivor_root;
    mpi::run(
        4,
        [&](mpi::Comm& comm) {
          const Partitioning block = Partitioning::block(total, comm.size());
          std::vector<std::uint64_t> slab(block.count(comm.rank()));
          for (std::size_t i = 0; i < slab.size(); ++i) {
            slab[i] = element_value(block.begin(comm.rank()) + i);
          }
          Container<std::uint64_t> c =
              Container<std::uint64_t>::from_local(comm, total, 1, slab);
          mpi::Comm* cur = &comm;
          std::optional<mpi::Comm> shrunk;
          try {
            c.checkpoint({});
            for (int round = 0; round < 3; ++round) {
              std::vector<double> w(c.count(), 1.0 + comm.rank());
              c.set_weights(w);
              c.repartition();
              c.checkpoint({});
            }
          } catch (const mpi::RankFailedError&) {
            if (cur->failed_rank() == cur->world_rank()) throw;
            shrunk.emplace(cur->shrink());
            cur = &*shrunk;
            (void)c.recover(*cur);
          }
          const Partitioning& part = c.partitioning();
          const int p = cur->size();
          std::vector<std::size_t> counts(static_cast<std::size_t>(p));
          std::vector<std::size_t> displs(static_cast<std::size_t>(p));
          for (int r = 0; r < p; ++r) {
            counts[static_cast<std::size_t>(r)] = part.count(r);
            displs[static_cast<std::size_t>(r)] = part.begin(r);
          }
          std::vector<std::uint64_t> global(part.total());
          cur->allgatherv(std::span<const std::uint64_t>(c.local()), counts,
                          displs, std::span<std::uint64_t>(global));
          if (cur->world_rank() == 0) at_survivor_root = global;
        },
        kill_plan(kind, 2, 7));
    return at_survivor_root;
  };

  const std::vector<std::uint64_t> reference =
      run_one(mpi::BackendKind::kThreads);
  ASSERT_FALSE(reference.empty());
  for (const mpi::BackendKind kind : dipdc::testing::other_backends()) {
    EXPECT_EQ(run_one(kind), reference) << mpi::to_string(kind);
  }
}

// ---- Delta checkpoints -------------------------------------------------------

// A checkpoint sequence that takes every layout decision: generation 0
// sends the layout, 1 sends only the state, 2 follows a repartition, 3
// follows a write through the mutable local(), and 4 again sends only the
// state.  Each generation's blob is its number, so a survivor knows which
// generation recovery restored and can check it bit for bit.
constexpr std::size_t kDeltaTotal = 45;
constexpr std::size_t kDeltaStride = 2;

std::uint64_t delta_value(std::size_t v, std::uint64_t gen) {
  return element_value(v) + (gen >= 3 ? 0x5bd1e995ULL : 0);
}

double delta_weight(std::size_t g, std::uint64_t gen) {
  // A ramp in generation 2 moves every interior cut of the repartition.
  if (gen == 2) return 1.0 + static_cast<double>(g);
  return 1.0 + static_cast<double>((g * 7 + gen * 3) % 11);
}

Container<std::uint64_t> delta_container(mpi::Comm& comm) {
  const Partitioning block = Partitioning::block(kDeltaTotal, comm.size());
  std::vector<std::uint64_t> slab(block.count(comm.rank()) * kDeltaStride);
  for (std::size_t i = 0; i < slab.size(); ++i) {
    slab[i] = delta_value(block.begin(comm.rank()) * kDeltaStride + i, 0);
  }
  return Container<std::uint64_t>::from_local(comm, kDeltaTotal,
                                              kDeltaStride, slab);
}

void delta_checkpoint(Container<std::uint64_t>& c, std::uint64_t gen) {
  std::vector<double> w(c.count());
  for (std::size_t i = 0; i < w.size(); ++i) {
    w[i] = delta_weight(c.global_begin() + i, gen);
  }
  c.set_weights(w);
  if (gen == 2) c.repartition();
  if (gen == 3) {
    std::vector<std::uint64_t>& slab = c.local();
    for (std::size_t i = 0; i < slab.size(); ++i) {
      slab[i] = delta_value(c.global_begin() * kDeltaStride + i, gen);
    }
  }
  c.checkpoint(std::as_bytes(std::span<const std::uint64_t>(&gen, 1)));
}

/// The global array (or the weights, stride 1) gathered in cut order.
template <typename T>
std::vector<T> gather_in_order(mpi::Comm& comm, const Partitioning& part,
                               std::span<const T> local, std::size_t stride) {
  const int p = comm.size();
  std::vector<std::size_t> counts(static_cast<std::size_t>(p));
  std::vector<std::size_t> displs(static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) {
    counts[static_cast<std::size_t>(r)] = part.count(r) * stride;
    displs[static_cast<std::size_t>(r)] = part.begin(r) * stride;
  }
  std::vector<T> global(part.total() * stride);
  comm.allgatherv(local, counts, displs, std::span<T>(global));
  return global;
}

// Kills every rank at every one of its primitive calls through the
// sequence, on every backend.  The first checkpoint is calls 1-7
// (sendrecv, the layout and state irecvs, the two sends, the two waits),
// so a kill there may leave no consistent generation (from_local keeps no
// source to fall back to); every later kill must restore some generation
// bit for bit, data and weights alike — among them kills at the state
// send of a checkpoint whose layout was already sent.  The first
// checkpoint after recovery must send the layout to the new buddy, and
// the next one only the state.
TEST(ContainerFaults, DeltaCheckpointsRecoverBitExactAtEveryKillPoint) {
  const int p = 4;
  constexpr std::uint64_t kFirstCheckpointCalls = 7;
  auto program = [](mpi::Comm& comm, Container<std::uint64_t>& c) {
    for (std::uint64_t gen = 0; gen < 5; ++gen) delta_checkpoint(c, gen);
    (void)comm.allreduce_value(1, mpi::ops::Sum{});
  };
  // Every rank makes the same calls; the last one is the allreduce.
  const auto [calls, moves] =
      dipdc::testing::run_forced(p, {}, [&](mpi::Comm& comm) {
        Container<std::uint64_t> c = delta_container(comm);
        program(comm, c);
        std::uint64_t n = 0;
        for (const std::uint64_t k : comm.stats().calls) n += k;
        return std::make_pair(n, c.stats().repartitions);
      });
  ASSERT_EQ(moves, 1u);

  constexpr std::uint64_t kHeader = 6 * sizeof(std::uint64_t);
  for (const mpi::BackendKind kind : all_backends()) {
    for (int victim = 0; victim < p; ++victim) {
      for (std::uint64_t at_call = 1; at_call <= calls; ++at_call) {
        const std::string tag = label(kind, victim, at_call);
        std::int64_t restored = -1;
        try {
          mpi::run(
              p,
              [&](mpi::Comm& comm) {
                Container<std::uint64_t> c = delta_container(comm);
                std::optional<mpi::Comm> shrunk;
                std::vector<std::byte> blob;
                try {
                  program(comm, c);
                } catch (const mpi::RankFailedError&) {
                  if (comm.failed_rank() == comm.world_rank()) throw;
                  shrunk.emplace(comm.shrink());
                  blob = c.recover(*shrunk);
                }
                ASSERT_TRUE(shrunk.has_value()) << tag;
                mpi::Comm& cur = *shrunk;
                ASSERT_EQ(blob.size(), sizeof(std::uint64_t)) << tag;
                std::uint64_t gen = 0;
                std::memcpy(&gen, blob.data(), sizeof(gen));
                ASSERT_LT(gen, 5u) << tag;
                const std::vector<std::uint64_t> data = gather_in_order(
                    cur, c.partitioning(),
                    std::span<const std::uint64_t>(std::as_const(c).local()),
                    kDeltaStride);
                const std::vector<double> weights = gather_in_order(
                    cur, c.partitioning(),
                    std::span<const double>(c.weights()), 1);
                for (std::size_t v = 0; v < data.size(); ++v) {
                  ASSERT_EQ(data[v], delta_value(v, gen))
                      << tag << " gen " << gen << " value " << v;
                }
                for (std::size_t g = 0; g < weights.size(); ++g) {
                  ASSERT_EQ(weights[g], delta_weight(g, gen))
                      << tag << " gen " << gen << " element " << g;
                }
                auto checkpoint_bytes = [&] {
                  const std::uint64_t before =
                      cur.stats().transport_bytes_sent;
                  c.checkpoint({});
                  return cur.stats().transport_bytes_sent - before;
                };
                const std::uint64_t state = c.count() * sizeof(double);
                const std::uint64_t layout =
                    (static_cast<std::uint64_t>(cur.size()) + 1) *
                        sizeof(std::size_t) +
                    c.count() * kDeltaStride * sizeof(std::uint64_t);
                EXPECT_EQ(checkpoint_bytes(), kHeader + layout + state)
                    << tag;
                cur.barrier();
                EXPECT_EQ(checkpoint_bytes(), kHeader + state) << tag;
                if (cur.rank() == 0) restored = static_cast<std::int64_t>(gen);
              },
              kill_plan(kind, victim, at_call));
        } catch (const mpi::RankFailedError& e) {
          EXPECT_LE(at_call, kFirstCheckpointCalls) << tag << ": " << e.what();
          continue;
        }
        EXPECT_GE(restored, 0) << tag;
        if (at_call == calls) {
          EXPECT_EQ(restored, 4) << tag;
        }
      }
    }
  }
}

// ---- Module 3: elastic bucket sort -----------------------------------------

// Per non-root rank the call sequence is: from_counts allgather (1),
// generation-0 checkpoint with its layout (2-8), splitter bcast (9),
// alltoall (10), alltoallv (11), verification reduce/bcast pairs (12-23),
// adopt allgather (24), then the rebalance collectives.  12, 17 and 24
// land after the dead rank completed a full-participation collective past
// the checkpoint (the alltoall at 10), so generation 0 is provably
// ring-complete: 12 dies in the verification, 17 in the boundary check,
// 24 at the adoption.  9 and 14 die in the splitter bcast and the
// verification with the dead rank's whole checkpoint already sent.
TEST(ContainerFaults, Module3KillGridMatchesTheNoFaultSort) {
  const std::size_t per_rank = 160;
  m3::Config cfg;
  cfg.policy = m3::SplitterPolicy::kHistogram;
  m3::ElasticConfig ecfg;

  auto run_one = [&](const mpi::RuntimeOptions& opts,
                     m3::Result* result_out) {
    std::vector<double> at_root;
    mpi::run(
        4,
        [&](mpi::Comm& comm) {
          std::vector<double> sorted;
          const m3::Result r = m3::elastic_bucket_sort(
              comm, skewed_keys(comm.rank(), per_rank), cfg, ecfg, &sorted);
          if (comm.world_rank() == 0) {
            at_root = std::move(sorted);
            if (result_out != nullptr) *result_out = r;
          }
        },
        opts);
    return at_root;
  };

  m3::Result no_fault_result;
  const std::vector<double> reference = run_one({}, &no_fault_result);
  ASSERT_EQ(reference.size(), per_rank * 4);
  ASSERT_TRUE(no_fault_result.globally_sorted);
  ASSERT_TRUE(std::is_sorted(reference.begin(), reference.end()));

  for (const mpi::BackendKind kind : all_backends()) {
    for (const int kill_rank : {1, 2, 3}) {
      for (const std::uint64_t at_call :
           {9ULL, 12ULL, 14ULL, 17ULL, 21ULL, 24ULL}) {
        m3::Result result;
        const std::vector<double> sorted =
            run_one(kill_plan(kind, kill_rank, at_call), &result);
        // Bit-exact: the survivors re-sort the same multiset.
        EXPECT_EQ(sorted, reference) << label(kind, kill_rank, at_call);
        EXPECT_TRUE(result.globally_sorted)
            << label(kind, kill_rank, at_call);
      }
    }
  }
}

// ---- Module 5: elastic k-means ----------------------------------------------

// Non-root rank calls: shape bcast (1), scatterv (2), centroids bcast (3),
// generation-0 checkpoint with the points' layout (4-10: sendrecv, two
// irecvs, two sends, two waits), then per iteration two allreduces
// (11-12), a checkpoint of the state alone (13-16: the points never move,
// so the buddy already holds them) and the rebalance's part-sum allgather
// (17; the churn weights stay under the threshold, so that one collective
// is the whole no-op rebalance).  Kill at call 3 dies inside the data
// distribution (the acceptance scenario: recovery rebuilds from the
// root-retained source, or redistributes when a survivor was stranded
// inside the scatter); 8 dies at generation 0's state send, after its
// layout went out (restores generation 0 or falls back to the source,
// depending on how far the survivors got — both converge to the same
// centroids); 15 dies at generation 1's state send and falls back to
// generation 0.
TEST(ContainerFaults, Module5KillGridMatchesTheNoFaultCentroids) {
  const auto d = io::generate_clusters(600, 2, 3, 0.3, 0.0, 30.0, 29);
  m5::Config cfg;
  cfg.k = 3;
  m5::ElasticConfig ecfg;

  auto run_one = [&](const mpi::RuntimeOptions& opts) {
    m5::Result at_root{};
    mpi::run(
        4,
        [&](mpi::Comm& comm) {
          const m5::Result r = m5::elastic(
              comm, comm.rank() == 0 ? d.data : io::Dataset{}, cfg, ecfg);
          if (comm.world_rank() == 0) at_root = r;
        },
        opts);
    return at_root;
  };

  const m5::Result reference = run_one({});
  ASSERT_TRUE(reference.converged);
  ASSERT_EQ(reference.centroids.size(), cfg.k * 2);

  for (const int kill_rank : {1, 2, 3}) {
    for (const std::uint64_t at_call : {3ULL, 8ULL, 15ULL}) {
      const m5::Result r =
          run_one(kill_plan(mpi::BackendKind::kThreads, kill_rank, at_call));
      const std::string tag =
          label(mpi::BackendKind::kThreads, kill_rank, at_call);
      EXPECT_TRUE(r.converged) << tag;
      ASSERT_EQ(r.centroids.size(), reference.centroids.size()) << tag;
      for (std::size_t i = 0; i < reference.centroids.size(); ++i) {
        // Tolerance, not bit-exact: survivor counts change the float
        // summation order.
        EXPECT_NEAR(r.centroids[i], reference.centroids[i], 1e-6)
            << tag << " centroid component " << i;
      }
      EXPECT_NEAR(r.inertia, reference.inertia,
                  1e-6 * (1.0 + std::abs(reference.inertia)))
          << tag;
    }
  }
}

TEST(ContainerFaults, Module5AcceptanceScenarioSurvivesOnEveryBackend) {
  // `dipdc module5 --faults=kill=1@3 --repartition` must complete with
  // correct centroids on the surviving ranks, on threads and tcp.
  const auto d = io::generate_clusters(600, 2, 3, 0.3, 0.0, 30.0, 29);
  m5::Config cfg;
  cfg.k = 3;
  m5::ElasticConfig ecfg;

  auto run_one = [&](const mpi::RuntimeOptions& opts) {
    m5::Result at_root{};
    mpi::run(
        4,
        [&](mpi::Comm& comm) {
          const m5::Result r = m5::elastic(
              comm, comm.rank() == 0 ? d.data : io::Dataset{}, cfg, ecfg);
          if (comm.world_rank() == 0) at_root = r;
        },
        opts);
    return at_root;
  };

  const m5::Result reference = run_one({});
  for (const mpi::BackendKind kind : all_backends()) {
    const std::string tag = label(kind, 1, 3);
    m5::Result r;
    try {
      r = run_one(kill_plan(kind, 1, 3));
    } catch (const std::exception& e) {
      FAIL() << tag << " did not survive: " << e.what();
    }
    EXPECT_TRUE(r.converged) << tag;
    ASSERT_EQ(r.centroids.size(), reference.centroids.size()) << tag;
    for (std::size_t i = 0; i < reference.centroids.size(); ++i) {
      EXPECT_NEAR(r.centroids[i], reference.centroids[i], 1e-6) << tag;
    }
  }
}
