// Transport fast path and alternative collective algorithms:
//  - forced tree/recursive-doubling/ring collectives against sequential
//    oracles, including non-power-of-two world sizes;
//  - zero-length per-rank contributions in the v-variants;
//  - sim-neutrality of the transport toggles (pooling / zero-copy /
//    inline storage change no simulated result, bit for bit);
//  - the fast-path observability counters.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "minimpi/comm.hpp"
#include "minimpi/ops.hpp"
#include "minimpi/runtime.hpp"

namespace mpi = dipdc::minimpi;

namespace {

mpi::RuntimeOptions forced(mpi::CollectiveAlgorithm scatter_gather,
                           mpi::CollectiveAlgorithm allreduce,
                           mpi::CollectiveAlgorithm allgather) {
  mpi::RuntimeOptions opts;
  opts.collectives.scatter = scatter_gather;
  opts.collectives.gather = scatter_gather;
  opts.collectives.allreduce = allreduce;
  opts.collectives.allgather = allgather;
  return opts;
}

}  // namespace

// World sizes deliberately include non-powers-of-two (3, 5, 7): the tree
// and recursive-doubling algorithms must clip their subtree/fold regions.
class FastpathSweep : public ::testing::TestWithParam<int> {};

TEST_P(FastpathSweep, TreeScatterMatchesLinearFromEveryRoot) {
  const int p = GetParam();
  const auto opts = forced(mpi::CollectiveAlgorithm::kTree,
                           mpi::CollectiveAlgorithm::kAuto,
                           mpi::CollectiveAlgorithm::kAuto);
  mpi::run(
      p,
      [p](mpi::Comm& comm) {
        const std::size_t chunk = 300;  // above the inline threshold
        for (int root = 0; root < p; ++root) {
          std::vector<int> send;
          if (comm.rank() == root) {
            send.resize(chunk * static_cast<std::size_t>(p));
            std::iota(send.begin(), send.end(), 0);
          }
          std::vector<int> recv(chunk, -1);
          comm.scatter(std::span<const int>(send), std::span<int>(recv),
                       root);
          for (std::size_t i = 0; i < chunk; ++i) {
            ASSERT_EQ(recv[i],
                      static_cast<int>(
                          static_cast<std::size_t>(comm.rank()) * chunk + i))
                << "root=" << root;
          }
        }
      },
      opts);
}

TEST_P(FastpathSweep, TreeGatherMatchesLinearFromEveryRoot) {
  const int p = GetParam();
  const auto opts = forced(mpi::CollectiveAlgorithm::kTree,
                           mpi::CollectiveAlgorithm::kAuto,
                           mpi::CollectiveAlgorithm::kAuto);
  mpi::run(
      p,
      [p](mpi::Comm& comm) {
        const std::size_t chunk = 300;
        for (int root = 0; root < p; ++root) {
          std::vector<int> send(chunk);
          for (std::size_t i = 0; i < chunk; ++i) {
            send[i] = comm.rank() * 100000 + static_cast<int>(i);
          }
          std::vector<int> recv;
          if (comm.rank() == root) {
            recv.assign(chunk * static_cast<std::size_t>(p), -1);
          }
          comm.gather(std::span<const int>(send), std::span<int>(recv),
                      root);
          if (comm.rank() == root) {
            for (int r = 0; r < p; ++r) {
              for (std::size_t i = 0; i < chunk; ++i) {
                ASSERT_EQ(recv[static_cast<std::size_t>(r) * chunk + i],
                          r * 100000 + static_cast<int>(i))
                    << "root=" << root;
              }
            }
          }
        }
      },
      opts);
}

TEST_P(FastpathSweep, TreeScattervHandlesRaggedAndZeroCounts) {
  const int p = GetParam();
  const auto opts = forced(mpi::CollectiveAlgorithm::kTree,
                           mpi::CollectiveAlgorithm::kAuto,
                           mpi::CollectiveAlgorithm::kAuto);
  mpi::run(
      p,
      [p](mpi::Comm& comm) {
        // Rank i contributes i * 40 elements; every third rank gets zero.
        std::vector<std::size_t> counts(static_cast<std::size_t>(p));
        std::vector<std::size_t> displs(static_cast<std::size_t>(p));
        std::size_t total = 0;
        for (int r = 0; r < p; ++r) {
          const auto idx = static_cast<std::size_t>(r);
          counts[idx] = (r % 3 == 2) ? 0 : static_cast<std::size_t>(r) * 40;
          displs[idx] = total;
          total += counts[idx];
        }
        for (int root = 0; root < p; ++root) {
          std::vector<double> send;
          if (comm.rank() == root) {
            send.resize(total);
            std::iota(send.begin(), send.end(), 0.0);
          }
          const auto mine = counts[static_cast<std::size_t>(comm.rank())];
          std::vector<double> recv(mine, -1.0);
          comm.scatterv(std::span<const double>(send),
                        std::span<const std::size_t>(counts),
                        std::span<const std::size_t>(displs),
                        std::span<double>(recv), root);
          const auto base =
              static_cast<double>(displs[static_cast<std::size_t>(
                  comm.rank())]);
          for (std::size_t i = 0; i < mine; ++i) {
            ASSERT_DOUBLE_EQ(recv[i], base + static_cast<double>(i))
                << "root=" << root;
          }
        }
      },
      opts);
}

TEST_P(FastpathSweep, TreeGathervHandlesRaggedAndZeroCounts) {
  const int p = GetParam();
  const auto opts = forced(mpi::CollectiveAlgorithm::kTree,
                           mpi::CollectiveAlgorithm::kAuto,
                           mpi::CollectiveAlgorithm::kAuto);
  mpi::run(
      p,
      [p](mpi::Comm& comm) {
        std::vector<std::size_t> counts(static_cast<std::size_t>(p));
        std::vector<std::size_t> displs(static_cast<std::size_t>(p));
        std::size_t total = 0;
        for (int r = 0; r < p; ++r) {
          const auto idx = static_cast<std::size_t>(r);
          counts[idx] = (r % 2 == 0) ? 0 : static_cast<std::size_t>(r) * 50;
          displs[idx] = total;
          total += counts[idx];
        }
        for (int root = 0; root < p; ++root) {
          const auto mine = counts[static_cast<std::size_t>(comm.rank())];
          std::vector<int> send(mine, comm.rank() + 1);
          std::vector<int> recv;
          if (comm.rank() == root) recv.assign(total, -1);
          comm.gatherv(std::span<const int>(send),
                       std::span<const std::size_t>(counts),
                       std::span<const std::size_t>(displs),
                       std::span<int>(recv), root);
          if (comm.rank() == root) {
            for (int r = 0; r < p; ++r) {
              const auto idx = static_cast<std::size_t>(r);
              for (std::size_t i = 0; i < counts[idx]; ++i) {
                ASSERT_EQ(recv[displs[idx] + i], r + 1) << "root=" << root;
              }
            }
          }
        }
      },
      opts);
}

TEST_P(FastpathSweep, RecursiveDoublingAllreduceMatchesSum) {
  const int p = GetParam();
  const auto opts = forced(mpi::CollectiveAlgorithm::kAuto,
                           mpi::CollectiveAlgorithm::kRecursiveDoubling,
                           mpi::CollectiveAlgorithm::kAuto);
  mpi::run(
      p,
      [p](mpi::Comm& comm) {
        const std::size_t n = 257;  // odd, crosses the inline threshold
        std::vector<long> send(n);
        for (std::size_t i = 0; i < n; ++i) {
          send[i] = (comm.rank() + 1) * static_cast<long>(i);
        }
        std::vector<long> recv(n, -1);
        comm.allreduce(std::span<const long>(send), std::span<long>(recv),
                       mpi::ops::Sum{});
        const long ranksum = static_cast<long>(p) * (p + 1) / 2;
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(recv[i], ranksum * static_cast<long>(i));
        }
      },
      opts);
}

TEST_P(FastpathSweep, RingAllreduceMatchesSum) {
  const int p = GetParam();
  const auto opts = forced(mpi::CollectiveAlgorithm::kAuto,
                           mpi::CollectiveAlgorithm::kRing,
                           mpi::CollectiveAlgorithm::kAuto);
  mpi::run(
      p,
      [p](mpi::Comm& comm) {
        // A large payload and a tiny one (fewer elements than ranks, so
        // some ring chunks are empty).
        for (const std::size_t n : {std::size_t{4096}, std::size_t{3}}) {
          std::vector<double> send(n);
          for (std::size_t i = 0; i < n; ++i) {
            send[i] = comm.rank() + 1.0 + static_cast<double>(i);
          }
          std::vector<double> recv(n, -1.0);
          comm.allreduce(std::span<const double>(send),
                         std::span<double>(recv), mpi::ops::Sum{});
          const double ranksum = p * (p + 1) / 2.0;
          for (std::size_t i = 0; i < n; ++i) {
            ASSERT_DOUBLE_EQ(recv[i],
                             ranksum + p * static_cast<double>(i))
                << "n=" << n;
          }
        }
      },
      opts);
}

TEST_P(FastpathSweep, RingAllgatherMatchesOracle) {
  const int p = GetParam();
  const auto opts = forced(mpi::CollectiveAlgorithm::kAuto,
                           mpi::CollectiveAlgorithm::kAuto,
                           mpi::CollectiveAlgorithm::kRing);
  mpi::run(
      p,
      [p](mpi::Comm& comm) {
        const std::size_t chunk = 777;
        std::vector<int> send(chunk);
        for (std::size_t i = 0; i < chunk; ++i) {
          send[i] = comm.rank() * 10000 + static_cast<int>(i);
        }
        std::vector<int> recv(chunk * static_cast<std::size_t>(p), -1);
        comm.allgather(std::span<const int>(send), std::span<int>(recv));
        for (int r = 0; r < p; ++r) {
          for (std::size_t i = 0; i < chunk; ++i) {
            ASSERT_EQ(recv[static_cast<std::size_t>(r) * chunk + i],
                      r * 10000 + static_cast<int>(i));
          }
        }
      },
      opts);
}

INSTANTIATE_TEST_SUITE_P(WorldSizes, FastpathSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 16));

TEST(Fastpath, AlltoallvZeroLengthContributions) {
  const int p = 5;
  mpi::run(p, [p](mpi::Comm& comm) {
    // Rank r sends r+j elements to rank j, except nothing to even ranks.
    const auto np = static_cast<std::size_t>(p);
    std::vector<std::size_t> send_counts(np), send_displs(np);
    std::vector<std::size_t> recv_counts(np), recv_displs(np);
    std::size_t send_total = 0, recv_total = 0;
    for (int j = 0; j < p; ++j) {
      const auto idx = static_cast<std::size_t>(j);
      send_counts[idx] =
          (j % 2 == 0) ? 0
                       : static_cast<std::size_t>(comm.rank() + j);
      send_displs[idx] = send_total;
      send_total += send_counts[idx];
      recv_counts[idx] =
          (comm.rank() % 2 == 0) ? 0
                                 : static_cast<std::size_t>(j + comm.rank());
      recv_displs[idx] = recv_total;
      recv_total += recv_counts[idx];
    }
    std::vector<int> send(send_total);
    for (int j = 0; j < p; ++j) {
      const auto idx = static_cast<std::size_t>(j);
      for (std::size_t i = 0; i < send_counts[idx]; ++i) {
        send[send_displs[idx] + i] = comm.rank() * 100 + j;
      }
    }
    std::vector<int> recv(recv_total, -1);
    comm.alltoallv(std::span<const int>(send),
                   std::span<const std::size_t>(send_counts),
                   std::span<const std::size_t>(send_displs),
                   std::span<int>(recv),
                   std::span<const std::size_t>(recv_counts),
                   std::span<const std::size_t>(recv_displs));
    for (int j = 0; j < p; ++j) {
      const auto idx = static_cast<std::size_t>(j);
      for (std::size_t i = 0; i < recv_counts[idx]; ++i) {
        ASSERT_EQ(recv[recv_displs[idx] + i], j * 100 + comm.rank());
      }
    }
  });
}

namespace {

/// A mixed workload exercising every transport path: inline eager, pooled
/// eager, rendezvous (borrowed payloads), staged collectives, wildcards.
/// Returns per-rank digests of all received data.
mpi::RunResult mixed_workload(mpi::RuntimeOptions opts,
                              std::vector<std::uint64_t>* digests = nullptr) {
  const int p = 6;
  std::vector<std::uint64_t> local(static_cast<std::size_t>(p), 0);
  auto result = mpi::run(
      p,
      [p, &local](mpi::Comm& comm) {
        std::uint64_t digest = 1469598103934665603ull;
        auto mix = [&digest](std::uint64_t v) {
          digest = (digest ^ v) * 1099511628211ull;
        };
        // Inline-size and pool-size eager p2p, plus a rendezvous message.
        std::vector<std::uint64_t> big(20000);
        for (std::size_t i = 0; i < big.size(); ++i) {
          big[i] = static_cast<std::uint64_t>(comm.rank()) * 7919 + i;
        }
        const int right = (comm.rank() + 1) % p;
        const int left = (comm.rank() - 1 + p) % p;
        comm.send_value(std::uint64_t{41} + static_cast<std::uint64_t>(
                                                comm.rank()),
                        right, 5);
        mix(comm.recv_value<std::uint64_t>(left, 5));
        mpi::Request r = comm.isend(std::span<const std::uint64_t>(big),
                                    right, 6);
        std::vector<std::uint64_t> in(big.size());
        comm.recv(std::span<std::uint64_t>(in), left, 6);
        comm.wait(r);
        for (const auto v : in) mix(v);
        // Collectives across the size spectrum (inline, staged, ring/RD
        // thresholds under kAuto).
        std::vector<double> v(9000, comm.rank() + 0.5);
        std::vector<double> sum(9000);
        comm.allreduce(std::span<const double>(v), std::span<double>(sum),
                       mpi::ops::Sum{});
        mix(static_cast<std::uint64_t>(sum[123]));
        std::vector<std::uint64_t> all(
            big.size() * static_cast<std::size_t>(p));
        comm.allgather(std::span<const std::uint64_t>(big),
                       std::span<std::uint64_t>(all));
        for (const auto x : all) mix(x);
        comm.barrier();
        local[static_cast<std::size_t>(comm.rank())] = digest;
      },
      opts);
  if (digests != nullptr) *digests = local;
  return result;
}

}  // namespace

TEST(Fastpath, TransportTogglesAreSimNeutral) {
  // pooling / zero-copy / inline storage are real-world optimizations; the
  // simulated clocks and every delivered byte must be identical bit for bit
  // with any combination of them disabled.
  mpi::RuntimeOptions base;
  base.eager_threshold = 64 * 1024;  // the isend payload goes rendezvous

  std::vector<std::uint64_t> want_digest;
  const auto want = mixed_workload(base, &want_digest);

  for (const bool pooling : {false, true}) {
    for (const bool zero_copy : {false, true}) {
      for (const std::size_t inline_threshold : {std::size_t{0},
                                                 std::size_t{256}}) {
        mpi::RuntimeOptions opts = base;
        opts.transport.pooling = pooling;
        opts.transport.zero_copy = zero_copy;
        opts.transport.inline_threshold = inline_threshold;
        std::vector<std::uint64_t> digest;
        const auto got = mixed_workload(opts, &digest);
        ASSERT_EQ(digest, want_digest)
            << "pooling=" << pooling << " zero_copy=" << zero_copy
            << " inline=" << inline_threshold;
        ASSERT_EQ(got.sim_times, want.sim_times)
            << "pooling=" << pooling << " zero_copy=" << zero_copy
            << " inline=" << inline_threshold;
      }
    }
  }
}

TEST(Fastpath, CountersObserveTheFastPath) {
  mpi::RuntimeOptions opts;
  opts.eager_threshold = 1024;
  const auto result = mpi::run(
      4,
      [](mpi::Comm& comm) {
        // Three message classes: inline (64 B), pooled eager (512 B), and
        // rendezvous (32 KiB).  The receiver probes before posting the
        // rendezvous recv, so the sender is guaranteed to have queued the
        // envelope unexpectedly — i.e. to have stalled.  The blocking
        // rendezvous also serializes the rounds, so each round's 512-byte
        // pool buffer is back in the pool before the next acquire.
        std::vector<std::byte> small(64);
        std::vector<std::byte> medium(512);
        std::vector<std::byte> big(32 * 1024);
        for (int round = 0; round < 8; ++round) {
          if (comm.rank() == 0) {
            comm.send(std::span<const std::byte>(small), 1, 1);
            comm.send(std::span<const std::byte>(medium), 1, 2);
            comm.send(std::span<const std::byte>(big), 1, 3);
          } else if (comm.rank() == 1) {
            comm.recv(std::span<std::byte>(small), 0, 1);
            comm.recv(std::span<std::byte>(medium), 0, 2);
            (void)comm.probe(0, 3);
            comm.recv(std::span<std::byte>(big), 0, 3);
          }
        }
        std::vector<double> v(2048, 1.0);
        std::vector<double> out(2048);
        comm.allreduce(std::span<const double>(v), std::span<double>(out),
                       mpi::ops::Sum{});
      },
      opts);
  const auto total = result.total_stats();
  EXPECT_GT(total.inline_messages, 0u);     // the 64-byte messages
  EXPECT_GT(total.rendezvous_stalls, 0u);   // rank 0 outruns rank 1
  EXPECT_GT(total.pool_hits, 0u);           // 8 rounds reuse the 32 KiB class
  EXPECT_GT(total.zero_copy_bytes, 0u);     // borrowed + staged payloads
  EXPECT_GT(total.copied_bytes, 0u);
  // 16 KiB payload with p=4 crosses the kAuto recursive-doubling threshold.
  EXPECT_EQ(total.algo_count(mpi::CollectiveAlgo::kAllreduceRecursiveDoubling),
            4u);
  const std::string report = mpi::transport_report(total);
  EXPECT_NE(report.find("zero-copy"), std::string::npos);
  EXPECT_NE(report.find("allreduce/recursive-doubling"), std::string::npos);
}

TEST(Fastpath, ReportKeepsHostScheduleCountersOnItsLastLine) {
  // Two runs of one program can split pool hits and misses differently
  // and count different rendezvous stalls, so those counters must sit on
  // the report's final, labelled line and every line before it must not
  // depend on them.  Every optional section is switched on so the prefix
  // covers all of them.
  mpi::CommStats a;
  a.transport_messages_sent = 12;
  a.transport_bytes_sent = 4096;
  a.pool_hits = 81;
  a.pool_misses = 10;
  a.rendezvous_stalls = 3;
  a.inline_messages = 7;
  a.zero_copy_bytes = 1024;
  a.copied_bytes = 3072;
  a.backend_frames = 12;
  a.backend_wire_bytes = 4864;
  a.fault_drops = 1;
  a.reliable_retries = 2;
  a.algo_uses[static_cast<std::size_t>(
      mpi::CollectiveAlgo::kAllreduceRecursiveDoubling)] = 4;
  mpi::CommStats b = a;
  b.pool_hits = 80;
  b.pool_misses = 11;
  b.rendezvous_stalls = 2;

  const std::string ra = mpi::transport_report(a);
  const std::string rb = mpi::transport_report(b);
  ASSERT_NE(ra, rb);
  const std::size_t last = ra.rfind('\n', ra.size() - 2) + 1;
  EXPECT_EQ(ra.substr(last, std::strlen(mpi::kHostScheduleLabel)),
            mpi::kHostScheduleLabel)
      << ra;
  EXPECT_EQ(ra.find(mpi::kHostScheduleLabel), last) << "label appears once";
  EXPECT_EQ(ra.substr(0, last), rb.substr(0, last));
  EXPECT_NE(ra.find("81 hits, 10 misses", last), std::string::npos);
  EXPECT_NE(ra.find("rendezvous stalls 3", last), std::string::npos);
  EXPECT_NE(ra.find("fault injection"), std::string::npos);
  EXPECT_NE(ra.find("backend frames"), std::string::npos);
  EXPECT_NE(ra.find("allreduce/recursive-doubling"), std::string::npos);
}

TEST(Fastpath, AutoSelectionIsSizeAndRankAware) {
  // Tiny allreduce stays on the classic reduce+bcast path (bit-identical
  // module timings); mid-size goes recursive doubling; large goes ring.
  const auto stats_for = [](std::size_t nbytes) {
    auto result = mpi::run(8, [nbytes](mpi::Comm& comm) {
      std::vector<std::byte> v(nbytes, std::byte{1});
      std::vector<std::byte> out(nbytes);
      auto byte_or = [](std::byte a, std::byte b) { return a | b; };
      comm.allreduce(std::span<const std::byte>(v),
                     std::span<std::byte>(out), byte_or);
    });
    return result.total_stats();
  };
  const auto tiny = stats_for(64);
  EXPECT_EQ(tiny.algo_count(mpi::CollectiveAlgo::kAllreduceReduceBcast), 8u);
  const auto mid = stats_for(4096);
  EXPECT_EQ(mid.algo_count(mpi::CollectiveAlgo::kAllreduceRecursiveDoubling),
            8u);
  const auto large = stats_for(256 * 1024);
  EXPECT_EQ(large.algo_count(mpi::CollectiveAlgo::kAllreduceRabenseifner),
            8u);
}
