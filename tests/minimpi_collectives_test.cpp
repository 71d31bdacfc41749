// Collective semantics versus sequential oracles, swept over world sizes.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "minimpi/comm.hpp"
#include "minimpi/error.hpp"
#include "minimpi/ops.hpp"
#include "minimpi/runtime.hpp"
#include "support/rng.hpp"

namespace mpi = dipdc::minimpi;

class CollectiveSweep : public ::testing::TestWithParam<int> {};

TEST_P(CollectiveSweep, BcastFromEveryRoot) {
  const int p = GetParam();
  mpi::run(p, [p](mpi::Comm& comm) {
    for (int root = 0; root < p; ++root) {
      std::vector<int> data(64, comm.rank() == root ? root + 1000 : -1);
      comm.bcast(std::span<int>(data), root);
      for (const int v : data) EXPECT_EQ(v, root + 1000);
    }
  });
}

TEST_P(CollectiveSweep, BcastRootSendsWhatBcastSends) {
  // The root's read-only side delivers the same data with the same calls,
  // messages and bytes as bcast(), inline-sized and staged alike.
  const int p = GetParam();
  mpi::run(p, [p](mpi::Comm& comm) {
    for (const std::size_t n : {std::size_t{3}, std::size_t{50000}}) {
      for (int root = 0; root < p; ++root) {
        const auto counters = [&comm] {
          const mpi::CommStats& st = comm.stats();
          return std::vector<std::uint64_t>{
              st.calls[static_cast<std::size_t>(mpi::Primitive::kBcast)],
              st.transport_bytes_sent, st.transport_messages_sent};
        };
        const std::vector<double> source(n, 0.5 + root);
        const auto before = counters();
        std::vector<double> plain(n, comm.rank() == root ? 0.5 + root : -1.0);
        comm.bcast(std::span<double>(plain), root);
        const auto mid = counters();
        std::vector<double> got(n, -1.0);
        if (comm.rank() == root) {
          comm.bcast_root(std::span<const double>(source));
          got = source;
        } else {
          comm.bcast(std::span<double>(got), root);
        }
        const auto after = counters();
        EXPECT_EQ(got, plain);
        for (std::size_t i = 0; i < before.size(); ++i) {
          EXPECT_EQ(after[i] - mid[i], mid[i] - before[i])
              << "counter " << i << " n=" << n << " root=" << root;
        }
      }
    }
  });
}

TEST_P(CollectiveSweep, BcastValueConvenience) {
  const int p = GetParam();
  mpi::run(p, [](mpi::Comm& comm) {
    const double v = comm.bcast_value(comm.rank() == 0 ? 3.25 : 0.0, 0);
    EXPECT_DOUBLE_EQ(v, 3.25);
  });
}

TEST_P(CollectiveSweep, ScatterDistributesChunks) {
  const int p = GetParam();
  mpi::run(p, [p](mpi::Comm& comm) {
    const std::size_t chunk = 8;
    std::vector<int> send;
    if (comm.rank() == 0) {
      send.resize(chunk * static_cast<std::size_t>(p));
      std::iota(send.begin(), send.end(), 0);
    }
    std::vector<int> recv(chunk, -1);
    comm.scatter(std::span<const int>(send), std::span<int>(recv), 0);
    for (std::size_t i = 0; i < chunk; ++i) {
      EXPECT_EQ(recv[i], static_cast<int>(
                             static_cast<std::size_t>(comm.rank()) * chunk + i));
    }
  });
}

TEST_P(CollectiveSweep, GatherCollectsInRankOrder) {
  const int p = GetParam();
  mpi::run(p, [p](mpi::Comm& comm) {
    const std::size_t chunk = 4;
    std::vector<int> send(chunk, comm.rank());
    std::vector<int> recv;
    if (comm.rank() == 0) recv.resize(chunk * static_cast<std::size_t>(p));
    comm.gather(std::span<const int>(send), std::span<int>(recv), 0);
    if (comm.rank() == 0) {
      for (int r = 0; r < p; ++r) {
        for (std::size_t i = 0; i < chunk; ++i) {
          EXPECT_EQ(recv[static_cast<std::size_t>(r) * chunk + i], r);
        }
      }
    }
  });
}

TEST_P(CollectiveSweep, ScatterGatherRoundTrip) {
  const int p = GetParam();
  mpi::run(p, [p](mpi::Comm& comm) {
    const std::size_t chunk = 16;
    std::vector<double> original;
    if (comm.rank() == 0) {
      auto rng = dipdc::support::Xoshiro256(7);
      original.resize(chunk * static_cast<std::size_t>(p));
      for (auto& v : original) v = rng.uniform();
    }
    std::vector<double> mine(chunk);
    comm.scatter(std::span<const double>(original), std::span<double>(mine),
                 0);
    for (auto& v : mine) v *= 2.0;
    std::vector<double> collected;
    if (comm.rank() == 0) {
      collected.resize(chunk * static_cast<std::size_t>(p));
    }
    comm.gather(std::span<const double>(mine), std::span<double>(collected),
                0);
    if (comm.rank() == 0) {
      for (std::size_t i = 0; i < collected.size(); ++i) {
        EXPECT_DOUBLE_EQ(collected[i], 2.0 * original[i]);
      }
    }
  });
}

TEST_P(CollectiveSweep, ScattervUnevenChunks) {
  const int p = GetParam();
  mpi::run(p, [p](mpi::Comm& comm) {
    // Rank i receives i+1 elements.
    std::vector<std::size_t> counts, displs;
    std::size_t total = 0;
    for (int i = 0; i < p; ++i) {
      counts.push_back(static_cast<std::size_t>(i + 1));
      displs.push_back(total);
      total += static_cast<std::size_t>(i + 1);
    }
    std::vector<int> send;
    if (comm.rank() == 0) {
      send.resize(total);
      std::iota(send.begin(), send.end(), 0);
    }
    std::vector<int> recv(static_cast<std::size_t>(comm.rank() + 1), -1);
    comm.scatterv(std::span<const int>(send),
                  std::span<const std::size_t>(counts),
                  std::span<const std::size_t>(displs), std::span<int>(recv),
                  0);
    const int base =
        static_cast<int>(displs[static_cast<std::size_t>(comm.rank())]);
    for (std::size_t i = 0; i < recv.size(); ++i) {
      EXPECT_EQ(recv[i], base + static_cast<int>(i));
    }
  });
}

TEST_P(CollectiveSweep, GathervUnevenChunks) {
  const int p = GetParam();
  mpi::run(p, [p](mpi::Comm& comm) {
    std::vector<std::size_t> counts, displs;
    std::size_t total = 0;
    for (int i = 0; i < p; ++i) {
      counts.push_back(static_cast<std::size_t>(i + 1));
      displs.push_back(total);
      total += static_cast<std::size_t>(i + 1);
    }
    std::vector<int> send(static_cast<std::size_t>(comm.rank() + 1),
                          comm.rank());
    std::vector<int> recv;
    if (comm.rank() == 0) recv.resize(total, -1);
    comm.gatherv(std::span<const int>(send),
                 std::span<const std::size_t>(counts),
                 std::span<const std::size_t>(displs), std::span<int>(recv),
                 0);
    if (comm.rank() == 0) {
      for (int r = 0; r < p; ++r) {
        for (std::size_t i = 0; i < counts[static_cast<std::size_t>(r)]; ++i) {
          EXPECT_EQ(recv[displs[static_cast<std::size_t>(r)] + i], r);
        }
      }
    }
  });
}

TEST_P(CollectiveSweep, AllgatherEveryoneSeesEverything) {
  const int p = GetParam();
  mpi::run(p, [p](mpi::Comm& comm) {
    const std::size_t chunk = 3;
    std::vector<int> send(chunk, comm.rank() * 10);
    std::vector<int> recv(chunk * static_cast<std::size_t>(p), -1);
    comm.allgather(std::span<const int>(send), std::span<int>(recv));
    for (int r = 0; r < p; ++r) {
      for (std::size_t i = 0; i < chunk; ++i) {
        EXPECT_EQ(recv[static_cast<std::size_t>(r) * chunk + i], r * 10);
      }
    }
  });
}

TEST_P(CollectiveSweep, ReduceSumMatchesOracle) {
  const int p = GetParam();
  mpi::run(p, [p](mpi::Comm& comm) {
    std::vector<long long> send(10);
    for (std::size_t i = 0; i < send.size(); ++i) {
      send[i] = comm.rank() + static_cast<long long>(i);
    }
    std::vector<long long> recv(10, -1);
    comm.reduce(std::span<const long long>(send),
                std::span<long long>(recv), mpi::ops::Sum{}, 0);
    if (comm.rank() == 0) {
      const long long rank_sum =
          static_cast<long long>(p) * static_cast<long long>(p - 1) / 2;
      for (std::size_t i = 0; i < recv.size(); ++i) {
        EXPECT_EQ(recv[i], rank_sum + static_cast<long long>(i) * p);
      }
    }
  });
}

TEST_P(CollectiveSweep, ReduceMinMaxAtNonzeroRoot) {
  const int p = GetParam();
  mpi::run(p, [p](mpi::Comm& comm) {
    const int root = p - 1;
    double v = static_cast<double>(comm.rank());
    double vmin = -1.0, vmax = -1.0;
    comm.reduce(std::span<const double>(&v, 1), std::span<double>(&vmin, 1),
                mpi::ops::Min{}, root);
    comm.reduce(std::span<const double>(&v, 1), std::span<double>(&vmax, 1),
                mpi::ops::Max{}, root);
    if (comm.rank() == root) {
      EXPECT_DOUBLE_EQ(vmin, 0.0);
      EXPECT_DOUBLE_EQ(vmax, static_cast<double>(p - 1));
    }
  });
}

TEST_P(CollectiveSweep, AllreduceSumEverywhere) {
  const int p = GetParam();
  mpi::run(p, [p](mpi::Comm& comm) {
    const long long got = comm.allreduce_value(
        static_cast<long long>(comm.rank() + 1), mpi::ops::Sum{});
    EXPECT_EQ(got, static_cast<long long>(p) * (p + 1) / 2);
  });
}

TEST_P(CollectiveSweep, ScanComputesPrefixSums) {
  const int p = GetParam();
  mpi::run(p, [](mpi::Comm& comm) {
    const int r = comm.rank();
    long long in = r + 1;
    long long out = 0;
    comm.scan(std::span<const long long>(&in, 1),
              std::span<long long>(&out, 1), mpi::ops::Sum{});
    EXPECT_EQ(out, static_cast<long long>(r + 1) * (r + 2) / 2);
  });
}

TEST_P(CollectiveSweep, AlltoallTransposesChunks) {
  const int p = GetParam();
  mpi::run(p, [p](mpi::Comm& comm) {
    const int r = comm.rank();
    std::vector<int> send(static_cast<std::size_t>(p));
    for (int i = 0; i < p; ++i) {
      send[static_cast<std::size_t>(i)] = r * 100 + i;
    }
    std::vector<int> recv(static_cast<std::size_t>(p), -1);
    comm.alltoall(std::span<const int>(send), std::span<int>(recv));
    for (int i = 0; i < p; ++i) {
      EXPECT_EQ(recv[static_cast<std::size_t>(i)], i * 100 + r);
    }
  });
}

TEST_P(CollectiveSweep, AlltoallvRandomCounts) {
  const int p = GetParam();
  mpi::run(p, [p](mpi::Comm& comm) {
    const int r = comm.rank();
    // send_counts[i] = (r + i) % 3 + 1 elements; the value encodes (src,dst).
    std::vector<std::size_t> send_counts, send_displs;
    std::size_t total_send = 0;
    for (int i = 0; i < p; ++i) {
      send_counts.push_back(static_cast<std::size_t>((r + i) % 3 + 1));
      send_displs.push_back(total_send);
      total_send += send_counts.back();
    }
    std::vector<int> send(total_send);
    for (int i = 0; i < p; ++i) {
      for (std::size_t k = 0; k < send_counts[static_cast<std::size_t>(i)];
           ++k) {
        send[send_displs[static_cast<std::size_t>(i)] + k] = r * 1000 + i;
      }
    }
    // recv_counts[j] = what rank j sends to us = (j + r) % 3 + 1.
    std::vector<std::size_t> recv_counts, recv_displs;
    std::size_t total_recv = 0;
    for (int j = 0; j < p; ++j) {
      recv_counts.push_back(static_cast<std::size_t>((j + r) % 3 + 1));
      recv_displs.push_back(total_recv);
      total_recv += recv_counts.back();
    }
    std::vector<int> recv(total_recv, -1);
    comm.alltoallv(std::span<const int>(send),
                   std::span<const std::size_t>(send_counts),
                   std::span<const std::size_t>(send_displs),
                   std::span<int>(recv),
                   std::span<const std::size_t>(recv_counts),
                   std::span<const std::size_t>(recv_displs));
    for (int j = 0; j < p; ++j) {
      for (std::size_t k = 0; k < recv_counts[static_cast<std::size_t>(j)];
           ++k) {
        EXPECT_EQ(recv[recv_displs[static_cast<std::size_t>(j)] + k],
                  j * 1000 + r);
      }
    }
  });
}

TEST_P(CollectiveSweep, BarrierCompletesAndCounts) {
  const int p = GetParam();
  const auto result = mpi::run(p, [](mpi::Comm& comm) {
    for (int i = 0; i < 3; ++i) comm.barrier();
  });
  for (const auto& s : result.rank_stats) {
    EXPECT_EQ(s.calls_to(mpi::Primitive::kBarrier), 3u);
  }
}

TEST_P(CollectiveSweep, BackToBackCollectivesDoNotInterfere) {
  const int p = GetParam();
  mpi::run(p, [](mpi::Comm& comm) {
    for (int round = 0; round < 10; ++round) {
      const int root = round % comm.size();
      const int v = comm.bcast_value(comm.rank() == root ? round : -1, root);
      EXPECT_EQ(v, round);
      const long long total = comm.allreduce_value(
          static_cast<long long>(1), mpi::ops::Sum{});
      EXPECT_EQ(total, comm.size());
    }
  });
}

INSTANTIATE_TEST_SUITE_P(WorldSizes, CollectiveSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 8, 9, 16));

TEST(Collectives, ScatterValidatesRootBufferSize) {
  EXPECT_THROW(
      mpi::run(2,
               [](mpi::Comm& comm) {
                 std::vector<int> send(3);  // not 2 * chunk
                 std::vector<int> recv(2);
                 comm.scatter(std::span<const int>(send),
                              std::span<int>(recv), 0);
               }),
      mpi::MpiError);
}

TEST(Collectives, ReduceValidatesElementSize) {
  EXPECT_THROW(
      mpi::run(2,
               [](mpi::Comm& comm) {
                 std::vector<int> v(2), out(3);
                 comm.reduce(std::span<const int>(v),
                             std::span<int>(out), mpi::ops::Sum{}, 0);
               }),
      mpi::MpiError);
}

TEST(Collectives, CollectiveBytesCountAsTransportNotP2P) {
  const auto result = mpi::run(4, [](mpi::Comm& comm) {
    std::vector<double> data(1024, 1.0);
    comm.bcast(std::span<double>(data), 0);
  });
  const auto total = result.total_stats();
  EXPECT_EQ(total.p2p_messages_sent, 0u);
  EXPECT_GT(total.transport_bytes_sent, 0u);
  // Binomial bcast moves exactly (p-1) copies of the payload in total.
  EXPECT_EQ(total.transport_bytes_sent, 3u * 1024u * sizeof(double));
}
