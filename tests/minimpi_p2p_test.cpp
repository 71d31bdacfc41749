// Point-to-point semantics of the minimpi runtime.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <numeric>
#include <set>
#include <thread>
#include <vector>

#include "minimpi/comm.hpp"
#include "minimpi/error.hpp"
#include "minimpi/ops.hpp"
#include "minimpi/runtime.hpp"
#include "support/rng.hpp"

namespace mpi = dipdc::minimpi;

TEST(P2P, ScalarRoundTrip) {
  mpi::run(2, [](mpi::Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_value(42, 1);
    } else {
      EXPECT_EQ(comm.recv_value<int>(), 42);
    }
  });
}

TEST(P2P, VectorPayload) {
  mpi::run(2, [](mpi::Comm& comm) {
    std::vector<double> data(1000);
    if (comm.rank() == 0) {
      std::iota(data.begin(), data.end(), 0.0);
      comm.send(std::span<const double>(data), 1, 7);
    } else {
      const mpi::Status st = comm.recv(std::span<double>(data), 0, 7);
      EXPECT_EQ(st.source, 0);
      EXPECT_EQ(st.tag, 7);
      EXPECT_EQ(st.count<double>(), 1000u);
      EXPECT_DOUBLE_EQ(data[999], 999.0);
    }
  });
}

TEST(P2P, MessagesDoNotOvertake) {
  mpi::run(2, [](mpi::Comm& comm) {
    if (comm.rank() == 0) {
      for (int i = 0; i < 100; ++i) comm.send_value(i, 1, /*tag=*/3);
    } else {
      for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(comm.recv_value<int>(0, 3), i);
      }
    }
  });
}

TEST(P2P, TagSelectionSkipsNonMatching) {
  mpi::run(2, [](mpi::Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_value(1, 1, /*tag=*/10);
      comm.send_value(2, 1, /*tag=*/20);
    } else {
      // Receive the tag-20 message first even though tag-10 arrived first.
      EXPECT_EQ(comm.recv_value<int>(0, 20), 2);
      EXPECT_EQ(comm.recv_value<int>(0, 10), 1);
    }
  });
}

TEST(P2P, AnySourceReceivesFromEveryone) {
  const int p = 6;
  mpi::run(p, [p](mpi::Comm& comm) {
    if (comm.rank() == 0) {
      std::set<int> seen;
      for (int i = 1; i < p; ++i) {
        int v = 0;
        const mpi::Status st =
            comm.recv(std::span<int>(&v, 1), mpi::kAnySource, 5);
        EXPECT_EQ(v, st.source * 100);
        seen.insert(st.source);
      }
      EXPECT_EQ(seen.size(), static_cast<std::size_t>(p - 1));
    } else {
      comm.send_value(comm.rank() * 100, 0, 5);
    }
  });
}

TEST(P2P, AnyTagMatchesFirstArrival) {
  mpi::run(2, [](mpi::Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_value(11, 1, /*tag=*/4);
    } else {
      int v = 0;
      const mpi::Status st =
          comm.recv(std::span<int>(&v, 1), 0, mpi::kAnyTag);
      EXPECT_EQ(st.tag, 4);
      EXPECT_EQ(v, 11);
    }
  });
}

TEST(P2P, ProbeThenSizedReceive) {
  mpi::run(2, [](mpi::Comm& comm) {
    if (comm.rank() == 0) {
      std::vector<int> data{1, 2, 3, 4, 5};
      comm.send(std::span<const int>(data), 1, 9);
    } else {
      const mpi::Status st = comm.probe(0, 9);
      EXPECT_EQ(st.count<int>(), 5u);
      std::vector<int> data(st.count<int>());
      comm.recv(std::span<int>(data), st.source, st.tag);
      EXPECT_EQ(data.back(), 5);
    }
  });
}

TEST(P2P, RecvVectorSizesItself) {
  mpi::run(2, [](mpi::Comm& comm) {
    if (comm.rank() == 0) {
      std::vector<float> data(37, 1.5f);
      comm.send(std::span<const float>(data), 1);
    } else {
      const auto got = comm.recv_vector<float>(0);
      EXPECT_EQ(got.size(), 37u);
      EXPECT_FLOAT_EQ(got[36], 1.5f);
    }
  });
}

TEST(P2P, IprobeNonBlocking) {
  mpi::run(2, [](mpi::Comm& comm) {
    if (comm.rank() == 0) {
      // Nothing has been sent to rank 0.
      EXPECT_FALSE(comm.iprobe().has_value());
      comm.send_value(1, 1);
    } else {
      (void)comm.recv_value<int>();
      // Now something must be probe-able once it arrives; spin on iprobe.
      // (The message from rank 0 was already received above, so send one.)
    }
  });
}

TEST(P2P, IprobeSeesPendingMessage) {
  mpi::run(2, [](mpi::Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_value(123, 1, 8);
      comm.send_value(0, 1, 99);  // completion marker
    } else {
      // Wait for the marker to guarantee arrival order, then iprobe.
      (void)comm.recv_value<int>(0, 99);
      const auto st = comm.iprobe(0, 8);
      ASSERT_TRUE(st.has_value());
      EXPECT_EQ(st->bytes, sizeof(int));
      EXPECT_EQ(comm.recv_value<int>(0, 8), 123);
    }
  });
}

TEST(P2P, SendrecvRingShift) {
  const int p = 5;
  mpi::run(p, [p](mpi::Comm& comm) {
    const int r = comm.rank();
    const int next = (r + 1) % p;
    const int prev = (r - 1 + p) % p;
    int out = r;
    int in = -1;
    comm.sendrecv(std::span<const int>(&out, 1), next, 0,
                  std::span<int>(&in, 1), prev, 0);
    EXPECT_EQ(in, prev);
  });
}

TEST(P2P, IsendIrecvWait) {
  mpi::run(2, [](mpi::Comm& comm) {
    if (comm.rank() == 0) {
      int v = 77;
      mpi::Request req = comm.isend(std::span<const int>(&v, 1), 1);
      comm.wait(req);
    } else {
      int v = 0;
      mpi::Request req = comm.irecv(std::span<int>(&v, 1), 0);
      const mpi::Status st = comm.wait(req);
      EXPECT_EQ(st.bytes, sizeof(int));
      EXPECT_EQ(v, 77);
    }
  });
}

TEST(P2P, IrecvPostedBeforeSendIsMatched) {
  mpi::run(2, [](mpi::Comm& comm) {
    if (comm.rank() == 1) {
      int v = 0;
      mpi::Request req = comm.irecv(std::span<int>(&v, 1), 0, 6);
      // Tell rank 0 the receive is posted.
      comm.send_value(1, 0, 50);
      comm.wait(req);
      EXPECT_EQ(v, 88);
    } else {
      (void)comm.recv_value<int>(1, 50);
      comm.send_value(88, 1, 6);
    }
  });
}

TEST(P2P, WaitAllCompletesEverything) {
  const int p = 4;
  mpi::run(p, [p](mpi::Comm& comm) {
    const int r = comm.rank();
    std::vector<int> inbox(static_cast<std::size_t>(p), -1);
    std::vector<mpi::Request> reqs;
    for (int src = 0; src < p; ++src) {
      if (src == r) continue;
      reqs.push_back(comm.irecv(
          std::span<int>(&inbox[static_cast<std::size_t>(src)], 1), src, 2));
    }
    for (int dst = 0; dst < p; ++dst) {
      if (dst == r) continue;
      comm.send_value(r, dst, 2);
    }
    comm.wait_all(std::span<mpi::Request>(reqs));
    for (int src = 0; src < p; ++src) {
      if (src == r) continue;
      EXPECT_EQ(inbox[static_cast<std::size_t>(src)], src);
    }
  });
}

TEST(P2P, TestPollsUntilDone) {
  mpi::run(2, [](mpi::Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_value(5, 1);
    } else {
      int v = 0;
      mpi::Request req = comm.irecv(std::span<int>(&v, 1), 0);
      mpi::Status st;
      while (!comm.test(req, &st)) {
      }
      EXPECT_EQ(v, 5);
      EXPECT_EQ(st.source, 0);
    }
  });
}

TEST(P2P, SendToSelfEagerWorks) {
  mpi::run(1, [](mpi::Comm& comm) {
    comm.send_value(3, 0);
    EXPECT_EQ(comm.recv_value<int>(0), 3);
  });
}

// ---- One receive path -----------------------------------------------------
// A blocking receive is an irecv followed by its wait, and the same match
// step runs whichever side comes second: the receiver finding the message
// queued, or the sender finding the receive posted.

/// Which side of an exchange reaches the match first.
enum class Arrival { kMessageFirst, kReceiveFirst };

/// Rank 0 sends `bytes` into a `capacity`-byte receive on rank 1, taken by
/// a blocking recv or by irecv + wait.  Message-first is forced: rank 1
/// polls iprobe (sim-neutral) until the message is queued.  Receive-first
/// is steered by holding the send back in real time; simulated results may
/// not depend on the order, so the steering only picks the code path.
mpi::RunResult exchange(Arrival order, bool nonblocking, std::size_t bytes,
                        std::size_t capacity) {
  return mpi::run(2, [&](mpi::Comm& comm) {
    if (comm.rank() == 0) {
      const std::vector<std::byte> data(bytes, std::byte{7});
      comm.sim_advance(3e-5);
      if (order == Arrival::kReceiveFirst) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
      comm.send(std::span<const std::byte>(data), 1, 5);
    } else {
      std::vector<std::byte> buf(capacity);
      comm.sim_advance(1e-5);
      if (order == Arrival::kMessageFirst) {
        while (!comm.iprobe(0, 5)) std::this_thread::yield();
      }
      if (nonblocking) {
        mpi::Request req = comm.irecv(std::span<std::byte>(buf), 0, 5);
        comm.wait(req);
      } else {
        comm.recv(std::span<std::byte>(buf), 0, 5);
      }
    }
  });
}

// Eager (inline and heap), off-lock copy, and rendezvous payloads.
constexpr std::size_t kExchangeSizes[] = {64, 8192, 100000};

TEST(P2P, TruncationIsAnError) {
  for (const Arrival order : {Arrival::kMessageFirst, Arrival::kReceiveFirst}) {
    for (const bool nonblocking : {false, true}) {
      for (const std::size_t bytes : kExchangeSizes) {
        EXPECT_THROW(exchange(order, nonblocking, bytes, bytes / 4),
                     mpi::MpiError)
            << "receive-first=" << (order == Arrival::kReceiveFirst)
            << " nonblocking=" << nonblocking << " bytes=" << bytes;
      }
    }
  }
}

TEST(P2P, BlockingRecvEqualsIrecvWaitBitForBit) {
  for (const Arrival order : {Arrival::kMessageFirst, Arrival::kReceiveFirst}) {
    for (const std::size_t bytes : kExchangeSizes) {
      const mpi::RunResult blocking = exchange(order, false, bytes, bytes);
      const mpi::RunResult split = exchange(order, true, bytes, bytes);
      for (int r = 0; r < 2; ++r) {
        const auto i = static_cast<std::size_t>(r);
        EXPECT_EQ(blocking.sim_times[i], split.sim_times[i])
            << "rank " << r << " bytes=" << bytes;
        EXPECT_EQ(blocking.rank_stats[i].sim_comm_seconds,
                  split.rank_stats[i].sim_comm_seconds)
            << "rank " << r << " bytes=" << bytes;
      }
    }
  }
}

TEST(P2P, IrecvCountsCopiedBytesOnceOnEitherPath) {
  constexpr std::size_t kBytes = 1000;
  const auto result = mpi::run(2, [](mpi::Comm& comm) {
    std::vector<std::byte> buf(kBytes, std::byte{1});
    if (comm.rank() == 1) {
      // Posted first: an empty message (which copies nothing) tells rank 0
      // the receive is up.
      mpi::Request posted = comm.irecv(std::span<std::byte>(buf), 0, 6);
      comm.send(std::span<const std::byte>{}, 0, 50);
      comm.wait(posted);
      EXPECT_TRUE(comm.test(posted));  // completing again books nothing
      // Message first.
      while (!comm.iprobe(0, 7)) std::this_thread::yield();
      mpi::Request queued = comm.irecv(std::span<std::byte>(buf), 0, 7);
      comm.wait(queued);
    } else {
      comm.recv(std::span<std::byte>{}, 1, 50);
      comm.send(std::span<const std::byte>(buf), 1, 6);
      comm.send(std::span<const std::byte>(buf), 1, 7);
    }
  });
  EXPECT_EQ(result.rank_stats[1].copied_bytes, 2 * kBytes);
}

TEST(P2P, InvalidPeerRejected) {
  EXPECT_THROW(
      mpi::run(2,
               [](mpi::Comm& comm) {
                 if (comm.rank() == 0) comm.send_value(1, 5);
                 else (void)comm.recv_value<int>();
               }),
      mpi::MpiError);
}

TEST(P2P, NegativeUserTagRejected) {
  EXPECT_THROW(
      mpi::run(2,
               [](mpi::Comm& comm) {
                 if (comm.rank() == 0) comm.send_value(1, 1, -5);
                 else (void)comm.recv_value<int>();
               }),
      mpi::MpiError);
}

TEST(P2P, EmptyMessageDelivers) {
  mpi::run(2, [](mpi::Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(std::span<const int>{}, 1, 3);
    } else {
      const mpi::Status st = comm.recv(std::span<int>{}, 0, 3);
      EXPECT_EQ(st.bytes, 0u);
    }
  });
}

TEST(P2P, StatsCountPrimitivesAndBytes) {
  const auto result = mpi::run(2, [](mpi::Comm& comm) {
    if (comm.rank() == 0) {
      std::vector<int> data(100, 2);
      comm.send(std::span<const int>(data), 1);
      comm.send(std::span<const int>(data), 1);
    } else {
      (void)comm.recv_vector<int>(0);
      (void)comm.recv_vector<int>(0);
    }
  });
  const auto& s0 = result.rank_stats[0];
  const auto& s1 = result.rank_stats[1];
  EXPECT_EQ(s0.calls_to(mpi::Primitive::kSend), 2u);
  EXPECT_EQ(s0.p2p_messages_sent, 2u);
  EXPECT_EQ(s0.p2p_bytes_sent, 2u * 100u * sizeof(int));
  EXPECT_EQ(s1.calls_to(mpi::Primitive::kRecv), 2u);
  EXPECT_EQ(s1.calls_to(mpi::Primitive::kProbe), 2u);
  EXPECT_EQ(s1.p2p_bytes_received, 2u * 100u * sizeof(int));
}

TEST(P2P, RunResultAggregates) {
  const auto result = mpi::run(3, [](mpi::Comm& comm) {
    if (comm.rank() != 0) comm.send_value(1, 0);
    else {
      (void)comm.recv_value<int>();
      (void)comm.recv_value<int>();
    }
  });
  EXPECT_EQ(result.total_stats().calls_to(mpi::Primitive::kSend), 2u);
  EXPECT_EQ(result.total_stats().calls_to(mpi::Primitive::kRecv), 2u);
  EXPECT_EQ(result.rank_stats.size(), 3u);
  EXPECT_EQ(result.sim_times.size(), 3u);
  EXPECT_GE(result.max_sim_time(), 0.0);
}

TEST(P2P, LargeRendezvousMessage) {
  // Larger than the default eager threshold, so the rendezvous path runs.
  mpi::run(2, [](mpi::Comm& comm) {
    const std::size_t n = 1 << 17;  // 512 KiB of ints
    if (comm.rank() == 0) {
      std::vector<int> data(n, 9);
      comm.send(std::span<const int>(data), 1);
    } else {
      const auto got = comm.recv_vector<int>(0);
      EXPECT_EQ(got.size(), n);
      EXPECT_EQ(got.front(), 9);
      EXPECT_EQ(got.back(), 9);
    }
  });
}

// ---- Property-style sweeps over world sizes -------------------------------

class WorldSweep : public ::testing::TestWithParam<int> {};

TEST_P(WorldSweep, TokenRingVisitsEveryRank) {
  const int p = GetParam();
  mpi::run(p, [p](mpi::Comm& comm) {
    const int r = comm.rank();
    if (p == 1) return;
    if (r == 0) {
      comm.send_value(1, 1 % p);
      const int token = comm.recv_value<int>(p - 1);
      EXPECT_EQ(token, p);  // incremented once per rank
    } else {
      const int token = comm.recv_value<int>(r - 1);
      comm.send_value(token + 1, (r + 1) % p);
    }
  });
}

TEST_P(WorldSweep, PairwiseExchangeSumsMatch) {
  const int p = GetParam();
  const auto result = mpi::run(p, [p](mpi::Comm& comm) {
    const int r = comm.rank();
    long long sum = 0;
    std::vector<mpi::Request> reqs;
    std::vector<int> inbox(static_cast<std::size_t>(p), 0);
    for (int peer = 0; peer < p; ++peer) {
      if (peer == r) continue;
      reqs.push_back(comm.irecv(
          std::span<int>(&inbox[static_cast<std::size_t>(peer)], 1), peer, 1));
    }
    for (int peer = 0; peer < p; ++peer) {
      if (peer == r) continue;
      comm.send_value(r + peer, peer, 1);
    }
    comm.wait_all(std::span<mpi::Request>(reqs));
    for (int peer = 0; peer < p; ++peer) {
      if (peer == r) continue;
      sum += inbox[static_cast<std::size_t>(peer)];
      EXPECT_EQ(inbox[static_cast<std::size_t>(peer)], peer + r);
    }
    (void)sum;
  });
  EXPECT_EQ(result.total_stats().p2p_messages_sent,
            static_cast<std::uint64_t>(p) * static_cast<std::uint64_t>(p - 1));
}

TEST_P(WorldSweep, RandomCommunicationWithAnySource) {
  const int p = GetParam();
  // Every rank sends a random number of messages to random peers, then all
  // message counts are circulated so each rank knows how many to expect.
  mpi::run(p, [](mpi::Comm& comm) {
    const int r = comm.rank();
    const int p2 = comm.size();
    auto rng = dipdc::support::make_stream(2024, static_cast<std::uint64_t>(r));
    std::vector<int> sends_to(static_cast<std::size_t>(p2), 0);
    const int nmsg = static_cast<int>(rng.uniform_index(5));
    for (int i = 0; i < nmsg; ++i) {
      const int dst = static_cast<int>(
          rng.uniform_index(static_cast<std::uint64_t>(p2)));
      ++sends_to[static_cast<std::size_t>(dst)];
    }
    std::vector<int> recv_counts(static_cast<std::size_t>(p2), 0);
    comm.alltoall(std::span<const int>(sends_to),
                  std::span<int>(recv_counts));
    int expected = 0;
    for (const int c : recv_counts) expected += c;
    for (int dst = 0; dst < p2; ++dst) {
      for (int i = 0; i < sends_to[static_cast<std::size_t>(dst)]; ++i) {
        comm.send_value(r, dst, 42);
      }
    }
    for (int i = 0; i < expected; ++i) {
      int v = -1;
      const mpi::Status st =
          comm.recv(std::span<int>(&v, 1), mpi::kAnySource, 42);
      EXPECT_EQ(v, st.source);
    }
  });
}

INSTANTIATE_TEST_SUITE_P(WorldSizes, WorldSweep,
                         ::testing::Values(1, 2, 3, 4, 7, 8, 13, 16));
