// Transport-backend seam coverage (see src/minimpi/backend.hpp).
//
// Three layers:
//  1. Unit tests of the seam pieces themselves: wire (de)serialization and
//     the raw channel contract each backend fulfils.
//  2. Cross-backend equivalence: the same program on threads/shm/tcp must
//     produce bit-identical simulated times and user-visible counters —
//     the seam carries simulated timing inside the frame and delivery
//     happens at the same program point on every backend, so nothing may
//     drift, not even in the last ulp.
//  3. Failure semantics per backend: deadlock detection, fault-injection
//     kills, reliable-delivery recovery, and the borrowed-payload guard
//     must behave identically whether ranks exchange pointers or frames.
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "minimpi/backend.hpp"
#include "minimpi/comm.hpp"
#include "minimpi/error.hpp"
#include "minimpi/ops.hpp"
#include "minimpi/runtime.hpp"

namespace mpi = dipdc::minimpi;
namespace mb = dipdc::minimpi::detail_backend;

#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define DIPDC_TSAN 1
#endif
#endif
#if !defined(DIPDC_TSAN) && defined(__SANITIZE_THREAD__)
#define DIPDC_TSAN 1
#endif

namespace {

/// The shm backend forks a router process; under ThreadSanitizer fork is
/// only supported in limited ways and the child's shadow state is not
/// usable, so those tests are skipped in TSan builds (the tcp and threads
/// legs still run).
bool skip_under_tsan(mpi::BackendKind kind) {
#ifdef DIPDC_TSAN
  return kind == mpi::BackendKind::kShm;
#else
  (void)kind;
  return false;
#endif
}

std::vector<mpi::BackendKind> all_backends() {
  return {mpi::BackendKind::kThreads, mpi::BackendKind::kShm,
          mpi::BackendKind::kTcp};
}

mpi::RuntimeOptions with_backend(mpi::BackendKind kind,
                                 mpi::RuntimeOptions base = {}) {
  base.backend.kind = kind;
  return base;
}

std::string backend_param_name(
    const ::testing::TestParamInfo<mpi::BackendKind>& param) {
  return mpi::to_string(param.param);
}

/// Runs `fn` under every backend and asserts the RunResult is
/// bit-identical to the threads run: same per-rank simulated clocks and
/// the same user-visible communication counters.
void expect_equivalent_across_backends(
    int nranks, const std::function<void(mpi::Comm&)>& fn,
    mpi::RuntimeOptions base = {}) {
  const mpi::RunResult ref =
      mpi::run(nranks, fn, with_backend(mpi::BackendKind::kThreads, base));
  for (const mpi::BackendKind kind :
       {mpi::BackendKind::kShm, mpi::BackendKind::kTcp}) {
    if (skip_under_tsan(kind)) continue;
    SCOPED_TRACE(std::string("backend=") + mpi::to_string(kind));
    const mpi::RunResult got = mpi::run(nranks, fn, with_backend(kind, base));
    ASSERT_EQ(got.sim_times.size(), ref.sim_times.size());
    for (std::size_t r = 0; r < ref.sim_times.size(); ++r) {
      // Bitwise double equality: the timing fields travel inside the wire
      // frame, so not even a ulp of drift is acceptable.
      EXPECT_EQ(got.sim_times[r], ref.sim_times[r]) << "rank " << r;
    }
    for (std::size_t r = 0; r < ref.rank_stats.size(); ++r) {
      const mpi::CommStats& a = ref.rank_stats[r];
      const mpi::CommStats& b = got.rank_stats[r];
      EXPECT_EQ(a.calls, b.calls) << "rank " << r;
      EXPECT_EQ(a.p2p_bytes_sent, b.p2p_bytes_sent) << "rank " << r;
      EXPECT_EQ(a.p2p_messages_sent, b.p2p_messages_sent) << "rank " << r;
      EXPECT_EQ(a.p2p_bytes_received, b.p2p_bytes_received) << "rank " << r;
      EXPECT_EQ(a.p2p_messages_received, b.p2p_messages_received)
          << "rank " << r;
      EXPECT_EQ(a.transport_bytes_sent, b.transport_bytes_sent)
          << "rank " << r;
      EXPECT_EQ(a.transport_messages_sent, b.transport_messages_sent)
          << "rank " << r;
      // (rendezvous_stalls is deliberately absent: it records whether the
      // sender REALLY blocked before the receiver posted — a wall-clock
      // race that varies run to run on every backend, threads included.)
      EXPECT_EQ(a.sim_comm_seconds, b.sim_comm_seconds) << "rank " << r;
      EXPECT_EQ(a.sim_compute_seconds, b.sim_compute_seconds) << "rank " << r;
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Seam units: kind parsing and wire (de)serialization.

TEST(BackendWire, KindNamesRoundTrip) {
  for (const mpi::BackendKind kind : all_backends()) {
    mpi::BackendKind parsed{};
    ASSERT_TRUE(mpi::parse_backend_kind(mpi::to_string(kind), &parsed));
    EXPECT_EQ(parsed, kind);
  }
  mpi::BackendKind parsed{};
  EXPECT_FALSE(mpi::parse_backend_kind("carrier-pigeon", &parsed));
  EXPECT_FALSE(mpi::parse_backend_kind("", &parsed));
}

TEST(BackendWire, EnvelopeSurvivesSerialization) {
  // Pools recycle through deleters holding shared_from_this, so they must
  // live behind a shared_ptr (as in Runtime).
  const auto pool_ptr =
      std::make_shared<dipdc::minimpi::detail::BufferPool>(/*enabled=*/true);
  dipdc::minimpi::detail::BufferPool& pool = *pool_ptr;
  dipdc::minimpi::detail::Envelope env;
  env.source = 3;
  env.src_world = 7;
  env.dest = 1;
  env.tag = 42;
  env.context = 5;
  env.rendezvous = true;
  env.internal = false;
  env.trace_seq = 991;
  env.arrival_head = 1.25e-6;
  env.byte_time = 3.5e-7;
  std::vector<std::byte> body(70000);
  for (std::size_t i = 0; i < body.size(); ++i) {
    body[i] = static_cast<std::byte>(i * 31 + 7);
  }
  env.payload = dipdc::minimpi::detail::Payload::owned(
      pool.acquire(body.size(), nullptr), body);

  std::vector<std::byte> frame;
  mb::serialize_envelope(env, frame);
  EXPECT_EQ(frame.size(), sizeof(mb::WireHeader) + body.size());

  dipdc::minimpi::detail::Envelope out;
  mb::deserialize_envelope(frame, out, pool);
  EXPECT_EQ(out.source, env.source);
  EXPECT_EQ(out.src_world, env.src_world);
  EXPECT_EQ(out.dest, env.dest);
  EXPECT_EQ(out.tag, env.tag);
  EXPECT_EQ(out.context, env.context);
  EXPECT_EQ(out.rendezvous, env.rendezvous);
  EXPECT_EQ(out.internal, env.internal);
  EXPECT_EQ(out.trace_seq, env.trace_seq);
  EXPECT_EQ(out.arrival_head, env.arrival_head);  // bitwise
  EXPECT_EQ(out.byte_time, env.byte_time);
  ASSERT_EQ(out.payload.size(), body.size());
  EXPECT_EQ(std::memcmp(out.payload.data(), body.data(), body.size()), 0);
  // The deserialized payload owns its bytes (pooled), never a view into
  // the frame.
  EXPECT_TRUE(out.payload.shareable());
  EXPECT_FALSE(out.payload.is_borrowed());
}

TEST(BackendWire, SmallPayloadDeserializesInline) {
  const auto pool_ptr =
      std::make_shared<dipdc::minimpi::detail::BufferPool>(/*enabled=*/true);
  dipdc::minimpi::detail::BufferPool& pool = *pool_ptr;
  dipdc::minimpi::detail::Envelope env;
  const std::vector<std::byte> body(16, std::byte{0xAB});
  env.payload = dipdc::minimpi::detail::Payload::inline_copy(body);
  std::vector<std::byte> frame;
  mb::serialize_envelope(env, frame);
  dipdc::minimpi::detail::Envelope out;
  mb::deserialize_envelope(frame, out, pool);
  ASSERT_EQ(out.payload.size(), body.size());
  EXPECT_FALSE(out.payload.shareable());  // inline storage, no heap buffer
}

TEST(BackendWire, MalformedFramesAreRejected) {
  const auto pool_ptr =
      std::make_shared<dipdc::minimpi::detail::BufferPool>(/*enabled=*/true);
  dipdc::minimpi::detail::BufferPool& pool = *pool_ptr;
  dipdc::minimpi::detail::Envelope out;
  // Too short for a header.
  std::vector<std::byte> runt(sizeof(mb::WireHeader) - 1);
  EXPECT_THROW(mb::deserialize_envelope(runt, out, pool), mpi::MpiError);
  // Bad magic.
  std::vector<std::byte> frame(sizeof(mb::WireHeader));
  EXPECT_THROW(mb::deserialize_envelope(frame, out, pool), mpi::MpiError);
  // Good magic but the payload length disagrees with the frame size.
  mb::WireHeader h;
  h.payload_bytes = 100;
  std::memcpy(frame.data(), &h, sizeof(h));
  EXPECT_THROW(mb::deserialize_envelope(frame, out, pool), mpi::MpiError);
}

// ---------------------------------------------------------------------------
// Raw channel contract: every backend echoes each rank's frame intact,
// whatever its size.

class BackendChannel : public ::testing::TestWithParam<mpi::BackendKind> {};

TEST_P(BackendChannel, RoundTripsFramesOfEverySize) {
  if (skip_under_tsan(GetParam())) {
    GTEST_SKIP() << "shm backend forks; not supported under TSan";
  }
  mpi::BackendOptions opt;
  opt.kind = GetParam();
  // A deliberately tiny ring so the larger frames must stream through in
  // many chunks.
  opt.shm_ring_bytes = 4096;
  auto backend = mb::make_backend(opt);
  EXPECT_STREQ(backend->name(), mpi::to_string(GetParam()));
  backend->connect(/*nranks=*/2);

  // Empty, shorter than a wire header, one past the eager threshold, and
  // larger than a loopback socket's send and receive buffers together.
  std::vector<std::byte> echo;
  for (const std::size_t size :
       {std::size_t{0}, std::size_t{33}, std::size_t{64} * 1024 + 1,
        std::size_t{8} << 20}) {
    for (int rank = 0; rank < 2; ++rank) {
      std::vector<std::byte> frame(size);
      for (std::size_t i = 0; i < size; ++i) {
        frame[i] = static_cast<std::byte>(i * 131 + size +
                                          static_cast<std::size_t>(rank));
      }
      backend->roundtrip(rank, frame, echo);
      EXPECT_TRUE(echo == frame) << "rank " << rank << ", " << size
                                 << "-byte frame";
    }
  }
  backend->finalize();
  backend->finalize();  // idempotent
}

INSTANTIATE_TEST_SUITE_P(AllBackends, BackendChannel,
                         ::testing::ValuesIn(all_backends()),
                         backend_param_name);

// ---------------------------------------------------------------------------
// Cross-backend equivalence of full runs.

TEST(BackendEquivalence, PingPongEagerAndRendezvous) {
  expect_equivalent_across_backends(2, [](mpi::Comm& comm) {
    // Eager (small), then rendezvous (past the 64 KiB default threshold).
    for (const std::size_t n : {std::size_t{64}, std::size_t{100} * 1024}) {
      std::vector<double> buf(n / sizeof(double));
      if (comm.rank() == 0) {
        std::iota(buf.begin(), buf.end(), 1.0);
        comm.send(std::span<const double>(buf), 1, 3);
        comm.recv(std::span<double>(buf), 1, 4);
      } else {
        comm.recv(std::span<double>(buf), 0, 3);
        EXPECT_DOUBLE_EQ(buf.front(), 1.0);
        EXPECT_DOUBLE_EQ(buf.back(), static_cast<double>(buf.size()));
        comm.send(std::span<const double>(buf), 0, 4);
      }
    }
  });
}

TEST(BackendEquivalence, CollectivesAndSubcommunicators) {
  expect_equivalent_across_backends(4, [](mpi::Comm& comm) {
    std::vector<int> v(257, comm.rank() + 1);
    std::vector<int> sum(257);
    comm.allreduce(std::span<const int>(v), std::span<int>(sum),
                   mpi::ops::Sum{});
    EXPECT_EQ(sum[0], 1 + 2 + 3 + 4);
    const int color = comm.rank() % 2;
    mpi::Comm sub = comm.split(color, comm.rank());
    const int peer_sum = sub.allreduce_value(comm.rank(), mpi::ops::Sum{});
    EXPECT_EQ(peer_sum, color == 0 ? 0 + 2 : 1 + 3);
    std::vector<float> gathered(
        static_cast<std::size_t>(comm.size()) * 100);
    const std::vector<float> mine(100, static_cast<float>(comm.rank()));
    comm.allgather(std::span<const float>(mine),
                   std::span<float>(gathered));
    comm.barrier();
  });
}

TEST(BackendEquivalence, WildcardsAndNonblocking) {
  expect_equivalent_across_backends(3, [](mpi::Comm& comm) {
    if (comm.rank() == 0) {
      int a = 0;
      int b = 0;
      mpi::Request ra = comm.irecv(std::span<int>(&a, 1));
      mpi::Request rb = comm.irecv(std::span<int>(&b, 1));
      comm.wait(ra);
      comm.wait(rb);
      EXPECT_EQ(a + b, 10 + 20);
    } else {
      comm.send_value(comm.rank() == 1 ? 10 : 20, 0);
    }
  });
}

TEST(BackendEquivalence, SimComputePhasesInterleaved) {
  expect_equivalent_across_backends(4, [](mpi::Comm& comm) {
    for (int it = 0; it < 3; ++it) {
      comm.sim_compute(1e6 * (comm.rank() + 1), 1e5);
      // The reduced value is every rank's pre-collective clock max; the
      // cross-backend comparison of the resulting sim times is the point.
      const double t =
          comm.allreduce_value(comm.wtime(), mpi::ops::Max{});
      EXPECT_GT(t, 0.0);
    }
  });
}

// ---------------------------------------------------------------------------
// Failure semantics must not depend on the backend.

class BackendFailures : public ::testing::TestWithParam<mpi::BackendKind> {};

TEST_P(BackendFailures, DeadlockStillDetected) {
  if (skip_under_tsan(GetParam())) {
    GTEST_SKIP() << "shm backend forks; not supported under TSan";
  }
  // Both ranks post a receive nobody will ever satisfy.  A rank blocked in
  // a *backend* channel never registers as a runtime waiter, so this also
  // regression-tests that the detector neither misses the deadlock nor
  // fires while a frame round-trip is still in flight.
  EXPECT_THROW(mpi::run(
                   2,
                   [](mpi::Comm& comm) {
                     int v = 0;
                     comm.recv(std::span<int>(&v, 1));
                   },
                   with_backend(GetParam())),
               mpi::DeadlockError);
}

TEST_P(BackendFailures, RendezvousDeadlockStillDetected) {
  if (skip_under_tsan(GetParam())) {
    GTEST_SKIP() << "shm backend forks; not supported under TSan";
  }
  // Head-to-head blocking rendezvous sends: the classic Module 1 deadlock.
  // The frame round-trip happens BEFORE the sender blocks, so the detector
  // sees both ranks as waiters exactly like on the threads backend.
  mpi::RuntimeOptions opt = with_backend(GetParam());
  opt.eager_threshold = 0;  // force rendezvous for any payload
  EXPECT_THROW(mpi::run(
                   2,
                   [](mpi::Comm& comm) {
                     const int v = comm.rank();
                     int got = 0;
                     comm.send(std::span<const int>(&v, 1), 1 - comm.rank());
                     comm.recv(std::span<int>(&got, 1));
                   },
                   opt),
               mpi::DeadlockError);
}

TEST_P(BackendFailures, FaultKillPropagates) {
  if (skip_under_tsan(GetParam())) {
    GTEST_SKIP() << "shm backend forks; not supported under TSan";
  }
  mpi::RuntimeOptions opt = with_backend(GetParam());
  opt.faults.kill_rank = 1;
  opt.faults.kill_at_call = 1;
  EXPECT_THROW(mpi::run(
                   2,
                   [](mpi::Comm& comm) {
                     int v = comm.rank();
                     comm.allreduce_value(v, mpi::ops::Sum{});
                   },
                   opt),
               mpi::RankFailedError);
}

TEST_P(BackendFailures, ReliableDeliveryRecoversFromDrops) {
  if (skip_under_tsan(GetParam())) {
    GTEST_SKIP() << "shm backend forks; not supported under TSan";
  }
  mpi::RuntimeOptions opt = with_backend(GetParam());
  opt.faults.seed = 7;
  opt.faults.drop_prob = 0.5;
  const mpi::RunResult res = mpi::run(
      2,
      [](mpi::Comm& comm) {
        for (int i = 0; i < 20; ++i) {
          if (comm.rank() == 0) {
            comm.send_reliable_value(i * 3, 1);
          } else {
            EXPECT_EQ(comm.recv_reliable_value<int>(0), i * 3);
          }
        }
      },
      opt);
  // With drop_prob=0.5 over 20 messages, some retransmission is certain.
  EXPECT_GT(res.total_stats().reliable_retries, 0u);
}

TEST_P(BackendFailures, LargeFramesStreamThroughTinyShmRing) {
  if (GetParam() != mpi::BackendKind::kShm) {
    GTEST_SKIP() << "ring sizing only applies to the shm backend";
  }
#ifdef DIPDC_TSAN
  GTEST_SKIP() << "shm backend forks; not supported under TSan";
#endif
  // A 4 KiB ring versus a ~1 MiB rendezvous payload: frames must stream
  // through the ring in chunks without corruption.
  mpi::RuntimeOptions opt = with_backend(mpi::BackendKind::kShm);
  opt.backend.shm_ring_bytes = 4096;
  mpi::run(
      2,
      [](mpi::Comm& comm) {
        std::vector<std::uint64_t> data(128 * 1024);
        if (comm.rank() == 0) {
          std::iota(data.begin(), data.end(), std::uint64_t{0});
          comm.send(std::span<const std::uint64_t>(data), 1);
        } else {
          comm.recv(std::span<std::uint64_t>(data), 0);
          for (std::size_t i = 0; i < data.size(); i += 9973) {
            ASSERT_EQ(data[i], i);
          }
        }
      },
      opt);
}

TEST_P(BackendFailures, LargeFramesStreamThroughTcp) {
  if (GetParam() != mpi::BackendKind::kTcp) {
    GTEST_SKIP() << "socket buffering only applies to the tcp backend";
  }
  // A 32 MiB rendezvous payload is far larger than a loopback connection's
  // socket buffers, so the frame only gets through if its echo is read
  // while it is still being written.  A round trip that writes the whole
  // frame first hangs here (the ctest timeout turns that into a failure).
  mpi::run(
      2,
      [](mpi::Comm& comm) {
        std::vector<std::uint64_t> data(4 * 1024 * 1024);
        if (comm.rank() == 0) {
          std::iota(data.begin(), data.end(), std::uint64_t{0});
          comm.send(std::span<const std::uint64_t>(data), 1);
        } else {
          comm.recv(std::span<std::uint64_t>(data), 0);
          for (std::size_t i = 0; i < data.size(); ++i) {
            ASSERT_EQ(data[i], i) << "word " << i;
          }
        }
      },
      with_backend(mpi::BackendKind::kTcp));
}

INSTANTIATE_TEST_SUITE_P(AllBackends, BackendFailures,
                         ::testing::ValuesIn(all_backends()),
                         backend_param_name);

// ---------------------------------------------------------------------------
// Teardown cost: a tcp run's fixed overhead is opening and closing its
// sockets, nothing that waits on a timer (50 ms per run would fail this).

TEST(BackendTeardown, TcpRunsHaveNoFixedTeardownCost) {
  constexpr int kRuns = 10;
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kRuns; ++i) {
    mpi::run(4, [](mpi::Comm&) {}, with_backend(mpi::BackendKind::kTcp));
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed, std::chrono::milliseconds(kRuns * 50 / 2))
      << kRuns << " empty 4-rank tcp runs took "
      << std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
             .count()
      << " ms";
}

// ---------------------------------------------------------------------------
// Zero-copy guard: borrowed/shared payloads must degrade to copies at the
// seam, never dangle (the whole point of forcing real serialization).

TEST(BackendZeroCopy, RendezvousBorrowDegradesToCopyAcrossSeam) {
  for (const mpi::BackendKind kind :
       {mpi::BackendKind::kShm, mpi::BackendKind::kTcp}) {
    if (skip_under_tsan(kind)) continue;
    SCOPED_TRACE(mpi::to_string(kind));
    mpi::RuntimeOptions opt = with_backend(kind);
    opt.eager_threshold = 0;  // force the rendezvous (borrow-eligible) path
    const mpi::RunResult res = mpi::run(
        2,
        [](mpi::Comm& comm) {
          std::vector<int> v(5000, comm.rank());
          if (comm.rank() == 0) {
            comm.send(std::span<const int>(v), 1);
          } else {
            comm.recv(std::span<int>(v), 0);
            EXPECT_EQ(v[4999], 0);
          }
        },
        opt);
    // If the call site had still borrowed, Runtime::transport_envelope's
    // guard would have thrown; additionally the sender must report the
    // payload as copied, not zero-copied.
    EXPECT_EQ(res.rank_stats[0].zero_copy_bytes, 0u);
    EXPECT_GT(res.rank_stats[0].copied_bytes, 0u);
    EXPECT_GT(res.rank_stats[0].backend_frames, 0u);
    EXPECT_GT(res.rank_stats[0].backend_wire_bytes,
              res.rank_stats[0].backend_frames * sizeof(mb::WireHeader));
  }
}

TEST(BackendZeroCopy, ThreadsBackendStillBorrows) {
  // The guard must not regress the fast path: on the threads backend the
  // rendezvous borrow is still taken and no frames are ever produced.
  mpi::RuntimeOptions opt = with_backend(mpi::BackendKind::kThreads);
  opt.eager_threshold = 0;
  const mpi::RunResult res = mpi::run(
      2,
      [](mpi::Comm& comm) {
        std::vector<int> v(5000, comm.rank());
        if (comm.rank() == 0) {
          comm.send(std::span<const int>(v), 1);
        } else {
          comm.recv(std::span<int>(v), 0);
        }
      },
      opt);
  EXPECT_GT(res.rank_stats[0].zero_copy_bytes, 0u);
  EXPECT_EQ(res.rank_stats[0].backend_frames, 0u);
  EXPECT_EQ(res.rank_stats[0].backend_wire_bytes, 0u);
}
