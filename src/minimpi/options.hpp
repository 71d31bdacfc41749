// Runtime configuration.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "perfmodel/machine.hpp"

namespace dipdc::minimpi {

/// Which transport carries envelope frames between ranks (see
/// minimpi/backend.hpp for the seam itself).
///
///  - kThreads: ranks are threads in one address space and envelopes are
///    handed across by pointer — the seed behaviour, zero overhead.
///  - kShm: every envelope is serialized into a length-prefixed frame and
///    round-trips through shared-memory rings serviced by a forked router
///    *process*, forcing true payload serialization across an address-space
///    boundary.
///  - kTcp: each rank's frames round-trip through its own loopback TCP
///    connection, pushing every payload through the kernel network stack.
///
/// Simulated results are bit-identical across backends: the simulated
/// timing fields travel inside the frame, and matching/ordering stay above
/// the seam.  Only the real-world transport of the bytes changes.
enum class BackendKind { kThreads, kShm, kTcp };

struct BackendOptions {
  BackendKind kind = BackendKind::kThreads;

  /// Shared-memory backend: ring capacity per rank per direction.  Frames
  /// larger than the ring stream through it in chunks, so this bounds
  /// memory, not message size.
  std::size_t shm_ring_bytes = 1 << 20;

  /// TCP backend: address the rank connections' listener binds.  Loopback
  /// by default; a routable address is the first step towards ranks on
  /// other machines.
  std::string tcp_host = "127.0.0.1";
  /// TCP backend: listener port; 0 picks an ephemeral port (concurrent
  /// worlds never collide).
  std::uint16_t tcp_port = 0;
};

/// Deterministic fault-injection plan.  Faults are drawn from per-rank
/// xoshiro256** streams derived from `seed`, so the same (plan, seed,
/// program) triple always injects the identical fault sequence — runs are
/// reproducible bit-for-bit, which is what makes injected failures
/// debuggable and testable.  With the default plan (all probabilities zero,
/// no kill) the transport takes no extra branches and draws nothing, so
/// fault-free runs stay bit-identical to a build without this subsystem.
///
/// Only *user-level* point-to-point messages (Send/Isend/Sendrecv and the
/// reliable-delivery frames built on them) are injectable; collective-
/// internal traffic and reliable-delivery acknowledgements travel on the
/// lossless control channel.  A dropped message is charged its send
/// overhead and then vanishes (fire-and-forget loss, even for
/// rendezvous-sized payloads); a duplicated message is delivered twice
/// (at-least-once semantics); a delayed message arrives `delay_seconds`
/// later in simulated time.
struct FaultOptions {
  /// Seed for the per-rank fault streams (stream r = make_stream(seed, r)).
  std::uint64_t seed = 1;

  /// Probability that an outgoing user p2p message is dropped.
  double drop_prob = 0.0;
  /// Probability that an outgoing user p2p message is delivered twice.
  double dup_prob = 0.0;
  /// Probability that an outgoing user p2p message is delayed.
  double delay_prob = 0.0;
  /// Simulated delivery delay applied to delayed messages.
  double delay_seconds = 1e-5;

  /// World rank to kill (-1 = nobody).
  int kill_rank = -1;
  /// The killed rank dies at the start of its Nth user primitive call
  /// (1-based); 0 disables the kill even when kill_rank is set.
  std::uint64_t kill_at_call = 0;

  /// Any message-level fault armed?
  [[nodiscard]] bool injects() const {
    return drop_prob > 0.0 || dup_prob > 0.0 || delay_prob > 0.0;
  }
  /// Rank-kill armed?
  [[nodiscard]] bool kills() const {
    return kill_rank >= 0 && kill_at_call > 0;
  }
  [[nodiscard]] bool enabled() const { return injects() || kills(); }
};

/// Tuning for the acknowledged-delivery layer (Comm::send_reliable /
/// recv_reliable).  The acknowledgement timeout is not a wall-clock timer:
/// it fires exactly when the runtime proves that no rank can make progress
/// (the same machinery as deadlock detection), so retry sequences are as
/// deterministic as the fault plan that caused them.  Reliable delivery
/// therefore requires RuntimeOptions::detect_deadlock to stay enabled.
struct ReliableOptions {
  /// Resend attempts after the first transmission; exhausting the budget
  /// throws MpiError from send_reliable.
  int max_retries = 8;
  /// Simulated seconds charged to the sender's clock per expired
  /// acknowledgement timeout (models the retransmission timer).
  double timeout_seconds = 1e-3;
};

/// Transport fast-path tuning.  None of these settings change simulated
/// results — they only control how much real-world work (allocation,
/// memcpy) the transport performs per message, and are toggleable exactly
/// so tests can prove sim-neutrality by comparing runs bit-for-bit.
struct TransportOptions {
  /// Payloads of at most this many bytes are stored inline in the pooled
  /// envelope (no payload buffer at all).  Clamped to
  /// detail::Payload::kMaxInline (256).
  std::size_t inline_threshold = 256;

  /// Recycle payload buffers and envelopes through freelists instead of
  /// allocating per message.
  bool pooling = true;

  /// Allow zero-copy payload handoff: blocking rendezvous senders lend
  /// their buffer to the envelope, and collective-internal receivers adopt
  /// shared payload buffers instead of copying them out.
  bool zero_copy = true;
};

/// Per-collective algorithm override.  kAuto picks by communicator size
/// and payload volume under the simulator's cost model (see the thresholds
/// in CollectiveOptions); the specific values force one algorithm where it
/// applies and fall back to the classic one where it does not.
enum class CollectiveAlgorithm {
  kAuto,
  kClassic,            // the seed algorithms (linear roots, reduce+bcast)
  kTree,               // binomial tree (scatter/scatterv/gather/gatherv)
  kRecursiveDoubling,  // allreduce
  kRing,               // allreduce (Rabenseifner), allgather
};

struct CollectiveOptions {
  CollectiveAlgorithm scatter = CollectiveAlgorithm::kAuto;  // + scatterv
  CollectiveAlgorithm gather = CollectiveAlgorithm::kAuto;   // + gatherv
  CollectiveAlgorithm allreduce = CollectiveAlgorithm::kAuto;
  CollectiveAlgorithm allgather = CollectiveAlgorithm::kAuto;

  /// kAuto picks binomial-tree scatter/gather only at or above this rank
  /// count: under this simulator's LogGP model an eager sender pays only
  /// its injection overhead per message, so the linear root loop is
  /// sim-optimal until (p-1)*o outweighs the extra tree latency depth.
  int tree_rank_threshold = 48;

  /// kAuto allreduce: payloads of at least this many bytes use recursive
  /// doubling; smaller ones keep the seed reduce+bcast so that existing
  /// module timings stay bit-identical.
  std::size_t allreduce_rd_threshold = 512;
  /// kAuto allreduce: payloads of at least this many bytes (with p >= 4)
  /// use Rabenseifner reduce-scatter + ring allgather.
  std::size_t allreduce_ring_threshold = 64 * 1024;
  /// kAuto allgather: total gathered volume of at least this many bytes
  /// (with p >= 4) uses the ring algorithm.
  std::size_t allgather_ring_threshold = 64 * 1024;
};

struct RuntimeOptions {
  /// Transport backend carrying envelope frames between ranks.  The
  /// default (threads) is bit-identical to builds predating the seam.
  BackendOptions backend{};

  /// Messages of at most this many payload bytes are sent eagerly: the
  /// sender buffers and returns immediately (like MPI's eager protocol).
  /// Larger messages use a rendezvous: the sender blocks until the receiver
  /// has matched the message.  Set to 0 to force rendezvous everywhere —
  /// that is how Module 1 demonstrates that blocking sends can deadlock.
  std::size_t eager_threshold = 64 * 1024;

  /// When every live rank is blocked and no pending operation can complete,
  /// throw DeadlockError in all of them instead of hanging.
  bool detect_deadlock = true;

  /// Machine model for simulated time.  The default models a single node
  /// whose core count equals the rank count; experiments override this with
  /// multi-node configurations.
  perfmodel::MachineConfig machine{};

  /// Rank-to-node placement under `machine`.
  perfmodel::Placement placement{};

  /// Record a TraceEvent for every user-level operation, plus simulated
  /// compute/idle spans and module phases (see trace.hpp); RunResult::trace
  /// carries the merged log.
  bool record_trace = false;

  /// Additionally stamp trace events with wall-clock times (real seconds
  /// since the world started).  Off by default: wall stamps vary run to
  /// run, and leaving them zeroed keeps exported traces bit-identical for
  /// deterministic programs.  Requires record_trace.
  bool trace_wall_time = false;

  /// Record per-channel user p2p traffic (bytes/messages per directed
  /// (source, destination) world-rank pair); RunResult::channels carries the
  /// merged table.  This is the program-introspection hook the conformance
  /// fuzzer checks "bytes sent == bytes received per channel" against.  Off
  /// by default: fault-free runs stay bit-identical to earlier builds.
  bool record_channels = false;

  /// Transport fast-path tuning (sim-neutral).
  TransportOptions transport{};

  /// Collective algorithm selection (changes simulated message patterns).
  CollectiveOptions collectives{};

  /// Deterministic fault injection (disabled by default; when disabled the
  /// transport behaves bit-identically to a fault-free build).
  FaultOptions faults{};

  /// Acknowledged-delivery (send_reliable) retry/timeout tuning.
  ReliableOptions reliable{};
};

}  // namespace dipdc::minimpi
