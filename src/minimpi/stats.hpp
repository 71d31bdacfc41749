// Per-rank instrumentation of communication behaviour.
//
// The modules ask students to "reason about performance based on
// communication patterns and volumes" (learning outcome 13); these counters
// are the measured ground truth the benches print, and they also verify the
// paper's Table II (which primitives each module uses).
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "minimpi/types.hpp"
#include "obs/metrics.hpp"

namespace dipdc::minimpi {

struct RunResult;

struct CommStats {
  /// User-level primitive invocation counts.
  std::array<std::uint64_t, kPrimitiveCount> calls{};

  /// Point-to-point payload bytes / messages from user-level Send/Isend
  /// (and the matching receives).
  std::uint64_t p2p_bytes_sent = 0;
  std::uint64_t p2p_messages_sent = 0;
  std::uint64_t p2p_bytes_received = 0;
  std::uint64_t p2p_messages_received = 0;

  /// Transport-level traffic including collective-internal messages; this
  /// is the honest "wire volume" measure used in the Module 5 comparison of
  /// the two k-means communication strategies.
  std::uint64_t transport_bytes_sent = 0;
  std::uint64_t transport_messages_sent = 0;

  // ---- Transport fast-path counters (real-world behaviour; none of these
  // affect simulated results) ----------------------------------------------

  /// Payload buffer pool reuse vs. fresh allocations.
  std::uint64_t pool_hits = 0;
  std::uint64_t pool_misses = 0;
  /// Messages whose payload fit in the envelope's inline storage.
  std::uint64_t inline_messages = 0;
  /// Payload bytes handed off without a memcpy (borrowed rendezvous
  /// buffers, shared staging buffers, adopted receives) vs. memcpy'd.
  std::uint64_t zero_copy_bytes = 0;
  std::uint64_t copied_bytes = 0;
  /// Rendezvous sends that actually blocked waiting for the receiver (as
  /// opposed to matching an already-posted receive immediately).
  std::uint64_t rendezvous_stalls = 0;

  /// Envelopes serialized through a non-shared-memory transport backend
  /// (tcp), and the wire bytes those frames carried (header included).
  /// Always zero on the threads backend, which skips the seam entirely.
  std::uint64_t backend_frames = 0;
  std::uint64_t backend_wire_bytes = 0;

  // ---- Fault injection and reliable delivery (all zero unless a fault
  // plan is armed or send_reliable is used) --------------------------------

  /// Injected faults, counted on the sending rank.
  std::uint64_t fault_drops = 0;
  std::uint64_t fault_dups = 0;
  std::uint64_t fault_delays = 0;
  /// send_reliable retransmissions (beyond the first attempt).
  std::uint64_t reliable_retries = 0;
  /// Acknowledgement waits that expired (each triggers a retransmission or,
  /// once the budget is exhausted, an MpiError).
  std::uint64_t reliable_timeouts = 0;
  /// Duplicate frames filtered out by recv_reliable (injected duplicates
  /// and spurious retransmissions alike).
  std::uint64_t reliable_duplicates = 0;

  /// Collective algorithm selection, one count per participating rank per
  /// invocation (index by CollectiveAlgo).
  std::array<std::uint64_t, kCollectiveAlgoCount> algo_uses{};

  /// Simulated time (seconds) spent in compute kernels vs. blocked in or
  /// advancing through communication vs. explicitly idled via
  /// Comm::sim_advance.
  double sim_compute_seconds = 0.0;
  double sim_comm_seconds = 0.0;
  double sim_idle_seconds = 0.0;

  [[nodiscard]] std::uint64_t calls_to(Primitive p) const {
    return calls[static_cast<std::size_t>(p)];
  }

  [[nodiscard]] std::uint64_t algo_count(CollectiveAlgo a) const {
    return algo_uses[static_cast<std::size_t>(a)];
  }

  /// Element-wise sum, used to aggregate across ranks.
  CommStats& operator+=(const CommStats& other);
};

/// Multi-line human-readable report of the transport fast-path counters
/// and collective algorithm selection (zero-count rows are omitted).  The
/// payload pool's hit/miss split and the rendezvous stall count depend on
/// host thread scheduling, so they share the final line, and that line
/// starts with kHostScheduleLabel.
std::string transport_report(const CommStats& stats);
inline constexpr const char* kHostScheduleLabel =
    "host schedule (varies run to run): ";

/// Registers the nonzero CommStats counters into `reg` under stable dotted
/// names: calls.<primitive>, p2p.*, transport.*, pool.*, fault.*,
/// reliable.*, algo.<name>, and the time.compute/comm/idle gauges.
void register_comm_stats(obs::Registry& reg, const CommStats& stats);

/// One registry for a whole run: the summed CommStats of every rank, the
/// simulated makespan, a message-size histogram, and per-phase timers
/// (phase.<name>.seconds / .calls) aggregated from the recorded trace.
[[nodiscard]] obs::Registry build_metrics(const RunResult& result);

}  // namespace dipdc::minimpi
