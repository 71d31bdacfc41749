// The minimpi runtime: rank threads, mailboxes, deadlock detection, and the
// run() entry point.
//
// Usage:
//   auto result = minimpi::run(4, [](minimpi::Comm& comm) {
//     if (comm.rank() == 0) comm.send_value(42, /*dest=*/1);
//     if (comm.rank() == 1) int v = comm.recv_value<int>();
//   });
//
// run() blocks until every rank returns, then reports per-rank statistics
// and simulated completion times.  If any rank throws, all other ranks are
// unblocked with AbortError and the first "real" exception is rethrown to
// the caller.  If the runtime proves a global deadlock (every live rank
// blocked, no operation able to complete), every blocked rank receives a
// DeadlockError naming the stuck operations.
#pragma once

#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "minimpi/backend.hpp"
#include "minimpi/detail.hpp"
#include "minimpi/options.hpp"
#include "minimpi/stats.hpp"
#include "obs/recorder.hpp"
#include "perfmodel/machine.hpp"

namespace dipdc::minimpi {

class Comm;

/// Directed user-p2p traffic on one (source, destination) world-rank pair,
/// as observed independently by the two endpoints (sender tallies at
/// injection, receiver at ingestion).  Only populated when
/// RuntimeOptions::record_channels is set; on a fault-free run the two
/// sides must agree exactly — the conformance fuzzer's per-channel
/// invariant.
struct ChannelTraffic {
  int src = 0;
  int dst = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t messages_sent = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t messages_received = 0;
};

/// Aggregate outcome of one run().
struct RunResult {
  std::vector<CommStats> rank_stats;
  std::vector<double> sim_times;  // final simulated clock per rank
  /// All ranks' trace events (only when RuntimeOptions::record_trace).
  std::vector<TraceEvent> trace;
  /// Per-channel p2p traffic, sorted by (src, dst) (record_channels only).
  std::vector<ChannelTraffic> channels;

  /// Simulated makespan: the slowest rank's clock.
  [[nodiscard]] double max_sim_time() const;
  /// Element-wise sum of all rank statistics.
  [[nodiscard]] CommStats total_stats() const;
};

namespace detail_runtime {

/// Shared state of one running world.  Public API users never touch this;
/// Comm methods (comm.cpp / collectives.cpp) do, under the global lock.
class Runtime {
 public:
  Runtime(int nranks, RuntimeOptions options);
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  [[nodiscard]] int nranks() const { return nranks_; }
  [[nodiscard]] const RuntimeOptions& options() const { return options_; }
  [[nodiscard]] const perfmodel::CostModel& cost() const { return cost_; }

  /// The observability recorder, or nullptr when record_trace is off.
  /// Each rank thread appends to its own lane without locking.
  [[nodiscard]] obs::Recorder* recorder() { return recorder_.get(); }

  /// Pooled payload/envelope storage (thread-safe, own locks).
  detail::BufferPool& buffer_pool() { return *buffer_pool_; }
  [[nodiscard]] std::shared_ptr<detail::Envelope> acquire_envelope() {
    return envelope_pool_->acquire();
  }

  /// Delivers an envelope: matches the earliest posted receive it
  /// satisfies, otherwise queues it as unexpected.  Lock must be held (see
  /// match for when it is released).
  void deliver(std::unique_lock<std::mutex>& lock,
               const std::shared_ptr<detail::Envelope>& env);

  /// The one receive-match step, run by whichever side comes second: the
  /// sender delivering to an already-posted receive (deliver) or the
  /// receiver finding the message already queued (Comm::post_recv).  Fills
  /// the request's status, charges ingress at its post time, checks
  /// truncation, adopts or copies the payload, then marks both sides done
  /// and notifies.  `env` must already be off the unexpected queue and
  /// `req` off the posted list.  Lock must be held; it is released around
  /// large payload copies (memcpys stay outside the global lock).
  void match(std::unique_lock<std::mutex>& lock, detail::Envelope& env,
             detail::RequestState& req);

  /// Blocks `rank` until pred() holds.  Lock must be held (and is released
  /// while sleeping).  Throws DeadlockError/AbortError/RankFailedError on
  /// global failure.
  void blocking_wait(std::unique_lock<std::mutex>& lock, int rank,
                     const char* what, const std::function<bool()>& pred);

  enum class WaitOutcome { kReady, kTimedOut };

  /// blocking_wait with an optional deterministic timeout: when
  /// `can_timeout` and the runtime proves that no rank can make progress
  /// (the deadlock-detection condition), the wait returns kTimedOut instead
  /// of the whole world deadlocking.  This is how reliable-delivery
  /// acknowledgement waits expire: exactly when the message they wait for
  /// is provably lost, never earlier — so retry sequences are
  /// deterministic.  Requires RuntimeOptions::detect_deadlock.
  WaitOutcome blocking_wait_for(std::unique_lock<std::mutex>& lock, int rank,
                                const char* what,
                                const std::function<bool()>& pred,
                                bool can_timeout);

  /// Marks a rank's user function as finished (normally or by exception).
  void rank_exited(int rank, bool by_exception, const std::string& why);

  /// Records a fault-injection kill: every blocked (or later blocking) rank
  /// will be unblocked with RankFailedError naming the dead rank.  Called
  /// by the dying rank just before it throws.
  void note_rank_killed(int rank, const std::string& why);

  /// World rank killed by fault injection, or -1.  Stable once the world
  /// has joined (run() reads it after the threads exit).
  [[nodiscard]] int failed_rank() const { return failed_rank_; }

  /// Lifecycle of one rank as the failure-recovery machinery sees it.
  enum class RankLife { kRunning, kDead, kExited };

  /// Outcome of one completed shrink barrier (see failure_shrink).
  struct ShrinkResult {
    std::vector<int> survivors;  // world ranks still running, ascending
    int context = 0;             // fresh context id for the shrunken comm
  };

  /// ULFM-style failure agreement: after a fault-injection kill, every
  /// surviving (still-running) rank calls this once.  The last arrival
  /// finalizes the epoch — it purges every mailbox (pre-failure traffic
  /// must never match post-recovery receives), clears the kill-caused
  /// global abort so survivors can block again, allocates one fresh
  /// context id for the shrunken communicator, and publishes the survivor
  /// set.  Earlier arrivals sleep until the epoch closes.  Throws if no
  /// rank has failed, or if a survivor dies of a *real* exception while
  /// the barrier is pending (the agreement can then never complete).
  ShrinkResult failure_shrink(int world_rank);

  /// True once a shrink barrier completed: run() must not rethrow the
  /// dead rank's (recovered-from) RankFailedError.  Read after join.
  [[nodiscard]] bool recovered() const { return recovered_; }

  std::mutex& mutex() { return mu_; }
  std::condition_variable& condvar() { return cv_; }
  detail::Mailbox& mailbox(int rank) {
    return mailboxes_[static_cast<std::size_t>(rank)];
  }
  detail::RankState& rank_state(int world_rank) {
    return rank_states_[static_cast<std::size_t>(world_rank)];
  }

  /// Reserves `n` consecutive communicator context ids (for split()).
  int allocate_contexts(int n) { return next_context_.fetch_add(n); }

  /// The transport backend carrying envelope frames (see backend.hpp).
  [[nodiscard]] detail_backend::Backend& backend() { return *backend_; }

  /// True when ranks share one address space (threads backend), so
  /// envelopes cross by pointer and zero-copy payload handoff is safe.
  [[nodiscard]] bool backend_shares_memory() const { return backend_shares_; }

  /// Pushes `env` through the transport backend and returns the envelope
  /// that actually gets delivered.  On the threads backend this is `env`
  /// itself (no serialization).  On shm/tcp the envelope is serialized,
  /// round-trips through the foreign transport (router process / loopback
  /// connection), and comes back as a fresh pooled envelope that owns its
  /// payload bytes.  Must be called WITHOUT the runtime lock, by the
  /// sending rank's own thread (it blocks on the backend channel).
  /// Borrowed payloads are rejected loudly — callers must degrade
  /// zero-copy to a copy before crossing the seam.
  [[nodiscard]] std::shared_ptr<detail::Envelope> transport_envelope(
      std::shared_ptr<detail::Envelope> env);

 private:
  struct Waiter {
    int rank;
    const char* what;
    const std::function<bool()>* pred;
    bool can_timeout = false;
    bool timed_out = false;
  };

  /// With every live rank blocked, decides whether any waiter can still
  /// make progress; if not, expires timeout-capable waiters, and only when
  /// none exist flags a deadlock.  Lock must be held.
  void check_deadlock_locked();

  /// Closes a pending shrink barrier when every still-running rank has
  /// acked (called on each ack and on each rank exit, since a normal exit
  /// shrinks the running set the barrier is waiting on).  Lock held.
  void maybe_finalize_shrink_locked();

  std::mutex mu_;
  std::condition_variable cv_;
  RuntimeOptions options_;
  perfmodel::CostModel cost_;
  int nranks_;
  int alive_;
  // Shared so that buffer/envelope deleters (which capture the pool) stay
  // valid even if they run after the Runtime is gone.
  std::shared_ptr<detail::BufferPool> buffer_pool_;
  std::shared_ptr<detail::EnvelopePool> envelope_pool_;
  std::vector<detail::Mailbox> mailboxes_;
  std::vector<detail::RankState> rank_states_;
  std::unique_ptr<detail_backend::Backend> backend_;
  bool backend_shares_ = true;
  std::unique_ptr<obs::Recorder> recorder_;  // non-null iff record_trace
  std::atomic<int> next_context_{1};
  std::vector<Waiter*> waiters_;
  bool aborted_ = false;
  bool deadlocked_ = false;
  int failed_rank_ = -1;  // rank killed by fault injection, or -1
  std::string abort_reason_;

  // Shrink-on-failure state (all under mu_; recovered_ is additionally
  // read by run() after the world joined).
  std::vector<RankLife> life_;
  bool abort_from_kill_ = false;   // aborted_ was raised by a kill
  bool recovered_ = false;         // a shrink barrier completed
  bool shrink_poisoned_ = false;   // a survivor died mid-agreement
  int shrink_generation_ = 0;
  int shrink_acks_ = 0;
  ShrinkResult shrink_last_;
};

}  // namespace detail_runtime

/// Runs `fn` on `nranks` ranks (one thread each) and returns per-rank
/// statistics and simulated times.  Rethrows the first rank exception.
RunResult run(int nranks, const std::function<void(Comm&)>& fn,
              RuntimeOptions options = {});

}  // namespace dipdc::minimpi
