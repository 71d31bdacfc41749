#include "minimpi/runtime.hpp"

#include <algorithm>
#include <exception>
#include <map>
#include <sstream>
#include <thread>
#include <utility>

#include "minimpi/comm.hpp"
#include "minimpi/error.hpp"
#include "support/error.hpp"

namespace dipdc::minimpi {

double RunResult::max_sim_time() const {
  double m = 0.0;
  for (const double t : sim_times) m = std::max(m, t);
  return m;
}

CommStats RunResult::total_stats() const {
  CommStats total{};
  for (const CommStats& s : rank_stats) total += s;
  return total;
}

namespace detail_runtime {

namespace {

/// Builds the machine model bound to this world.  If the caller left the
/// default single-node config, size the node's core count to the rank count
/// so that default runs model "one rank per core on one node".
perfmodel::CostModel make_cost_model(const RuntimeOptions& options,
                                     int nranks) {
  perfmodel::MachineConfig machine = options.machine;
  if (machine.nodes == 1 && machine.cores_per_node < nranks) {
    machine.cores_per_node = nranks;
  }
  return {machine, options.placement, nranks};
}

/// Payloads up to this size are copied while holding the runtime lock (one
/// lock round-trip beats two for small memcpys); larger copies release it.
constexpr std::size_t kLockedCopyMax = 4096;

}  // namespace

Runtime::Runtime(int nranks, RuntimeOptions options)
    : options_(std::move(options)),
      cost_(make_cost_model(options_, nranks)),
      nranks_(nranks),
      alive_(nranks),
      buffer_pool_(
          std::make_shared<detail::BufferPool>(options_.transport.pooling)),
      envelope_pool_(
          std::make_shared<detail::EnvelopePool>(options_.transport.pooling)),
      mailboxes_(static_cast<std::size_t>(nranks)),
      rank_states_(static_cast<std::size_t>(nranks)),
      life_(static_cast<std::size_t>(nranks), RankLife::kRunning) {
  DIPDC_REQUIRE(nranks > 0, "world size must be positive");
  if (options_.record_trace) {
    recorder_ = std::make_unique<obs::Recorder>(nranks,
                                                options_.trace_wall_time);
  }
  DIPDC_REQUIRE(!options_.faults.kills() || options_.faults.kill_rank < nranks,
                "fault plan kills a rank outside the world");
  for (int r = 0; r < nranks; ++r) {
    rank_states_[static_cast<std::size_t>(r)].fault_rng = support::make_stream(
        options_.faults.seed, static_cast<std::uint64_t>(r));
  }
  // Build and connect the transport backend before any rank thread exists:
  // the shm backend forks its router process here, while this process is
  // still single-threaded (fork + threads is a footgun otherwise).
  backend_ = detail_backend::make_backend(options_.backend);
  backend_shares_ = backend_->shares_address_space();
  backend_->connect(nranks);
}

Runtime::~Runtime() {
  try {
    backend_->finalize();
  } catch (...) {
    // Destructor teardown must not throw; the backend already surfaced any
    // real transport failure to the rank that hit it.
  }
}

std::shared_ptr<detail::Envelope> Runtime::transport_envelope(
    std::shared_ptr<detail::Envelope> env) {
  if (backend_shares_) return env;
  DIPDC_REQUIRE(!env->payload.is_borrowed(),
                "borrowed payload cannot cross a non-shared-memory backend; "
                "senders must degrade zero-copy to a copy at the seam");
  // The scratch frames live in the sending rank's state and are only ever
  // touched by that rank's own thread, outside the runtime lock.
  detail::RankState& st = rank_state(env->src_world);
  detail_backend::serialize_envelope(*env, st.backend_tx_frame);
  backend_->roundtrip(env->src_world, st.backend_tx_frame,
                      st.backend_rx_frame);
  std::shared_ptr<detail::Envelope> delivered = acquire_envelope();
  detail_backend::deserialize_envelope(st.backend_rx_frame, *delivered,
                                       *buffer_pool_);
  st.stats.backend_frames += 1;
  st.stats.backend_wire_bytes += st.backend_tx_frame.size();
  return delivered;
}

void Runtime::deliver(std::unique_lock<std::mutex>& lock,
                      const std::shared_ptr<detail::Envelope>& env) {
  detail::Mailbox& mb = mailbox(env->dest);
  for (auto it = mb.posted.begin(); it != mb.posted.end(); ++it) {
    if (!detail::filters_match((*it)->source_filter, (*it)->tag_filter,
                               (*it)->context, (*it)->internal, *env)) {
      continue;
    }
    const std::shared_ptr<detail::RequestState> req = *it;
    mb.posted.erase(it);
    match(lock, *env, *req);
    return;
  }
  mb.unexpected.push(env);
  cv_.notify_all();
}

void Runtime::match(std::unique_lock<std::mutex>& lock, detail::Envelope& env,
                    detail::RequestState& req) {
  const std::size_t n = env.payload.size();
  req.status = Status{env.source, env.tag, n};
  req.src_world = env.src_world;
  req.trace_seq = env.trace_seq;
  req.completion_time =
      detail::charge_ingress(mailbox(env.dest), env, req.post_time);
  if (n > req.capacity) {
    std::ostringstream os;
    os << "message truncation: rank " << env.dest << " posted a "
       << req.capacity << "-byte receive but rank " << env.source << " sent "
       << n << " bytes (tag " << env.tag << ")";
    req.error = os.str();
  } else if (req.want_staged) {
    // Collective-internal staged receive: adopt the shared payload buffer
    // when allowed, otherwise park a pooled copy.  Non-shareable internal
    // payloads are inline (<= Payload::kMaxInline bytes), so the fallback
    // copy under the lock is cheap.
    if (options_.transport.zero_copy && env.payload.shareable()) {
      req.staged = env.payload.share();
      req.staged_shared = true;
    } else if (n > 0) {
      detail::Buffer buf = buffer_pool_->acquire(n, &req.pool_hit);
      env.payload.copy_to(buf->data());
      req.staged = detail::StagedBuffer{std::move(buf), 0, n};
    }
  } else if (n > kLockedCopyMax) {
    // The copy_in_flight flag keeps the receiver from unwinding (on abort)
    // while its buffer is still being written.
    req.copy_in_flight = true;
    lock.unlock();
    env.payload.copy_to(req.buffer);
    lock.lock();
    req.copy_in_flight = false;
  } else {
    env.payload.copy_to(req.buffer);
  }
  env.matched = true;
  req.done = true;
  cv_.notify_all();
}

void Runtime::blocking_wait(std::unique_lock<std::mutex>& lock, int rank,
                            const char* what,
                            const std::function<bool()>& pred) {
  (void)blocking_wait_for(lock, rank, what, pred, /*can_timeout=*/false);
}

Runtime::WaitOutcome Runtime::blocking_wait_for(
    std::unique_lock<std::mutex>& lock, int rank, const char* what,
    const std::function<bool()>& pred, bool can_timeout) {
  DIPDC_REQUIRE(lock.owns_lock(), "blocking_wait requires the runtime lock");
  Waiter waiter{rank, what, &pred, can_timeout, /*timed_out=*/false};
  waiters_.push_back(&waiter);
  // Ensure the waiter is deregistered on every exit path (including the
  // exceptions thrown below).
  struct Guard {
    std::vector<Waiter*>& waiters;
    Waiter* self;
    ~Guard() { std::erase(waiters, self); }
  } guard{waiters_, &waiter};

  while (!pred()) {
    if (aborted_) {
      if (deadlocked_) throw DeadlockError(abort_reason_);
      if (failed_rank_ >= 0) throw RankFailedError(abort_reason_);
      throw AbortError(abort_reason_);
    }
    if (waiter.timed_out) return WaitOutcome::kTimedOut;
    if (options_.detect_deadlock &&
        static_cast<int>(waiters_.size()) >= alive_) {
      // Throws DeadlockError if no waiter can make progress and none can
      // time out; otherwise it has notified the runnable (or expiring)
      // waiter(s) and we sleep until notified again.
      check_deadlock_locked();
      // The check may have expired OUR OWN wait.  Its notify_all cannot
      // wake this thread (we are not in cv_.wait yet), so falling through
      // to the wait would sleep forever when no other live rank remains to
      // re-notify — re-check the flag instead of relying on a wakeup.
      if (waiter.timed_out) return WaitOutcome::kTimedOut;
    }
    cv_.wait(lock);
  }
  return WaitOutcome::kReady;
}

void Runtime::check_deadlock_locked() {
  for (Waiter* w : waiters_) {
    if ((*w->pred)()) {
      // Someone can make progress; wake everyone so they notice.
      cv_.notify_all();
      return;
    }
  }
  // A flagged-but-unconsumed timeout is progress: its waiter will wake,
  // withdraw its operation, and retry — so the world is not stuck yet.
  for (Waiter* w : waiters_) {
    if (w->timed_out) {
      cv_.notify_all();
      return;
    }
  }
  // Nothing can complete: expire every timeout-capable wait (reliable
  // acknowledgement waits) before concluding the world is dead.
  bool expired_any = false;
  for (Waiter* w : waiters_) {
    if (w->can_timeout) {
      w->timed_out = true;
      expired_any = true;
    }
  }
  if (expired_any) {
    cv_.notify_all();
    return;
  }
  std::ostringstream os;
  os << "global deadlock: every live rank is blocked and no pending "
        "operation can complete.";
  for (const Waiter* w : waiters_) {
    os << " [rank " << w->rank << " in " << w->what << "]";
  }
  const int exited = nranks_ - alive_;
  if (exited > 0) {
    os << " (" << exited << " rank(s) already finished)";
  }
  if (failed_rank_ >= 0) {
    os << " (rank " << failed_rank_ << " died)";
  }
  deadlocked_ = true;
  aborted_ = true;
  abort_reason_ = os.str();
  cv_.notify_all();
  throw DeadlockError(abort_reason_);
}

void Runtime::rank_exited(int rank, bool by_exception, const std::string& why) {
  std::lock_guard<std::mutex> lock(mu_);
  --alive_;
  const auto idx = static_cast<std::size_t>(rank);
  const bool was_dead = life_[idx] == RankLife::kDead;
  if (!was_dead) life_[idx] = RankLife::kExited;
  // The killed rank's thread unwinds asynchronously — possibly after a
  // shrink barrier already cleared the global abort.  Its (expected)
  // RankFailedError must not re-abort the recovered world.
  if (by_exception && !was_dead) {
    if (!aborted_) {
      aborted_ = true;
      abort_reason_ = "a rank aborted with an exception: " + why;
    }
    // A running rank dying of a real exception while survivors sit in the
    // shrink barrier leaves them waiting for an ack that can never come;
    // poison the barrier so they unwind instead.
    if (shrink_acks_ > 0) shrink_poisoned_ = true;
  }
  maybe_finalize_shrink_locked();
  cv_.notify_all();
}

void Runtime::note_rank_killed(int rank, const std::string& why) {
  std::lock_guard<std::mutex> lock(mu_);
  if (failed_rank_ < 0) failed_rank_ = rank;
  life_[static_cast<std::size_t>(rank)] = RankLife::kDead;
  if (!aborted_) {
    aborted_ = true;
    abort_from_kill_ = true;
    abort_reason_ = why;
  }
  cv_.notify_all();
}

Runtime::ShrinkResult Runtime::failure_shrink(int world_rank) {
  std::unique_lock<std::mutex> lock(mu_);
  if (failed_rank_ < 0) {
    throw MpiError(
        "shrink: no rank has failed — shrink() is only meaningful after a "
        "RankFailedError");
  }
  if (life_[static_cast<std::size_t>(world_rank)] == RankLife::kDead) {
    throw MpiError("shrink: the dead rank cannot join the survivor set");
  }
  if (deadlocked_) throw DeadlockError(abort_reason_);
  if (shrink_poisoned_) throw AbortError(abort_reason_);
  const int my_gen = shrink_generation_;
  ++shrink_acks_;
  maybe_finalize_shrink_locked();
  // Survivors park on the raw condition variable, NOT blocking_wait_for:
  // the global abort flag is still raised (that is the point), and a
  // parked survivor must not count as a deadlock-detection waiter.
  while (shrink_generation_ == my_gen) {
    if (deadlocked_) throw DeadlockError(abort_reason_);
    if (shrink_poisoned_) throw AbortError(abort_reason_);
    cv_.wait(lock);
  }
  return shrink_last_;
}

void Runtime::maybe_finalize_shrink_locked() {
  if (shrink_acks_ == 0 || shrink_poisoned_) return;
  int running = 0;
  for (const RankLife l : life_) {
    if (l == RankLife::kRunning) ++running;
  }
  if (shrink_acks_ < running) return;
  // Last survivor arrived: finalize the epoch.  Purge every mailbox so
  // pre-failure traffic (including the dead rank's stranded envelopes)
  // can never match a post-recovery receive; pre-failure Requests are
  // invalidated by the same stroke.
  for (detail::Mailbox& mb : mailboxes_) {
    mb.unexpected = detail::UnexpectedQueue{};
    mb.posted.clear();
  }
  // Clear the abort only if the kill raised it; a deadlock or a real
  // exception is not recoverable.
  if (abort_from_kill_ && !deadlocked_) {
    aborted_ = false;
    abort_from_kill_ = false;
    abort_reason_.clear();
  }
  shrink_last_.survivors.clear();
  for (int r = 0; r < nranks_; ++r) {
    if (life_[static_cast<std::size_t>(r)] == RankLife::kRunning) {
      shrink_last_.survivors.push_back(r);
    }
  }
  // One context id, allocated once by the finalizer: per-survivor
  // allocate_contexts calls could not agree (it is an atomic fetch_add).
  shrink_last_.context = allocate_contexts(1);
  recovered_ = true;
  shrink_acks_ = 0;
  ++shrink_generation_;
  cv_.notify_all();
}

}  // namespace detail_runtime

RunResult run(int nranks, const std::function<void(Comm&)>& fn,
              RuntimeOptions options) {
  DIPDC_REQUIRE(nranks > 0, "world size must be positive");
  detail_runtime::Runtime runtime(nranks, std::move(options));

  std::vector<std::unique_ptr<Comm>> comms;
  comms.reserve(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) {
    comms.push_back(std::unique_ptr<Comm>(new Comm(&runtime, r)));
  }

  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(nranks));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) {
    threads.emplace_back([&, r] {
      Comm& comm = *comms[static_cast<std::size_t>(r)];
      try {
        fn(comm);
        runtime.rank_exited(r, false, {});
      } catch (const std::exception& e) {
        errors[static_cast<std::size_t>(r)] = std::current_exception();
        runtime.rank_exited(r, true, e.what());
      } catch (...) {
        errors[static_cast<std::size_t>(r)] = std::current_exception();
        runtime.rank_exited(r, true, "unknown exception");
      }
    });
  }
  for (std::thread& t : threads) t.join();

  // A fault-injection kill is the root cause by definition: the survivors'
  // RankFailedErrors are secondary, so rethrow the dead rank's own error.
  // Unless the survivors shrank and recovered — then the kill was absorbed
  // and the dead rank's RankFailedError is the expected casualty, not a
  // failure of the run.
  const int failed = runtime.failed_rank();
  if (failed >= 0 && errors[static_cast<std::size_t>(failed)] &&
      !runtime.recovered()) {
    std::rethrow_exception(errors[static_cast<std::size_t>(failed)]);
  }

  // Prefer the root cause: the first exception that is not the secondary
  // AbortError raised in ranks unblocked by someone else's failure.  In a
  // recovered run only the dead rank's own error is excused — a survivor
  // that failed AFTER the shrink (e.g. an unrecoverable container) must
  // still surface.
  std::exception_ptr first_abort;
  for (int r = 0; r < nranks; ++r) {
    const std::exception_ptr& ep = errors[static_cast<std::size_t>(r)];
    if (!ep) continue;
    if (runtime.recovered() && r == failed) continue;
    try {
      std::rethrow_exception(ep);
    } catch (const AbortError&) {
      if (!first_abort) first_abort = ep;
    } catch (...) {
      std::rethrow_exception(ep);
    }
  }
  if (first_abort) std::rethrow_exception(first_abort);

  RunResult result;
  result.rank_stats.reserve(static_cast<std::size_t>(nranks));
  result.sim_times.reserve(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) {
    result.rank_stats.push_back(comms[static_cast<std::size_t>(r)]->stats());
    result.sim_times.push_back(comms[static_cast<std::size_t>(r)]->wtime());
    if (obs::Recorder* rec = runtime.recorder()) {
      const auto& events = rec->lane(r).events;
      result.trace.insert(result.trace.end(), events.begin(), events.end());
    }
  }
  if (runtime.options().record_channels) {
    // Merge the per-rank tallies into one (src, dst)-keyed table.  Sender
    // and receiver sides come from different ranks' states, so a lost or
    // duplicated message shows up as a sent/received disagreement.
    std::map<std::pair<int, int>, ChannelTraffic> merged;
    for (int r = 0; r < nranks; ++r) {
      const detail::RankState& st = runtime.rank_state(r);
      for (const auto& [dst, c] : st.channel_sent) {
        ChannelTraffic& t = merged[{r, dst}];
        t.src = r;
        t.dst = dst;
        t.bytes_sent += c.bytes;
        t.messages_sent += c.messages;
      }
      for (const auto& [src, c] : st.channel_received) {
        ChannelTraffic& t = merged[{src, r}];
        t.src = src;
        t.dst = r;
        t.bytes_received += c.bytes;
        t.messages_received += c.messages;
      }
    }
    result.channels.reserve(merged.size());
    for (const auto& [key, t] : merged) result.channels.push_back(t);
  }
  return result;
}

}  // namespace dipdc::minimpi
