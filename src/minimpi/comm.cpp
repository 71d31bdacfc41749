// Point-to-point transport: the byte-level operations behind the typed API.
//
// One send path and one receive path carry every message:
//  - inject() sends (send, isend, and the collectives' staged sends): fault
//    draw, envelope, timing stamps, the backend seam, and delivery;
//  - post_recv() + complete_recv() receive: a blocking recv is an irecv
//    followed by its wait, and the staged and acknowledgement receives
//    reuse both halves;
//  - whichever side comes second runs Runtime::match (runtime.cpp), the
//    sender finding the receive posted or the receiver finding the message
//    queued.  It is the only place ingress time is charged.
//
// Fast-path structure (all sim-neutral; see options.hpp TransportOptions):
//  - payloads are built OUTSIDE the runtime lock, in pooled buffers or the
//    envelope's inline storage (no allocation for small eager messages);
//  - blocking rendezvous senders lend their buffer to the envelope instead
//    of copying (the sender provably blocks until the receiver consumed it);
//  - large payload copies happen outside the lock, with an in-flight flag
//    so an unwinding receiver never frees its buffer mid-copy;
//  - unexpected-message matching is indexed by (context, tag) buckets.
#include "minimpi/comm.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <sstream>
#include <utility>
#include <vector>

#include "minimpi/error.hpp"
#include "minimpi/faults.hpp"
#include "minimpi/trace.hpp"

namespace dipdc::minimpi {

namespace {

/// Builds the payload for an outgoing message.  Called outside the runtime
/// lock; the stats stream is the sender's own (only its thread writes it).
detail::Payload build_payload(std::span<const std::byte> data, bool borrow_ok,
                              const TransportOptions& topt,
                              detail::BufferPool& pool, CommStats& cs) {
  if (data.empty()) return {};
  const std::size_t inline_cap =
      std::min(topt.inline_threshold, detail::Payload::kMaxInline);
  if (data.size() <= inline_cap) {
    ++cs.inline_messages;
    cs.copied_bytes += data.size();
    return detail::Payload::inline_copy(data);
  }
  if (borrow_ok && topt.zero_copy) {
    // Blocking rendezvous send: the sender's frame (and therefore `data`)
    // stays alive until the receiver has consumed the bytes.
    cs.zero_copy_bytes += data.size();
    return detail::Payload::borrowed_from(data);
  }
  bool hit = false;
  detail::Buffer buf = pool.acquire(data.size(), &hit);
  ++(hit ? cs.pool_hits : cs.pool_misses);
  cs.copied_bytes += data.size();
  return detail::Payload::owned(std::move(buf), data);
}

/// Channel-introspection tallies (RuntimeOptions::record_channels).  The
/// maps belong to the acting rank's own state, so no extra locking: senders
/// tally under their own thread, receivers under theirs.
void record_channel_sent(detail::RankState& st, bool enabled, int dest_world,
                         std::size_t bytes) {
  if (!enabled) return;
  detail::ChannelCount& c = st.channel_sent[dest_world];
  c.bytes += bytes;
  ++c.messages;
}

void record_channel_received(detail::RankState& st, bool enabled,
                             int src_world, std::size_t bytes) {
  if (!enabled) return;
  detail::ChannelCount& c = st.channel_received[src_world];
  c.bytes += bytes;
  ++c.messages;
}

/// Moves the clock to `t` unless it is already later, booking the wait as
/// communication time: how every operation adopts a completion time.
void adopt_clock(detail::RankState& st, double t) {
  const double completion = std::max(st.clock, t);
  st.stats.sim_comm_seconds += completion - st.clock;
  st.clock = completion;
}

/// Charges `dt` of purely local communication cost (injection overhead, an
/// expired acknowledgement wait).
void charge_comm(detail::RankState& st, double dt) {
  st.clock += dt;
  st.stats.sim_comm_seconds += dt;
}

/// Books a completed receive on the receiving rank's counters, once per
/// request however often wait()/test() see it complete.
void account_recv(detail::RankState& st, detail::RequestState& req,
                  bool channels) {
  if (req.consumed) return;
  req.consumed = true;
  const std::size_t n = req.status.bytes;
  if (req.staged_shared) {
    st.stats.zero_copy_bytes += n;
  } else {
    st.stats.copied_bytes += n;
    if (req.want_staged && n > 0) {
      ++(req.pool_hit ? st.stats.pool_hits : st.stats.pool_misses);
    }
  }
  if (req.internal) return;
  st.stats.p2p_bytes_received += n;
  ++st.stats.p2p_messages_received;
  record_channel_received(st, channels, req.src_world, n);
}

}  // namespace

void Comm::validate_peer(int peer, const char* what) const {
  if (peer < 0 || peer >= size()) {
    std::ostringstream os;
    os << what << ": peer rank " << peer << " outside communicator of size "
       << size();
    throw MpiError(os.str());
  }
}

void Comm::validate_user_tag(int tag, const char* what) const {
  if (tag < 0) {
    std::ostringstream os;
    os << what << ": user tags must be non-negative (got " << tag
       << "); negative tags are reserved for collectives";
    throw MpiError(os.str());
  }
}

void Comm::sim_compute(double flops, double mem_bytes) {
  const TraceStart t0 = trace_begin();
  const double dt = cost_model().kernel_time(world_rank_, flops, mem_bytes);
  state().clock += dt;
  state().stats.sim_compute_seconds += dt;
  if (obs::Recorder* rec = runtime_->recorder()) {
    obs::Event e;
    e.rank = world_rank_;
    e.cat = obs::Category::kCompute;
    e.context = context_;
    e.t_start = t0.sim;
    e.t_end = state().clock;
    e.wall_start = t0.wall;
    e.wall_end = rec->wall_now();
    e.name = "compute";
    rec->lane(world_rank_).events.push_back(e);
  }
}

void Comm::sim_advance(double seconds) {
  DIPDC_REQUIRE(seconds >= 0.0, "cannot advance the clock backwards");
  const TraceStart t0 = trace_begin();
  state().clock += seconds;
  // Explicit clock advances model idle/waiting time, not kernel work; they
  // get their own bucket so compute/comm breakdowns stay honest.
  state().stats.sim_idle_seconds += seconds;
  if (obs::Recorder* rec = runtime_->recorder()) {
    obs::Event e;
    e.rank = world_rank_;
    e.cat = obs::Category::kIdle;
    e.context = context_;
    e.t_start = t0.sim;
    e.t_end = state().clock;
    e.wall_start = t0.wall;
    e.wall_end = rec->wall_now();
    e.name = "idle";
    rec->lane(world_rank_).events.push_back(e);
  }
}

std::shared_ptr<detail::Envelope> Comm::inject(
    std::span<const std::byte> data, const detail::StagedBuffer* staged,
    int dest, int tag, bool internal, bool blocking) {
  const int wdest = to_world(dest);
  detail::RankState& st = state();
  const RuntimeOptions& opt = runtime_->options();
  const double overhead = cost_model().send_overhead();

  // Fault injection applies to user p2p traffic only; collective-internal
  // messages and reliable-delivery acknowledgements ride the lossless
  // control channel.  The draw consumes the rank's fault stream whether or
  // not a fault fires, so the injected sequence depends only on (plan seed,
  // rank, message ordinal).
  detail::FaultDecision fault;
  if (!internal && opt.faults.injects()) {
    fault = detail::draw_fault(opt.faults, st.fault_rng);
  }
  const bool channels = !internal && opt.record_channels;
  auto count_sent = [&] {
    st.stats.transport_bytes_sent += data.size();
    ++st.stats.transport_messages_sent;
    if (!internal) {
      st.stats.p2p_bytes_sent += data.size();
      ++st.stats.p2p_messages_sent;
    }
    record_channel_sent(st, channels, wdest, data.size());
  };
  // Observability: every user p2p message gets a world-unique edge id.
  // Dropped messages allocate one too (the send event shows an edge no
  // receive ever completes), so edge numbering is independent of the fault
  // plan's outcomes.
  obs::Recorder* const rec = internal ? nullptr : runtime_->recorder();
  if (fault.drop) {
    // The message vanishes on the wire.  The sender cannot tell: it pays
    // the same local costs and counters as a delivered eager send.  A
    // rendezvous-sized payload is lost fire-and-forget too — blocking on a
    // handshake that can never happen would hang the sender by design.
    ++st.stats.fault_drops;
    count_sent();
    if (rec != nullptr) st.last_tx_seq = rec->alloc_seq(world_rank_);
    charge_comm(st, overhead);
    // An already-matched eager stand-in, so nothing ever waits on it.
    auto dropped = runtime_->acquire_envelope();
    dropped->matched = true;
    return dropped;
  }

  // Collective-internal messages are always eager: real MPI collectives
  // never deadlock, and the linear root loops must not serialize on
  // rendezvous handshakes.
  const bool rendezvous = !internal && data.size() > opt.eager_threshold;
  auto make_envelope = [&] {
    auto e = runtime_->acquire_envelope();
    e->source = rank_;
    e->src_world = world_rank_;
    e->dest = wdest;
    e->tag = tag;
    e->context = context_;
    e->internal = internal;
    return e;
  };
  auto env = make_envelope();
  env->rendezvous = rendezvous;
  if (rec != nullptr) {
    env->trace_seq = rec->alloc_seq(world_rank_);
    st.last_tx_seq = env->trace_seq;
  }
  if (staged != nullptr && staged->storage && !data.empty() &&
      opt.transport.zero_copy) {
    // Share the staging buffer into the envelope: every hop of a tree or
    // ring forward references the same bytes.  The buffer must not be
    // mutated after this point (collectives uphold that discipline), and
    // crossing the tcp seam flattens it into the frame while the
    // refcount keeps it valid, so sharing is safe on every backend.
    env->payload = detail::Payload::shared_view(*staged);
    st.stats.zero_copy_bytes += data.size();
  } else {
    // Only a blocking rendezvous send may lend its buffer: an isend returns
    // at once (the caller may then mutate the bytes), and a borrow cannot
    // cross the tcp seam, so there it degrades to a copy.
    env->payload = build_payload(
        data, blocking && rendezvous && runtime_->backend_shares_memory(),
        opt.transport, runtime_->buffer_pool(), st.stats);
  }

  // A duplicated message is a spurious eager retransmission: its payload is
  // an independent copy (never a borrow of the user's frame) and it never
  // takes part in the rendezvous handshake.
  std::shared_ptr<detail::Envelope> dup;
  if (fault.duplicate) {
    ++st.stats.fault_dups;
    dup = make_envelope();
    dup->trace_seq = env->trace_seq;  // same logical message, same edge
    dup->payload = build_payload(data, /*borrow_ok=*/false, opt.transport,
                                 runtime_->buffer_pool(), st.stats);
  }

  // Simulated-timing fields are computed BEFORE the transport seam so they
  // travel inside the frame and delivery reconstructs the identical event
  // on every backend.  No lock needed: st.clock is mutated only by this
  // thread and the cost model is immutable.
  const double alpha = cost_model().message_time(world_rank_, wdest, 0);
  env->arrival_head = st.clock + alpha + fault.delay;
  if (fault.delay > 0.0) ++st.stats.fault_delays;
  env->byte_time =
      cost_model().message_time(world_rank_, wdest, data.size()) - alpha;
  if (dup) {
    dup->arrival_head = env->arrival_head;
    dup->byte_time = env->byte_time;
  }
  // Cross the transport seam (identity on the threads backend; a serialize/
  // round-trip/deserialize through the loopback socket on tcp).
  env = runtime_->transport_envelope(std::move(env));
  if (dup) dup = runtime_->transport_envelope(std::move(dup));

  std::unique_lock<std::mutex> lock(runtime_->mutex());
  count_sent();
  runtime_->deliver(lock, env);
  if (dup) {
    st.stats.transport_bytes_sent += data.size();
    ++st.stats.transport_messages_sent;
    runtime_->deliver(lock, dup);
  }
  // Every sender but a blocking rendezvous one pays only its local
  // injection overhead (LogP "o"); the wire latency is experienced by the
  // receiver, and a rendezvous isend defers the synchronization to wait().
  if (!(blocking && rendezvous)) {
    charge_comm(st, overhead);
  } else if (!env->matched) {
    ++st.stats.rendezvous_stalls;
  }
  return env;
}

void Comm::send_bytes(std::span<const std::byte> data, int dest, int tag,
                      bool internal) {
  validate_peer(dest, "send");
  if (!internal) validate_user_tag(tag, "send");
  const auto env =
      inject(data, nullptr, dest, tag, internal, /*blocking=*/true);
  if (!env->rendezvous) return;
  // A rendezvous send adopts the receiver's completion directly, without
  // the injection overhead an isend + wait would add first.
  std::unique_lock<std::mutex> lock(runtime_->mutex());
  try {
    runtime_->blocking_wait(lock, world_rank_, "Send (rendezvous)",
                            [&env] { return env->matched; });
  } catch (...) {
    // The envelope may borrow this frame's `data`; make sure nobody can
    // touch it after we unwind: drop it from the mailbox if still
    // queued, or wait out a receiver's in-flight copy.
    if (!runtime_->mailbox(env->dest).unexpected.remove(env.get())) {
      while (!env->matched) runtime_->rank_cv(world_rank_).wait(lock);
    }
    throw;
  }
  adopt_clock(state(), env->completion_time);
}

Request Comm::isend_bytes(std::span<const std::byte> data, int dest, int tag,
                          bool internal) {
  validate_peer(dest, "isend");
  if (!internal) validate_user_tag(tag, "isend");
  auto req = std::make_shared<detail::RequestState>();
  req->kind = detail::RequestState::Kind::kSend;
  // wait()/test() track the envelope that was actually delivered.
  req->envelope =
      inject(data, nullptr, dest, tag, internal, /*blocking=*/false);
  if (!req->envelope->rendezvous) {
    req->done = true;
    req->completion_time = state().clock;
  }
  return Request(req);
}

void Comm::send_staged(const detail::StagedBuffer& data, int dest, int tag) {
  validate_peer(dest, "send");
  // Staged traffic is collective-internal, and therefore always eager.
  (void)inject(data.view(), &data, dest, tag, /*internal=*/true,
               /*blocking=*/false);
}

std::shared_ptr<detail::RequestState> Comm::post_recv(
    std::unique_lock<std::mutex>& lock, std::byte* buffer,
    std::size_t capacity, int source, int tag, bool internal, bool staged) {
  auto req = std::make_shared<detail::RequestState>();
  req->buffer = buffer;
  req->capacity = capacity;
  req->source_filter = source;
  req->tag_filter = tag;
  req->context = context_;
  req->internal = internal;
  req->want_staged = staged;
  detail::RankState& st = state();
  req->post_time = st.clock;
  detail::Mailbox& mb = runtime_->mailbox(world_rank_);
  if (auto m = mb.unexpected.find(source, tag, context_, internal)) {
    const std::shared_ptr<detail::Envelope> env = m->handle();
    mb.unexpected.erase(*m);
    runtime_->match(lock, *env, *req);
    // Matched at post: the posting operation's own trace event carries the
    // message edge (a later wait() finds req->trace_seq consumed).
    if (!internal && req->error.empty()) {
      st.last_rx_seq = std::exchange(req->trace_seq, 0);
    }
  } else {
    mb.posted.push_back(req);
  }
  return req;
}

bool Comm::complete_recv(std::unique_lock<std::mutex>& lock,
                         const std::shared_ptr<detail::RequestState>& req,
                         const char* what, bool can_timeout) {
  if (!req->done) {
    // Keeps the receive buffer safe when the wait ends early: finish an
    // in-flight sender copy, or withdraw the posted receive so no later
    // sender writes into it.  True when the message did arrive.
    auto settle = [&] {
      if (req->copy_in_flight) {
        while (!req->done) runtime_->rank_cv(world_rank_).wait(lock);
      } else if (!req->done) {
        std::erase(runtime_->mailbox(world_rank_).posted, req);
      }
      return req->done;
    };
    detail_runtime::Runtime::WaitOutcome outcome{};
    try {
      outcome = runtime_->blocking_wait_for(
          lock, world_rank_, what, [&req] { return req->done; }, can_timeout);
    } catch (...) {
      settle();
      throw;
    }
    // A timeout may have raced an arriving message that a sender is still
    // copying in; then the message did arrive.
    if (outcome == detail_runtime::Runtime::WaitOutcome::kTimedOut &&
        !settle()) {
      return false;
    }
  }
  if (!req->error.empty()) throw MpiError(req->error);
  detail::RankState& st = state();
  adopt_clock(st, req->completion_time);
  // Hand the matched message's edge to the completing operation's trace
  // event (zero when the post already consumed it).
  if (!req->internal && !req->consumed && req->trace_seq != 0) {
    st.last_rx_seq = std::exchange(req->trace_seq, 0);
  }
  account_recv(st, *req, runtime_->options().record_channels);
  return true;
}

Status Comm::recv_bytes(std::span<std::byte> data, int source, int tag,
                        bool internal) {
  if (source != kAnySource) validate_peer(source, "recv");
  if (!internal && tag != kAnyTag) validate_user_tag(tag, "recv");
  // A blocking receive is an irecv followed by its wait.
  std::unique_lock<std::mutex> lock(runtime_->mutex());
  const auto req = post_recv(lock, data.data(), data.size(), source, tag,
                             internal, /*staged=*/false);
  complete_recv(lock, req, "Recv");
  return req->status;
}

Request Comm::irecv_bytes(std::span<std::byte> data, int source, int tag,
                          bool internal) {
  if (source != kAnySource) validate_peer(source, "irecv");
  if (!internal && tag != kAnyTag) validate_user_tag(tag, "irecv");
  std::unique_lock<std::mutex> lock(runtime_->mutex());
  return Request(post_recv(lock, data.data(), data.size(), source, tag,
                           internal, /*staged=*/false));
}

detail::StagedBuffer Comm::stage_acquire(std::size_t n) {
  bool hit = false;
  detail::Buffer buf = runtime_->buffer_pool().acquire(n, &hit);
  CommStats& cs = state().stats;
  ++(hit ? cs.pool_hits : cs.pool_misses);
  return detail::StagedBuffer{std::move(buf), 0, n};
}

detail::StagedBuffer Comm::stage_copy(std::span<const std::byte> src) {
  detail::StagedBuffer sb = stage_acquire(src.size());
  if (!src.empty()) {
    std::memcpy(sb.storage->data(), src.data(), src.size());
  }
  state().stats.copied_bytes += src.size();
  return sb;
}

detail::StagedBuffer Comm::recv_staged(int source, int tag, Status* status) {
  validate_peer(source, "recv");
  std::unique_lock<std::mutex> lock(runtime_->mutex());
  const auto req =
      post_recv(lock, nullptr, std::numeric_limits<std::size_t>::max(),
                source, tag, /*internal=*/true, /*staged=*/true);
  complete_recv(lock, req, "Recv (staged)");
  if (status != nullptr) *status = req->status;
  return std::move(req->staged);
}

void Comm::trace_end(Primitive op, int peer, int tag, std::size_t bytes,
                     const TraceStart& t0) {
  obs::Recorder* const rec = runtime_->recorder();
  if (rec == nullptr) return;
  detail::RankState& st = state();
  obs::Event e;
  e.rank = world_rank_;
  e.op = op_code(op);
  e.cat = primitive_category(op);
  e.peer = peer;
  e.tag = tag;
  e.context = context_;
  e.bytes = bytes;
  // Consume the message edges the byte-level transport stamped since t0
  // was taken (at most one each way per user operation).
  e.seq_out = std::exchange(st.last_tx_seq, 0);
  e.seq_in = std::exchange(st.last_rx_seq, 0);
  e.t_start = t0.sim;
  e.t_end = st.clock;
  e.wall_start = t0.wall;
  e.wall_end = rec->wall_now();
  e.name = primitive_name(op);
  // The lane belongs to this rank's thread, so no lock is needed.
  rec->lane(world_rank_).events.push_back(e);
}

void Comm::phase_begin(std::string_view name) {
  obs::Recorder* const rec = runtime_->recorder();
  if (rec == nullptr) return;
  state().phase_stack.push_back(
      detail::PhaseFrame{name, state().clock, rec->wall_now()});
}

void Comm::phase_end() {
  obs::Recorder* const rec = runtime_->recorder();
  if (rec == nullptr) return;
  detail::RankState& st = state();
  if (st.phase_stack.empty()) return;
  const detail::PhaseFrame frame = st.phase_stack.back();
  st.phase_stack.pop_back();
  obs::Event e;
  e.rank = world_rank_;
  e.cat = obs::Category::kPhase;
  e.context = context_;
  e.t_start = frame.sim_start;
  e.t_end = st.clock;
  e.wall_start = frame.wall_start;
  e.wall_end = rec->wall_now();
  e.name = frame.name;
  rec->lane(world_rank_).events.push_back(e);
}

Status Comm::wait(Request& request) {
  count_call(Primitive::kWait);
  const TraceStart t0 = trace_begin();
  const Status st = wait_nocount(request);
  trace_end(Primitive::kWait, st.source, st.tag, st.bytes, t0);
  return st;
}

bool Comm::advance_collective(
    const std::shared_ptr<detail::CollectiveState>& cs, bool blocking) {
  if (cs->done) return true;
  // Complete the posted sub-operations in post order (deterministic clock
  // adoption).  Non-blocking callers bail out at the first pending one.
  while (cs->completed < cs->subs.size()) {
    if (!blocking) {
      std::unique_lock<std::mutex> lock(runtime_->mutex());
      const auto& rs = cs->subs[cs->completed];
      const bool sub_done = rs->kind == detail::RequestState::Kind::kSend
                                ? (rs->done || rs->envelope->matched)
                                : rs->done;
      if (!sub_done) return false;
    }
    Request sub(cs->subs[cs->completed]);
    wait_nocount(sub);
    ++cs->completed;
  }
  // Root-side fan-in: before running `finish`, a non-blocking caller must
  // prove every lazily ingested message is already queued, so the blocking
  // receives inside `finish` provably fast-path.
  if (!blocking && !cs->ingests.empty()) {
    std::unique_lock<std::mutex> lock(runtime_->mutex());
    detail::Mailbox& mb = runtime_->mailbox(world_rank_);
    for (const auto& in : cs->ingests) {
      if (!mb.unexpected.find(in.source, in.tag, context_,
                              /*internal=*/true)) {
        return false;
      }
    }
  }
  if (cs->finish) {
    // Cleared only after success: a RankFailedError unwinding out of the
    // ingestion leaves the request incomplete, so waiting again rethrows
    // instead of silently succeeding.
    cs->finish(*this);
    cs->finish = nullptr;
  }
  cs->done = true;
  return true;
}

Status Comm::wait_nocount(Request& request) {
  if (!request.valid()) throw MpiError("wait on an empty Request");
  if (request.coll_ != nullptr) {
    advance_collective(request.coll_, /*blocking=*/true);
    return request.coll_->status;
  }
  auto rs = request.state_;

  std::unique_lock<std::mutex> lock(runtime_->mutex());
  if (rs->kind == detail::RequestState::Kind::kSend) {
    const auto& env = rs->envelope;
    if (env->rendezvous && !rs->done) {
      runtime_->blocking_wait(lock, world_rank_, "Wait (Isend rendezvous)",
                              [&env] { return env->matched; });
      rs->done = true;
      rs->completion_time = env->completion_time;
    }
    adopt_clock(state(), rs->completion_time);
    return Status{};
  }
  complete_recv(lock, rs, "Wait (Irecv)");
  return rs->status;
}

std::size_t Comm::wait_any(std::span<Request> requests, Status* status) {
  count_call(Primitive::kWait);
  if (requests.empty()) throw MpiError("wait_any on an empty request list");
  for (const Request& r : requests) {
    if (!r.valid()) throw MpiError("wait_any on an empty Request");
  }
  auto sub_done = [](const std::shared_ptr<detail::RequestState>& rs) {
    return rs->kind == detail::RequestState::Kind::kSend
               ? (rs->done || rs->envelope->matched)
               : rs->done;
  };
  // Completable without blocking.  For collectives: every remaining sub
  // done and every lazy ingest already queued (`finish` itself only posts
  // eager work, so it never blocks once this holds).  Checked under the
  // runtime lock.
  auto request_done = [&](const Request& r) {
    if (r.coll_ == nullptr) return sub_done(r.state_);
    const detail::CollectiveState& cs = *r.coll_;
    if (cs.done) return true;
    for (std::size_t i = cs.completed; i < cs.subs.size(); ++i) {
      if (!sub_done(cs.subs[i])) return false;
    }
    detail::Mailbox& mb = runtime_->mailbox(world_rank_);
    for (const auto& in : cs.ingests) {
      if (!mb.unexpected.find(in.source, in.tag, context_,
                              /*internal=*/true)) {
        return false;
      }
    }
    return true;
  };

  std::size_t which = requests.size();
  {
    std::unique_lock<std::mutex> lock(runtime_->mutex());
    runtime_->blocking_wait(lock, world_rank_, "Waitany", [&] {
      for (std::size_t i = 0; i < requests.size(); ++i) {
        if (request_done(requests[i])) {
          which = i;
          return true;
        }
      }
      return false;
    });
  }
  // Complete the found request (adopts clocks/counters idempotently).
  const Status st = wait_nocount(requests[which]);
  // wait_any records no trace event of its own; drop the pending message
  // edge so it cannot leak into the next traced operation.
  state().last_rx_seq = 0;
  if (status != nullptr) *status = st;
  return which;
}

bool Comm::test(Request& request, Status* status) {
  if (!request.valid()) throw MpiError("test on an empty Request");
  if (request.coll_ != nullptr) {
    if (!advance_collective(request.coll_, /*blocking=*/false)) return false;
    if (status != nullptr) *status = request.coll_->status;
    return true;
  }
  auto rs = request.state_;

  std::unique_lock<std::mutex> lock(runtime_->mutex());
  detail::RankState& st = state();
  const bool done = rs->kind == detail::RequestState::Kind::kSend
                        ? (rs->done || rs->envelope->matched)
                        : rs->done;
  if (!done) return false;
  if (!rs->error.empty()) throw MpiError(rs->error);
  if (rs->kind == detail::RequestState::Kind::kSend &&
      rs->envelope->rendezvous && !rs->done) {
    rs->done = true;
    rs->completion_time = rs->envelope->completion_time;
  }
  adopt_clock(st, rs->completion_time);
  if (rs->kind == detail::RequestState::Kind::kRecv) {
    account_recv(st, *rs, runtime_->options().record_channels);
  }
  if (status != nullptr) *status = rs->status;
  return true;
}

void Comm::wait_all(std::span<Request> requests) {
  for (Request& r : requests) {
    if (r.valid()) wait(r);
  }
}

Status Comm::probe(int source, int tag) {
  count_call(Primitive::kProbe);
  const TraceStart t_begin = trace_begin();
  if (source != kAnySource) validate_peer(source, "probe");
  if (tag != kAnyTag) validate_user_tag(tag, "probe");

  std::unique_lock<std::mutex> lock(runtime_->mutex());
  detail::RankState& st = state();
  detail::Mailbox& mb = runtime_->mailbox(world_rank_);
  const detail::Envelope* found = nullptr;
  auto find_match = [&]() -> bool {
    if (auto m =
            mb.unexpected.find(source, tag, context_, /*internal=*/false)) {
      found = m->handle().get();
      return true;
    }
    return false;
  };
  runtime_->blocking_wait(lock, world_rank_, "Probe", find_match);
  // Probing reveals the envelope metadata once the message head arrives;
  // the payload itself is ingested by the subsequent receive.
  adopt_clock(st, found->arrival_head);
  lock.unlock();
  trace_end(Primitive::kProbe, found->source, found->tag,
            found->payload.size(), t_begin);
  return Status{found->source, found->tag, found->payload.size()};
}

std::optional<Status> Comm::iprobe(int source, int tag) {
  if (source != kAnySource) validate_peer(source, "iprobe");
  if (tag != kAnyTag) validate_user_tag(tag, "iprobe");

  std::unique_lock<std::mutex> lock(runtime_->mutex());
  detail::Mailbox& mb = runtime_->mailbox(world_rank_);
  if (auto m = mb.unexpected.find(source, tag, context_, /*internal=*/false)) {
    const auto& env = m->handle();
    return Status{env->source, env->tag, env->payload.size()};
  }
  return std::nullopt;
}

void Comm::fault_tick(Primitive p) {
  const FaultOptions& plan = runtime_->options().faults;
  if (world_rank_ != plan.kill_rank) return;
  detail::RankState& st = state();
  if (++st.primitive_calls != plan.kill_at_call) return;
  std::ostringstream os;
  os << "rank " << world_rank_ << " killed by fault injection at primitive "
     << "call " << plan.kill_at_call << " (" << primitive_name(p) << ")";
  const std::string why = os.str();
  // Publish the death before unwinding so every survivor — blocked now or
  // blocking later — gets RankFailedError instead of hanging.
  runtime_->note_rank_killed(world_rank_, why);
  throw RankFailedError(why);
}

void Comm::send_reliable_bytes(std::span<const std::byte> data, int dest,
                               int tag) {
  validate_peer(dest, "send_reliable");
  validate_user_tag(tag, "send_reliable");
  DIPDC_REQUIRE(runtime_->options().detect_deadlock,
                "send_reliable requires detect_deadlock: deterministic "
                "acknowledgement timeouts piggyback on global-stall proofs");
  detail::RankState& st = state();
  const int wdest = to_world(dest);
  const std::uint64_t seq = ++st.reliable_next_seq[wdest];

  std::vector<std::byte> frame(sizeof(detail::ReliableHeader) + data.size());
  const detail::ReliableHeader hdr{seq};
  std::memcpy(frame.data(), &hdr, sizeof(hdr));
  if (!data.empty()) {
    std::memcpy(frame.data() + sizeof(hdr), data.data(), data.size());
  }

  const ReliableOptions& ro = runtime_->options().reliable;
  for (int attempt = 0; attempt <= ro.max_retries; ++attempt) {
    if (attempt > 0) ++st.stats.reliable_retries;
    send_bytes(frame, dest, tag, /*internal=*/false);
    for (;;) {
      detail::ReliableHeader ack{};
      const bool got = recv_ack_timeout(
          std::as_writable_bytes(std::span<detail::ReliableHeader>(&ack, 1)),
          dest, detail::kReliableAckTag, nullptr);
      if (!got) break;  // provably lost: retransmit
      if (ack.seq == seq) return;
      // A stale acknowledgement for an earlier frame (its duplicate was
      // acked twice); discard it and keep waiting for ours.
    }
  }
  std::ostringstream os;
  os << "send_reliable: no acknowledgement from rank " << dest << " (tag "
     << tag << ") after " << ro.max_retries
     << " retransmissions — retry budget exhausted";
  throw MpiError(os.str());
}

Status Comm::recv_reliable_bytes(std::span<std::byte> data, int source,
                                 int tag) {
  detail::RankState& st = state();
  std::vector<std::byte> frame(sizeof(detail::ReliableHeader) + data.size());
  for (;;) {
    const Status raw = recv_bytes(frame, source, tag, /*internal=*/false);
    if (raw.bytes < sizeof(detail::ReliableHeader)) {
      throw MpiError(
          "recv_reliable: frame lacks a sequence header — the peer must "
          "send with send_reliable");
    }
    detail::ReliableHeader hdr{};
    std::memcpy(&hdr, frame.data(), sizeof(hdr));
    // Acknowledge every frame, duplicates included: the sender may be
    // retransmitting precisely because an earlier copy went unacknowledged
    // from its point of view.  Acks ride the lossless control channel.
    const detail::ReliableHeader ack{hdr.seq};
    send_bytes(std::as_bytes(std::span<const detail::ReliableHeader>(&ack, 1)),
               raw.source, detail::kReliableAckTag, /*internal=*/true);
    std::uint64_t& delivered = st.reliable_delivered_seq[to_world(raw.source)];
#ifdef DIPDC_MUTATE_RELIABLE_DUP
    // Planted bug (fuzzer-validation builds only, -DDIPDC_MUTATION=
    // reliable-dup): off-by-one high-water mark lets an injected duplicate
    // of the most recently delivered frame through as a fresh message.
    if (hdr.seq < delivered) {
#else
    if (hdr.seq <= delivered) {
#endif
      // Retransmission or injected duplicate of an already-delivered frame.
      ++st.stats.reliable_duplicates;
      continue;
    }
    delivered = hdr.seq;
    const std::size_t payload = raw.bytes - sizeof(hdr);
    if (payload > 0) {
      std::memcpy(data.data(), frame.data() + sizeof(hdr), payload);
    }
    return Status{raw.source, raw.tag, payload};
  }
}

bool Comm::recv_ack_timeout(std::span<std::byte> data, int source, int tag,
                            Status* status) {
  std::unique_lock<std::mutex> lock(runtime_->mutex());
  const auto req = post_recv(lock, data.data(), data.size(), source, tag,
                             /*internal=*/true, /*staged=*/false);
  // The wait expires when the runtime proves the whole world is stalled
  // (the ack provably cannot arrive).
  if (!complete_recv(lock, req, "Recv (reliable ack)", /*can_timeout=*/true)) {
    detail::RankState& st = state();
    charge_comm(st, runtime_->options().reliable.timeout_seconds);
    ++st.stats.reliable_timeouts;
    return false;
  }
  if (status != nullptr) *status = req->status;
  return true;
}

}  // namespace dipdc::minimpi
