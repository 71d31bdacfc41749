// Internal message-transport structures.  Nothing in this header is part of
// the public API; it is included by comm.hpp only because Request hands out
// a shared handle to a RequestState.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "minimpi/pool.hpp"
#include "minimpi/stats.hpp"
#include "minimpi/trace.hpp"
#include "minimpi/types.hpp"
#include "support/rng.hpp"

namespace dipdc::minimpi {
class Comm;  // CollectiveState::finish runs against the completing Comm
}  // namespace dipdc::minimpi

namespace dipdc::minimpi::detail {

/// Message payload with three storage strategies:
///  - inline: small messages live in a fixed in-envelope array (no heap
///    allocation on the eager fast path);
///  - heap: a shared, pooled buffer (possibly a sub-range view of a larger
///    buffer), letting receivers adopt the bytes without copying and
///    letting collectives forward one buffer through many hops;
///  - borrowed: a raw span of the sender's memory, used only for blocking
///    rendezvous sends where the sender provably stays alive (blocked)
///    until the receiver has consumed the bytes.
class Payload {
 public:
  static constexpr std::size_t kMaxInline = 256;

  Payload() = default;

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] const std::byte* data() const {
    switch (storage_) {
      case Storage::kInline:
        return inline_.data();
      case Storage::kHeap:
        return heap_->data() + offset_;
      case Storage::kBorrowed:
        return borrowed_;
      case Storage::kEmpty:
        break;
    }
    return nullptr;
  }
  [[nodiscard]] std::span<const std::byte> view() const {
    return {data(), size_};
  }
  void copy_to(std::byte* dst) const {
    if (size_ != 0) std::memcpy(dst, data(), size_);
  }

  /// True when the bytes live in a shared heap buffer that a receiver can
  /// adopt (refcount) instead of copying.
  [[nodiscard]] bool shareable() const { return storage_ == Storage::kHeap; }
  /// True when the bytes are a raw span of another rank's stack/heap — only
  /// valid while that rank stays blocked, and never safe to carry across an
  /// address-space boundary (Runtime::transport_envelope guards on this).
  [[nodiscard]] bool is_borrowed() const {
    return storage_ == Storage::kBorrowed;
  }
  [[nodiscard]] const Buffer& buffer() const { return heap_; }
  [[nodiscard]] std::size_t buffer_offset() const { return offset_; }
  /// The shared heap range as a StagedBuffer (shareable() only).
  [[nodiscard]] StagedBuffer share() const {
    return StagedBuffer{heap_, offset_, size_};
  }

  static Payload inline_copy(std::span<const std::byte> src) {
    Payload p;
    if (src.empty()) return p;
    p.storage_ = Storage::kInline;
    p.size_ = src.size();
    std::memcpy(p.inline_.data(), src.data(), src.size());
    return p;
  }
  /// Copies `src` into `buf` (which must hold at least src.size() bytes).
  static Payload owned(Buffer buf, std::span<const std::byte> src) {
    Payload p;
    p.storage_ = Storage::kHeap;
    p.size_ = src.size();
    p.heap_ = std::move(buf);
    if (!src.empty()) std::memcpy(p.heap_->data(), src.data(), src.size());
    return p;
  }
  /// Shares an existing buffer range without copying.
  static Payload shared_view(const StagedBuffer& sb) {
    Payload p;
    p.storage_ = Storage::kHeap;
    p.size_ = sb.len;
    p.offset_ = sb.offset;
    p.heap_ = sb.storage;
    return p;
  }
  static Payload borrowed_from(std::span<const std::byte> src) {
    Payload p;
    p.storage_ = Storage::kBorrowed;
    p.size_ = src.size();
    p.borrowed_ = src.data();
    return p;
  }

  void reset() {
    storage_ = Storage::kEmpty;
    size_ = 0;
    offset_ = 0;
    borrowed_ = nullptr;
    heap_.reset();
  }

 private:
  enum class Storage : std::uint8_t { kEmpty, kInline, kHeap, kBorrowed };

  Storage storage_ = Storage::kEmpty;
  std::size_t size_ = 0;
  std::size_t offset_ = 0;
  const std::byte* borrowed_ = nullptr;
  Buffer heap_;
  std::array<std::byte, kMaxInline> inline_;
};

/// One in-flight message.  Created by the sender under the runtime lock;
/// consumed by the receiver (or matched against a posted receive by the
/// sending thread itself).
struct Envelope {
  int source = 0;     // sender's rank *within the communicator* (context)
  int src_world = 0;  // sender's world rank (for channel accounting)
  int dest = 0;       // destination *world* rank (mailbox index)
  int tag = 0;
  int context = 0;  // communicator id: 0 = world, >0 = split comms
  Payload payload;
  bool rendezvous = false;  // sender blocks until matched
  bool matched = false;     // receiver has consumed the payload
  bool internal = false;    // collective-internal traffic
  /// Mailbox arrival order, stamped by UnexpectedQueue::push (wildcard-tag
  /// receives must match the earliest arrival across all tag buckets).
  std::uint64_t seq = 0;
  /// Observability message-edge id (obs::Recorder::alloc_seq), stamped by
  /// the sender when tracing is on; 0 otherwise.  The matching receive
  /// event records it as seq_in, linking the send/recv pair in exported
  /// traces and the critical-path graph.
  std::uint64_t trace_seq = 0;
  /// Simulated time at which the head of the message reaches the
  /// destination (sender clock at send + latency).
  double arrival_head = 0.0;
  /// Payload serialization time at the destination link (bytes/bandwidth).
  /// The receiver ingests messages one at a time, so a rank that is sent
  /// many messages at once pays for their combined volume.
  double byte_time = 0.0;
  /// Receiver clock immediately after the matching receive; a rendezvous
  /// sender synchronises its own clock to this value.
  double completion_time = 0.0;

  void reset() {
    payload.reset();
    rendezvous = matched = internal = false;
    src_world = 0;
    seq = 0;
    trace_seq = 0;
    arrival_head = byte_time = completion_time = 0.0;
  }
};

/// State behind a Request handle: a posted non-blocking receive, or the
/// sender side of an Isend.
struct RequestState {
  enum class Kind { kSend, kRecv };
  Kind kind = Kind::kRecv;

  bool done = false;
  bool consumed = false;  // wait()/test() already accounted for completion
  Status status{};
  int src_world = 0;  // world rank behind status.source (channel accounting)
  double completion_time = 0.0;
  /// Observability edge id of the matched message (see Envelope::trace_seq);
  /// consumed by the completing receive's trace event.
  std::uint64_t trace_seq = 0;
  std::string error;  // non-empty => wait() throws MpiError

  // Posted-receive fields.
  std::byte* buffer = nullptr;
  std::size_t capacity = 0;
  int source_filter = kAnySource;
  int tag_filter = kAnyTag;
  int context = 0;
  bool internal = false;
  double post_time = 0.0;
  /// Runtime::match is copying the payload into `buffer` without holding
  /// the runtime lock (on the sender's thread when the receive was posted
  /// first); `done` follows shortly.
  /// An unwinding receiver must wait for the flag to clear before its
  /// buffer may go out of scope.
  bool copy_in_flight = false;

  // Staged-receive fields (collective-internal zero-copy path): when
  // `want_staged`, Runtime::match parks the payload here — a shared
  // view when the payload is a heap buffer and zero-copy is on, a pooled
  // copy otherwise — instead of copying into `buffer`.
  bool want_staged = false;
  bool staged_shared = false;  // true when adopted without a copy
  bool pool_hit = false;       // the pooled copy reused a free buffer
  StagedBuffer staged;

  // Send fields.
  std::shared_ptr<Envelope> envelope;
};

/// State behind a nonblocking-collective Request (ibcast / ireduce /
/// iallreduce / iallgatherv).  A flat (star) schedule decomposed into three
/// parts, all created at issue time:
///
///  - `subs`: sub-operations posted immediately — eager internal isends
///    (complete at post) and posted internal irecvs (complete at delivery,
///    which is what buys compute/communication overlap);
///  - `ingests`: root-side fan-in messages received *lazily* at completion
///    time, in list order.  They arrive as unexpected internal messages
///    while the root computes; deferring the receive keeps the simulated
///    ingress-link accounting in a receiver-chosen, deterministic order
///    (posting p-1 concurrent irecvs would make the clocks depend on the
///    real-time arrival schedule);
///  - `finish`: deferred local work run once every sub completed — performs
///    the lazy ingestion (blocking receives that fast-path because test()/
///    wait_any() only declare completability once every ingest is queued),
///    combines/copies out, and may post eager follow-up sends.  It must
///    never block on traffic outside `ingests`, and is cleared only after
///    it ran to completion so a wait after RankFailedError rethrows instead
///    of silently succeeding.
struct CollectiveState {
  std::vector<std::shared_ptr<RequestState>> subs;
  /// subs[0..completed) have been waited (clocks adopted).
  std::size_t completed = 0;

  struct Ingest {
    int source = 0;  // comm rank
    int tag = 0;     // collective-internal tag
  };
  std::vector<Ingest> ingests;

  std::function<void(Comm&)> finish;
  bool done = false;
  Status status{};  // collectives carry no source/tag/bytes
};

/// Does envelope `e` satisfy posted-receive (or blocking-receive) filters?
inline bool filters_match(int source_filter, int tag_filter, int context,
                          bool internal, const Envelope& e) {
  if (e.context != context) return false;
  if (e.internal != internal) return false;
  if (source_filter != kAnySource && source_filter != e.source) return false;
  if (tag_filter != kAnyTag && tag_filter != e.tag) return false;
  return true;
}

/// Wire framing for the acknowledged-delivery protocol: send_reliable
/// prepends this header to the user payload, and acknowledgements carry it
/// alone.  The sequence number is per (sender, receiver) world-rank pair
/// and strictly increasing, so a receiver filters retransmission/injection
/// duplicates with a single high-water mark (the channel is FIFO).
struct ReliableHeader {
  std::uint64_t seq = 0;
};

/// Tag of reliable-delivery acknowledgements.  ACKs travel as
/// collective-internal ("control channel") messages so the fault injector
/// never touches them; collectives consume strictly negative internal
/// tags, so any positive constant is collision-free.
inline constexpr int kReliableAckTag = 0x7ACC;

/// Directed per-channel traffic tally (RuntimeOptions::record_channels).
struct ChannelCount {
  std::uint64_t bytes = 0;
  std::uint64_t messages = 0;
};

/// One open Comm::phase_begin frame (record_trace only).
struct PhaseFrame {
  std::string_view name;
  double sim_start = 0.0;
  double wall_start = 0.0;
};

/// Per-world-rank simulation state, shared by every communicator the rank
/// participates in (the world communicator and any split() descendants).
/// The fault/reliable fields are touched only by the owning rank's thread.
struct RankState {
  double clock = 0.0;
  CommStats stats{};

  /// Observability bookkeeping (all zero / empty unless record_trace).
  /// The last message edge this rank put on / took off the wire; the
  /// enclosing user operation's trace event consumes (and clears) them.
  std::uint64_t last_tx_seq = 0;
  std::uint64_t last_rx_seq = 0;
  /// Open phase_begin frames (LIFO).
  std::vector<PhaseFrame> phase_stack;

  /// User p2p traffic per peer world rank (record_channels only): what this
  /// rank put on the wire towards `dest`, and what it ingested from `src`.
  /// Sent and received sides are tallied independently so the fuzzer can
  /// assert they agree channel by channel.
  std::unordered_map<int, ChannelCount> channel_sent;      // key: dest world
  std::unordered_map<int, ChannelCount> channel_received;  // key: src world

  /// Serialization scratch for the backend seam, reused across sends so
  /// frame buffers amortise like the envelope pool.  Touched only by the
  /// owning rank's thread, outside the runtime lock.
  std::vector<std::byte> backend_tx_frame;
  std::vector<std::byte> backend_rx_frame;

  /// Per-rank fault stream (seeded by Runtime from FaultOptions::seed).
  support::Xoshiro256 fault_rng{0};
  /// User primitive calls so far; drives FaultOptions::kill_at_call.
  std::uint64_t primitive_calls = 0;
  /// send_reliable sequence numbers, per destination world rank.
  std::unordered_map<int, std::uint64_t> reliable_next_seq;
  /// Highest sequence delivered by recv_reliable, per source world rank.
  std::unordered_map<int, std::uint64_t> reliable_delivered_seq;
};

/// Unexpected-message queue indexed by (context, tag) so exact-tag receives
/// probe one bucket instead of scanning every queued message.  Arrival
/// order across buckets is preserved through per-envelope sequence numbers:
/// wildcard-tag receives take the lowest sequence number among matching
/// heads, which is exactly the arrival-order semantics of a single FIFO.
struct UnexpectedQueue {
  using Queue = std::deque<std::shared_ptr<Envelope>>;

  std::unordered_map<std::uint64_t, Queue> buckets;
  std::uint64_t next_seq = 0;

  static std::uint64_t key(int context, int tag) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(context))
            << 32) |
           static_cast<std::uint32_t>(tag);
  }

  /// Handle to a matched envelope; valid until the queue is next modified.
  struct Match {
    Queue* queue = nullptr;
    std::size_t index = 0;
    std::uint64_t bucket_key = 0;

    [[nodiscard]] const std::shared_ptr<Envelope>& handle() const {
      return (*queue)[index];
    }
  };

  void push(const std::shared_ptr<Envelope>& env) {
    env->seq = next_seq++;
    buckets[key(env->context, env->tag)].push_back(env);
  }

  /// Earliest-arrival envelope matching the filters.
  [[nodiscard]] std::optional<Match> find(int source_filter, int tag_filter,
                                          int context, bool internal) {
    if (tag_filter != kAnyTag) {
      const std::uint64_t k = key(context, tag_filter);
      auto it = buckets.find(k);
      if (it == buckets.end()) return std::nullopt;
      Queue& q = it->second;
      for (std::size_t i = 0; i < q.size(); ++i) {
        if (filters_match(source_filter, tag_filter, context, internal,
                          *q[i])) {
          return Match{&q, i, k};
        }
      }
      return std::nullopt;
    }
    // Wildcard tag: first matching entry of each bucket is that bucket's
    // earliest candidate; pick the globally earliest arrival.
    std::optional<Match> best;
    std::uint64_t best_seq = std::numeric_limits<std::uint64_t>::max();
    for (auto& [k, q] : buckets) {
      if (static_cast<int>(static_cast<std::int32_t>(k >> 32)) != context) {
        continue;
      }
      for (std::size_t i = 0; i < q.size(); ++i) {
        if (!filters_match(source_filter, tag_filter, context, internal,
                           *q[i])) {
          continue;
        }
#ifdef DIPDC_MUTATE_WILDCARD_ORDER
        // Planted bug (fuzzer-validation builds only, -DDIPDC_MUTATION=
        // wildcard-order): prefer the LATEST arrival among bucket heads,
        // violating the FIFO semantics of wildcard-tag matching.
        if (!best.has_value() || q[i]->seq > best_seq) {
#else
        if (q[i]->seq < best_seq) {
#endif
          best_seq = q[i]->seq;
          best = Match{&q, i, k};
        }
        break;  // later entries in this bucket arrived later
      }
    }
    return best;
  }

  void erase(const Match& m) {
    m.queue->erase(m.queue->begin() + static_cast<std::ptrdiff_t>(m.index));
    if (m.queue->empty()) buckets.erase(m.bucket_key);
  }

  /// Removes a specific envelope (sender unwind path); false if absent.
  bool remove(const Envelope* env) {
    auto it = buckets.find(key(env->context, env->tag));
    if (it == buckets.end()) return false;
    Queue& q = it->second;
    for (std::size_t i = 0; i < q.size(); ++i) {
      if (q[i].get() == env) {
        q.erase(q.begin() + static_cast<std::ptrdiff_t>(i));
        if (q.empty()) buckets.erase(it);
        return true;
      }
    }
    return false;
  }
};

/// Per-rank mailbox: messages not yet matched by a receive, and receives
/// not yet matched by a message.
struct Mailbox {
  UnexpectedQueue unexpected;
  std::deque<std::shared_ptr<RequestState>> posted;
  /// Simulated time until which this rank's ingress link is occupied by
  /// previously received payloads (receiver-side serialization).
  double link_busy_until = 0.0;
};

/// Receiver-side ingress serialization, the one timing rule of every
/// receive (applied by Runtime::match alone): the payload streams in only
/// after `floor` (the receive's post time), the head's arrival, and the
/// end of earlier payloads on this rank's link.  Occupies the link until
/// the completion, stamps it on the envelope, and returns it.
inline double charge_ingress(Mailbox& mb, Envelope& env, double floor) {
  const double completion =
      std::max({floor, env.arrival_head, mb.link_busy_until}) + env.byte_time;
  mb.link_busy_until = completion;
  env.completion_time = completion;
  return completion;
}

}  // namespace dipdc::minimpi::detail
