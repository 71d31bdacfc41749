// The per-rank communicator: the public face of minimpi.
//
// The typed template methods in this header are thin wrappers over the
// byte-level operations implemented in comm.cpp / collectives.cpp.  All
// message types must be trivially copyable (they travel as raw bytes, as
// with MPI datatypes over contiguous buffers).
#pragma once

#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <type_traits>
#include <vector>

#include "minimpi/detail.hpp"
#include "minimpi/error.hpp"
#include "minimpi/runtime.hpp"
#include "minimpi/stats.hpp"
#include "minimpi/types.hpp"

namespace dipdc::minimpi {

template <typename T>
concept Trivial = std::is_trivially_copyable_v<T>;

/// Handle to a pending non-blocking operation: a p2p isend/irecv, or a
/// nonblocking collective (ibcast/ireduce/iallreduce/iallgatherv).
/// Complete it with Comm::wait()/test()/wait_all()/wait_any(); destroying
/// an incomplete Request is allowed (the transfer still happens, like a
/// forgotten MPI request leak), and destroying a completed-but-unwaited
/// collective request is safe — all pending state is owned by the request
/// or the mailbox, never borrowed from it.  Collective requests must be
/// completed on the communicator that issued them.
class Request {
 public:
  Request() = default;

  [[nodiscard]] bool valid() const {
    return state_ != nullptr || coll_ != nullptr;
  }
  /// Receive status; meaningful after wait()/test() returned success.
  [[nodiscard]] const Status& status() const {
    return coll_ != nullptr ? coll_->status : state_->status;
  }

 private:
  friend class Comm;
  explicit Request(std::shared_ptr<detail::RequestState> state)
      : state_(std::move(state)) {}
  explicit Request(std::shared_ptr<detail::CollectiveState> coll)
      : coll_(std::move(coll)) {}

  std::shared_ptr<detail::RequestState> state_;
  std::shared_ptr<detail::CollectiveState> coll_;
};

class Comm {
 public:
  Comm(const Comm&) = delete;
  Comm& operator=(const Comm&) = delete;
  Comm(Comm&&) = default;
  Comm& operator=(Comm&&) = default;

  /// Rank within this communicator.
  [[nodiscard]] int rank() const { return rank_; }
  /// Number of ranks in this communicator.
  [[nodiscard]] int size() const {
    return group_.empty() ? runtime_->nranks()
                          : static_cast<int>(group_.size());
  }
  /// The underlying world rank (stable across split()).
  [[nodiscard]] int world_rank() const { return world_rank_; }

  /// World ranks of this communicator's members, in comm-rank order.
  [[nodiscard]] std::vector<int> world_group() const {
    if (!group_.empty()) return group_;
    std::vector<int> g(static_cast<std::size_t>(size()));
    for (int r = 0; r < size(); ++r) g[static_cast<std::size_t>(r)] = r;
    return g;
  }

  /// Simulated wall-clock (seconds since the world started), analogous to
  /// MPI_Wtime under the configured machine model.  Shared across all
  /// communicators of this rank.
  [[nodiscard]] double wtime() const { return state().clock; }

  /// Advances this rank's simulated clock through the machine model's
  /// roofline cost for a kernel of `flops` operations touching `mem_bytes`
  /// bytes of DRAM traffic.
  void sim_compute(double flops, double mem_bytes);

  /// Advances this rank's simulated clock by a fixed duration, accounted
  /// as idle/waiting time (CommStats::sim_idle_seconds), not kernel work.
  void sim_advance(double seconds);

  [[nodiscard]] const CommStats& stats() const { return state().stats; }
  [[nodiscard]] const perfmodel::CostModel& cost_model() const {
    return runtime_->cost();
  }

  // ---- Phase spans ---------------------------------------------------------
  // Named spans bracketing a module's algorithmic phases ("assign",
  // "update", "exchange", ...).  They envelope the operations performed
  // inside them in exported traces and drive the per-phase timers in the
  // metrics registry.  No-ops unless RuntimeOptions::record_trace; `name`
  // must reference static storage (pass a string literal).

  void phase_begin(std::string_view name);
  /// Closes the innermost open phase (no-op when none is open).
  void phase_end();

  /// RAII phase span: `minimpi::Phase p(comm, "assign");`
  class Phase {
   public:
    Phase(Comm& comm, std::string_view name) : comm_(&comm) {
      comm_->phase_begin(name);
    }
    ~Phase() {
      if (comm_ != nullptr) comm_->phase_end();
    }
    Phase(const Phase&) = delete;
    Phase& operator=(const Phase&) = delete;

   private:
    Comm* comm_;
  };

  // ---- Point-to-point ----------------------------------------------------

  template <Trivial T>
  void send(std::span<const T> data, int dest, int tag = 0) {
    count_call(Primitive::kSend);
    const TraceStart t0 = trace_begin();
    send_bytes(as_bytes(data), dest, tag, /*internal=*/false);
    trace_end(Primitive::kSend, dest, tag, data.size_bytes(), t0);
  }

  template <Trivial T>
  void send_value(const T& value, int dest, int tag = 0) {
    send(std::span<const T>(&value, 1), dest, tag);
  }

  /// Receives into `data`; the message may be shorter than the buffer (the
  /// status reports the actual size) but must not be longer.
  template <Trivial T>
  Status recv(std::span<T> data, int source = kAnySource, int tag = kAnyTag) {
    count_call(Primitive::kRecv);
    const TraceStart t0 = trace_begin();
    const Status st = recv_bytes(as_writable_bytes(data), source, tag,
                                 /*internal=*/false);
    trace_end(Primitive::kRecv, st.source, st.tag, st.bytes, t0);
    return st;
  }

  template <Trivial T>
  T recv_value(int source = kAnySource, int tag = kAnyTag) {
    T value{};
    const Status st = recv(std::span<T>(&value, 1), source, tag);
    if (st.bytes != sizeof(T)) {
      throw MpiError("recv_value: message size does not match value type");
    }
    return value;
  }

  /// Probes for the next matching message and receives exactly it,
  /// whatever its length (the MPI_Probe + MPI_Get_count + MPI_Recv idiom
  /// Module 3 teaches).
  template <Trivial T>
  std::vector<T> recv_vector(int source = kAnySource, int tag = kAnyTag) {
    const Status st = probe(source, tag);
    std::vector<T> data(st.count<T>());
    recv(std::span<T>(data), st.source, st.tag);
    return data;
  }

  template <Trivial T>
  Request isend(std::span<const T> data, int dest, int tag = 0) {
    count_call(Primitive::kIsend);
    const TraceStart t0 = trace_begin();
    Request req = isend_bytes(as_bytes(data), dest, tag, /*internal=*/false);
    trace_end(Primitive::kIsend, dest, tag, data.size_bytes(), t0);
    return req;
  }

  template <Trivial T>
  Request isend_value(const T& value, int dest, int tag = 0) {
    return isend(std::span<const T>(&value, 1), dest, tag);
  }

  /// Posts a non-blocking receive; `data` must stay alive until completion.
  template <Trivial T>
  Request irecv(std::span<T> data, int source = kAnySource,
                int tag = kAnyTag) {
    count_call(Primitive::kIrecv);
    const TraceStart t0 = trace_begin();
    Request req = irecv_bytes(as_writable_bytes(data), source, tag,
                              /*internal=*/false);
    trace_end(Primitive::kIrecv, source, tag, data.size_bytes(), t0);
    return req;
  }

  /// Blocks until the request completes; returns the receive status.
  Status wait(Request& request);
  /// Blocks until at least one request completes; returns its index and
  /// fills `status` for receives (MPI_Waitany).
  std::size_t wait_any(std::span<Request> requests,
                       Status* status = nullptr);
  /// Non-blocking completion check; fills `status` when true.
  bool test(Request& request, Status* status = nullptr);
  void wait_all(std::span<Request> requests);

  /// Blocks until a matching message is available; the message is left in
  /// place for a subsequent recv.
  Status probe(int source = kAnySource, int tag = kAnyTag);
  /// Non-blocking probe.
  std::optional<Status> iprobe(int source = kAnySource, int tag = kAnyTag);

  // ---- Reliable delivery -------------------------------------------------
  // Acknowledged sends that survive injected message loss: each frame
  // carries a sequence number, the receiver acknowledges it over the
  // lossless control channel, and the sender retransmits when the
  // acknowledgement provably cannot arrive (deterministic timeout).  Both
  // ends must use the reliable variants; duplicates (retransmissions and
  // injected dups) are filtered by sequence number, so delivery is
  // exactly-once per frame.  Requires RuntimeOptions::detect_deadlock.

  /// Acknowledged send; retries up to ReliableOptions::max_retries times.
  /// Throws MpiError when the retry budget is exhausted without an ack.
  template <Trivial T>
  void send_reliable(std::span<const T> data, int dest, int tag = 0) {
    count_call(Primitive::kSendReliable);
    const TraceStart t0 = trace_begin();
    send_reliable_bytes(as_bytes(data), dest, tag);
    trace_end(Primitive::kSendReliable, dest, tag, data.size_bytes(), t0);
  }

  template <Trivial T>
  void send_reliable_value(const T& value, int dest, int tag = 0) {
    send_reliable(std::span<const T>(&value, 1), dest, tag);
  }

  /// Receives one frame sent with send_reliable and acknowledges it.
  template <Trivial T>
  Status recv_reliable(std::span<T> data, int source = kAnySource,
                       int tag = kAnyTag) {
    count_call(Primitive::kRecvReliable);
    const TraceStart t0 = trace_begin();
    const Status st = recv_reliable_bytes(as_writable_bytes(data), source, tag);
    trace_end(Primitive::kRecvReliable, st.source, st.tag, st.bytes, t0);
    return st;
  }

  template <Trivial T>
  T recv_reliable_value(int source = kAnySource, int tag = kAnyTag) {
    T value{};
    const Status st = recv_reliable(std::span<T>(&value, 1), source, tag);
    if (st.bytes != sizeof(T)) {
      throw MpiError(
          "recv_reliable_value: message size does not match value type");
    }
    return value;
  }

  /// Combined send+receive that is deadlock-safe (internally isend+recv),
  /// as MPI_Sendrecv is.
  template <Trivial T>
  Status sendrecv(std::span<const T> send_data, int dest, int send_tag,
                  std::span<T> recv_data, int source = kAnySource,
                  int recv_tag = kAnyTag) {
    count_call(Primitive::kSendrecv);
    const TraceStart t0 = trace_begin();
    Request sreq = isend_bytes(as_bytes(send_data), dest, send_tag,
                               /*internal=*/false);
    const Status st = recv_bytes(as_writable_bytes(recv_data), source,
                                 recv_tag, /*internal=*/false);
    wait_nocount(sreq);
    trace_end(Primitive::kSendrecv, dest, send_tag,
              send_data.size_bytes() + st.bytes, t0);
    return st;
  }

  // ---- Collectives ---------------------------------------------------------
  // All ranks must call the same collective in the same order; collective
  // payloads are matched by an internal per-communicator sequence number,
  // never by user tags.

  void barrier();

  /// Splits this communicator (MPI_Comm_split): ranks passing the same
  /// non-negative `color` form a new communicator, ordered by (key, rank).
  /// Collective over this communicator.
  [[nodiscard]] Comm split(int color, int key = 0);

  // ---- Shrink-on-failure ---------------------------------------------------

  /// World rank killed by fault injection, or -1.  A rank catching
  /// RankFailedError uses this to tell "a peer died" (recover) from
  /// "I am the dead rank" (rethrow).
  [[nodiscard]] int failed_rank() const { return runtime_->failed_rank(); }

  /// ULFM-style shrink: after catching a RankFailedError caused by a
  /// fault-injection kill, every surviving rank calls shrink() once and
  /// receives a fresh communicator over exactly the survivors (ordered by
  /// world rank).  The agreement barrier purges all pre-failure traffic
  /// and clears the global abort, so the survivors can keep communicating;
  /// pre-failure Requests and in-flight messages are invalidated.  The
  /// dead rank must rethrow instead of calling this.
  [[nodiscard]] Comm shrink();

  template <Trivial T>
  void bcast(std::span<T> data, int root) {
    count_call(Primitive::kBcast);
    const TraceStart t0 = trace_begin();
    bcast_bytes(as_writable_bytes(data), root);
    trace_end(Primitive::kBcast, root, 0, data.size_bytes(), t0);
  }

  /// The root's side of bcast() for data it may only read: the caller is
  /// the root, and the other ranks call bcast(data, this rank).  The same
  /// messages, bytes and trace event as bcast().
  template <Trivial T>
  void bcast_root(std::span<const T> data) {
    count_call(Primitive::kBcast);
    const TraceStart t0 = trace_begin();
    bcast_bytes(std::as_bytes(data), {}, rank_);
    trace_end(Primitive::kBcast, rank_, 0, data.size_bytes(), t0);
  }

  template <Trivial T>
  T bcast_value(T value, int root) {
    bcast(std::span<T>(&value, 1), root);
    return value;
  }

  /// Root's `send_data` (size() * chunk elements) is split into equal
  /// chunks, one per rank, received in `recv_data` (chunk elements).
  template <Trivial T>
  void scatter(std::span<const T> send_data, std::span<T> recv_data,
               int root) {
    count_call(Primitive::kScatter);
    const TraceStart t0 = trace_begin();
    scatter_bytes(as_bytes(send_data), as_writable_bytes(recv_data), root);
    trace_end(Primitive::kScatter, root, 0, recv_data.size_bytes(), t0);
  }

  /// Variable-size scatter: rank i receives send_counts[i] elements
  /// starting at displacement displs[i] of root's buffer.
  template <Trivial T>
  void scatterv(std::span<const T> send_data,
                std::span<const std::size_t> send_counts,
                std::span<const std::size_t> displs, std::span<T> recv_data,
                int root) {
    count_call(Primitive::kScatterv);
    const TraceStart t0 = trace_begin();
    scatterv_bytes(as_bytes(send_data), send_counts, displs,
                   as_writable_bytes(recv_data), sizeof(T), root);
    trace_end(Primitive::kScatterv, root, 0, recv_data.size_bytes(), t0);
  }

  template <Trivial T>
  void gather(std::span<const T> send_data, std::span<T> recv_data,
              int root) {
    count_call(Primitive::kGather);
    const TraceStart t0 = trace_begin();
    gather_bytes(as_bytes(send_data), as_writable_bytes(recv_data), root);
    trace_end(Primitive::kGather, root, 0, send_data.size_bytes(), t0);
  }

  template <Trivial T>
  void gatherv(std::span<const T> send_data,
               std::span<const std::size_t> recv_counts,
               std::span<const std::size_t> displs, std::span<T> recv_data,
               int root) {
    count_call(Primitive::kGatherv);
    const TraceStart t0 = trace_begin();
    gatherv_bytes(as_bytes(send_data), recv_counts, displs,
                  as_writable_bytes(recv_data), sizeof(T), root);
    trace_end(Primitive::kGatherv, root, 0, send_data.size_bytes(), t0);
  }

  template <Trivial T>
  void allgather(std::span<const T> send_data, std::span<T> recv_data) {
    count_call(Primitive::kAllgather);
    const TraceStart t0 = trace_begin();
    allgather_bytes(as_bytes(send_data), as_writable_bytes(recv_data));
    trace_end(Primitive::kAllgather, -1, 0, recv_data.size_bytes(), t0);
  }

  /// Variable-size allgather: rank i contributes recv_counts[i] elements,
  /// gathered at displs[i]; everyone receives everything.
  template <Trivial T>
  void allgatherv(std::span<const T> send_data,
                  std::span<const std::size_t> recv_counts,
                  std::span<const std::size_t> displs,
                  std::span<T> recv_data) {
    count_call(Primitive::kAllgather);
    const TraceStart t0 = trace_begin();
    gatherv_bytes(as_bytes(send_data), recv_counts, displs,
                  as_writable_bytes(recv_data), sizeof(T), 0);
    bcast_bytes(as_writable_bytes(recv_data), 0);
    trace_end(Primitive::kAllgather, -1, 0, recv_data.size_bytes(), t0);
  }

  template <Trivial T, typename Op>
  void reduce(std::span<const T> send_data, std::span<T> recv_data, Op op,
              int root) {
    count_call(Primitive::kReduce);
    const TraceStart t0 = trace_begin();
    reduce_bytes(as_bytes(send_data),
                 root == rank_ ? as_writable_bytes(recv_data)
                               : std::span<std::byte>{},
                 sizeof(T), make_reduce_fn<T>(op), root);
    trace_end(Primitive::kReduce, root, 0, send_data.size_bytes(), t0);
  }

  template <Trivial T, typename Op>
  void allreduce(std::span<const T> send_data, std::span<T> recv_data,
                 Op op) {
    count_call(Primitive::kAllreduce);
    const TraceStart t0 = trace_begin();
    allreduce_bytes(as_bytes(send_data), as_writable_bytes(recv_data),
                    sizeof(T), make_reduce_fn<T>(op));
    trace_end(Primitive::kAllreduce, -1, 0, send_data.size_bytes(), t0);
  }

  template <Trivial T, typename Op>
  T allreduce_value(const T& value, Op op) {
    T out{};
    allreduce(std::span<const T>(&value, 1), std::span<T>(&out, 1), op);
    return out;
  }

  /// Inclusive prefix reduction over ranks (MPI_Scan).
  template <Trivial T, typename Op>
  void scan(std::span<const T> send_data, std::span<T> recv_data, Op op) {
    count_call(Primitive::kScan);
    const TraceStart t0 = trace_begin();
    scan_bytes(as_bytes(send_data), as_writable_bytes(recv_data), sizeof(T),
               make_reduce_fn<T>(op));
    trace_end(Primitive::kScan, -1, 0, send_data.size_bytes(), t0);
  }

  /// Equal-size all-to-all: rank i's chunk j goes to rank j's chunk i.
  template <Trivial T>
  void alltoall(std::span<const T> send_data, std::span<T> recv_data) {
    count_call(Primitive::kAlltoall);
    const TraceStart t0 = trace_begin();
    alltoall_bytes(as_bytes(send_data), as_writable_bytes(recv_data));
    trace_end(Primitive::kAlltoall, -1, 0, send_data.size_bytes(), t0);
  }

  /// Variable-size all-to-all (MPI_Alltoallv); counts/displs in elements.
  template <Trivial T>
  void alltoallv(std::span<const T> send_data,
                 std::span<const std::size_t> send_counts,
                 std::span<const std::size_t> send_displs,
                 std::span<T> recv_data,
                 std::span<const std::size_t> recv_counts,
                 std::span<const std::size_t> recv_displs) {
    count_call(Primitive::kAlltoallv);
    const TraceStart t0 = trace_begin();
    alltoallv_bytes(as_bytes(send_data), send_counts, send_displs,
                    as_writable_bytes(recv_data), recv_counts, recv_displs,
                    sizeof(T));
    trace_end(Primitive::kAlltoallv, -1, 0, send_data.size_bytes(), t0);
  }

  // ---- Nonblocking collectives ---------------------------------------------
  // Issue returns immediately with a Request that composes with wait()/
  // test()/wait_all()/wait_any(), including mixed sets with p2p requests.
  // All ranks must issue the same collectives in the same order on a
  // communicator (interleaved freely with blocking collectives); buffers
  // must stay alive until the request completes.  Progress needs no extra
  // threads: eager internal sends complete at post, posted receives
  // complete when the sender delivers, and root-side fan-in is ingested by
  // the completing wait/test.  Results are bit-identical across backends
  // and runs: reductions always combine in ascending comm-rank order.
  // That matches the blocking collectives exactly for exact ops (integer,
  // min/max); floating-point sums can differ from the blocking *tree*
  // algorithms in the last bits, since trees bracket differently.

  /// Nonblocking broadcast.  The root completes at issue (fan-out is
  /// eager); non-roots complete when the payload arrives — posting early
  /// and waiting late is what overlaps the transfer with compute.
  template <Trivial T>
  Request ibcast(std::span<T> data, int root) {
    count_call(Primitive::kIbcast);
    const TraceStart t0 = trace_begin();
    Request req = ibcast_bytes(as_writable_bytes(data), root);
    trace_end(Primitive::kIbcast, root, 0, data.size_bytes(), t0);
    return req;
  }

  /// Nonblocking reduce-to-root.  Non-roots complete at issue; the root's
  /// wait ingests the contributions (ascending comm rank) and combines
  /// into `recv_data` (ignored on non-roots).
  template <Trivial T, typename Op>
  Request ireduce(std::span<const T> send_data, std::span<T> recv_data,
                  Op op, int root) {
    count_call(Primitive::kIreduce);
    const TraceStart t0 = trace_begin();
    Request req = ireduce_bytes(as_bytes(send_data),
                                root == rank_ ? as_writable_bytes(recv_data)
                                              : std::span<std::byte>{},
                                sizeof(T), make_reduce_fn<T>(op), root);
    trace_end(Primitive::kIreduce, root, 0, send_data.size_bytes(), t0);
    return req;
  }

  /// Nonblocking allreduce (reduce to comm rank 0, broadcast back).  Rank
  /// 0's wait combines and fans the result out; other ranks complete when
  /// the result arrives on their pre-posted receive.
  template <Trivial T, typename Op>
  Request iallreduce(std::span<const T> send_data, std::span<T> recv_data,
                     Op op) {
    count_call(Primitive::kIallreduce);
    const TraceStart t0 = trace_begin();
    Request req =
        iallreduce_bytes(as_bytes(send_data), as_writable_bytes(recv_data),
                         sizeof(T), make_reduce_fn<T>(op));
    trace_end(Primitive::kIallreduce, -1, 0, send_data.size_bytes(), t0);
    return req;
  }

  /// Nonblocking variable-size allgather: rank i contributes
  /// recv_counts[i] elements, gathered at displs[i] on every rank.
  /// Completes when all p-1 incoming slices have landed in `recv_data`.
  template <Trivial T>
  Request iallgatherv(std::span<const T> send_data,
                      std::span<const std::size_t> recv_counts,
                      std::span<const std::size_t> displs,
                      std::span<T> recv_data) {
    count_call(Primitive::kIallgatherv);
    const TraceStart t0 = trace_begin();
    Request req =
        iallgatherv_bytes(as_bytes(send_data), recv_counts, displs,
                          as_writable_bytes(recv_data), sizeof(T));
    trace_end(Primitive::kIallgatherv, -1, 0, send_data.size_bytes(), t0);
    return req;
  }

 private:
  friend RunResult run(int, const std::function<void(Comm&)>&,
                       RuntimeOptions);

  /// Three-address byte-level reduction: out[i] = op(b[i], a[i]).  `out`
  /// may alias `b` (in-place accumulate); `a` is never written, so adopted
  /// zero-copy payloads can feed reductions directly.
  using ReduceFn =
      std::function<void(const std::byte* a, const std::byte* b,
                         std::byte* out, std::size_t elems,
                         std::size_t elem_size)>;

  /// World communicator for one rank.
  Comm(detail_runtime::Runtime* runtime, int rank)
      : runtime_(runtime), world_rank_(rank), rank_(rank) {}

  /// Split communicator: `group` maps comm ranks to world ranks.
  Comm(detail_runtime::Runtime* runtime, int world_rank, int comm_rank,
       std::vector<int> group, int context)
      : runtime_(runtime),
        world_rank_(world_rank),
        rank_(comm_rank),
        group_(std::move(group)),
        context_(context) {}

  [[nodiscard]] detail::RankState& state() const {
    return runtime_->rank_state(world_rank_);
  }
  /// World rank of communicator rank `peer`.
  [[nodiscard]] int to_world(int peer) const {
    return group_.empty() ? peer
                          : group_[static_cast<std::size_t>(peer)];
  }

  template <Trivial T>
  static std::span<const std::byte> as_bytes(std::span<const T> s) {
    return std::as_bytes(s);
  }
  template <Trivial T>
  static std::span<std::byte> as_writable_bytes(std::span<T> s) {
    return std::as_writable_bytes(s);
  }

  /// Wraps a typed binary operator into the byte-level reduction functor.
  /// Elements are copied in and out with memcpy, so the payload buffers
  /// need no alignment guarantees.
  template <Trivial T, typename Op>
  static ReduceFn make_reduce_fn(Op op) {
    return [op](const std::byte* a, const std::byte* b, std::byte* out,
                std::size_t elems, std::size_t elem_size) {
      for (std::size_t i = 0; i < elems; ++i) {
        T x;
        T y;
        std::memcpy(&x, a + i * elem_size, sizeof(T));
        std::memcpy(&y, b + i * elem_size, sizeof(T));
        const T r = op(y, x);  // out = op(b, a)
        std::memcpy(out + i * elem_size, &r, sizeof(T));
      }
    };
  }

  void count_call(Primitive p) {
    ++state().stats.calls[static_cast<std::size_t>(p)];
    if (runtime_->options().faults.kills()) fault_tick(p);
  }

  /// Timing capture taken at the start of a traced operation: the rank's
  /// simulated clock plus (when RuntimeOptions::trace_wall_time) the real
  /// clock.  Cheap to take even with tracing off — just two reads.
  struct TraceStart {
    double sim = 0.0;
    double wall = 0.0;
  };

  [[nodiscard]] TraceStart trace_begin() const {
    obs::Recorder* rec = runtime_->recorder();
    return {state().clock, rec != nullptr ? rec->wall_now() : 0.0};
  }

  /// Records a user-level operation spanning [t0, now] when tracing is on
  /// (comm.cpp; no-op otherwise).  Consumes the pending message-edge seq
  /// ids stamped by the byte-level transport since t0 was taken.
  void trace_end(Primitive op, int peer, int tag, std::size_t bytes,
                 const TraceStart& t0);

  // Byte-level transport (comm.cpp).  Every send form goes through
  // inject(); every receive form posts through post_recv() and completes
  // through complete_recv().
  /// Sends one message: fault draw, envelope, timing stamps, the backend
  /// seam, and delivery.  Charges the injection overhead unless a
  /// `blocking` send goes rendezvous (the caller then waits for the match).
  /// `staged`, when given, is the buffer behind `data` to share zero-copy.
  /// Returns the delivered envelope (an already-matched stand-in when the
  /// fault plan dropped the message).
  std::shared_ptr<detail::Envelope> inject(std::span<const std::byte> data,
                                           const detail::StagedBuffer* staged,
                                           int dest, int tag, bool internal,
                                           bool blocking);
  /// Posts a receive: matches the earliest queued message, or leaves the
  /// request on the posted list for the sender to match.  Lock held.
  std::shared_ptr<detail::RequestState> post_recv(
      std::unique_lock<std::mutex>& lock, std::byte* buffer,
      std::size_t capacity, int source, int tag, bool internal, bool staged);
  /// Blocks (labelled `what` in deadlock reports) until `req` matched,
  /// throws its truncation error, adopts its completion time and books the
  /// receive counters once.  Returns false only when `can_timeout` and the
  /// runtime proved the message cannot arrive (the receive is withdrawn).
  /// Lock held.
  bool complete_recv(std::unique_lock<std::mutex>& lock,
                     const std::shared_ptr<detail::RequestState>& req,
                     const char* what, bool can_timeout = false);
  void send_bytes(std::span<const std::byte> data, int dest, int tag,
                  bool internal);
  Status recv_bytes(std::span<std::byte> data, int source, int tag,
                    bool internal);
  Request isend_bytes(std::span<const std::byte> data, int dest, int tag,
                      bool internal);
  Request irecv_bytes(std::span<std::byte> data, int source, int tag,
                      bool internal);
  Status wait_nocount(Request& request);
  void validate_peer(int peer, const char* what) const;
  void validate_user_tag(int tag, const char* what) const;

  // Reliable-delivery protocol and fault injection (comm.cpp).
  void send_reliable_bytes(std::span<const std::byte> data, int dest, int tag);
  Status recv_reliable_bytes(std::span<std::byte> data, int source, int tag);
  /// Receives an 8-byte acknowledgement header on the control channel, or
  /// gives up when the runtime proves it cannot arrive.  Returns false on
  /// timeout (the simulated clock is charged ReliableOptions::timeout_seconds).
  bool recv_ack_timeout(std::span<std::byte> data, int source, int tag,
                        Status* status);
  /// Kill-plan hook: throws RankFailedError when this rank reaches the
  /// fault plan's kill_at_call-th primitive call.
  void fault_tick(Primitive p);

  // Zero-copy staging primitives for collective internals (comm.cpp).
  // StagedBuffers ride the normal envelope path — same tags, sizes and
  // simulated costs as plain sends — but the payload travels as a shared
  // pooled buffer that every hop references instead of copying (when
  // TransportOptions::zero_copy allows; otherwise they degrade to copies).
  detail::StagedBuffer stage_acquire(std::size_t n);
  detail::StagedBuffer stage_copy(std::span<const std::byte> src);
  void send_staged(const detail::StagedBuffer& data, int dest, int tag);
  detail::StagedBuffer recv_staged(int source, int tag,
                                   Status* status = nullptr);

  void count_algo(CollectiveAlgo a) {
    ++state().stats.algo_uses[static_cast<std::size_t>(a)];
  }

  // Collective building blocks (collectives.cpp).
  int next_collective_tag();
  void bcast_bytes(std::span<std::byte> data, int root) {
    bcast_bytes(data, data, root);
  }
  /// The root sends `send`; every other rank receives into `recv` and
  /// forwards from there.
  void bcast_bytes(std::span<const std::byte> send, std::span<std::byte> recv,
                   int root);
  void scatter_bytes(std::span<const std::byte> send,
                     std::span<std::byte> recv, int root);
  void scatterv_bytes(std::span<const std::byte> send,
                      std::span<const std::size_t> counts,
                      std::span<const std::size_t> displs,
                      std::span<std::byte> recv, std::size_t elem_size,
                      int root);
  void gather_bytes(std::span<const std::byte> send, std::span<std::byte> recv,
                    int root);
  void gatherv_bytes(std::span<const std::byte> send,
                     std::span<const std::size_t> counts,
                     std::span<const std::size_t> displs,
                     std::span<std::byte> recv, std::size_t elem_size,
                     int root);
  void allgather_bytes(std::span<const std::byte> send,
                       std::span<std::byte> recv);
  void reduce_bytes(std::span<const std::byte> send, std::span<std::byte> recv,
                    std::size_t elem_size, const ReduceFn& op, int root);
  void allreduce_bytes(std::span<const std::byte> send,
                       std::span<std::byte> recv, std::size_t elem_size,
                       const ReduceFn& op);
  void scan_bytes(std::span<const std::byte> send, std::span<std::byte> recv,
                  std::size_t elem_size, const ReduceFn& op);
  void alltoall_bytes(std::span<const std::byte> send,
                      std::span<std::byte> recv);
  void alltoallv_bytes(std::span<const std::byte> send,
                       std::span<const std::size_t> send_counts,
                       std::span<const std::size_t> send_displs,
                       std::span<std::byte> recv,
                       std::span<const std::size_t> recv_counts,
                       std::span<const std::size_t> recv_displs,
                       std::size_t elem_size);

  // Nonblocking collectives (icollectives.cpp) and their completion engine
  // (comm.cpp).  advance_collective() drives a CollectiveState to
  // completion: waits/checks the posted subs, verifies (non-blocking) or
  // performs (blocking, via `finish`) the lazy root-side ingestion, and
  // marks the request done.  Returns false when non-blocking and not yet
  // completable.
  Request ibcast_bytes(std::span<std::byte> data, int root);
  Request ireduce_bytes(std::span<const std::byte> send,
                        std::span<std::byte> recv, std::size_t elem_size,
                        ReduceFn op, int root);
  Request iallreduce_bytes(std::span<const std::byte> send,
                           std::span<std::byte> recv, std::size_t elem_size,
                           ReduceFn op);
  Request iallgatherv_bytes(std::span<const std::byte> send,
                            std::span<const std::size_t> counts,
                            std::span<const std::size_t> displs,
                            std::span<std::byte> recv,
                            std::size_t elem_size);
  bool advance_collective(const std::shared_ptr<detail::CollectiveState>& cs,
                          bool blocking);

  // Alternative collective algorithms (collectives.cpp).
  void scatter_tree(std::span<const std::byte> send, std::span<std::byte> recv,
                    int root, int tag);
  void scatterv_tree(std::span<const std::byte> send,
                     std::span<const std::size_t> counts,
                     std::span<const std::size_t> displs,
                     std::span<std::byte> recv, std::size_t elem_size,
                     int root, int tag);
  void gather_tree(std::span<const std::byte> send, std::span<std::byte> recv,
                   int root, int tag);
  void gatherv_tree(std::span<const std::byte> send,
                    std::span<const std::size_t> counts,
                    std::span<const std::size_t> displs,
                    std::span<std::byte> recv, std::size_t elem_size,
                    int root, int tag);
  void allgather_ring(std::span<const std::byte> send,
                      std::span<std::byte> recv);
  void allreduce_rd(std::span<const std::byte> send, std::span<std::byte> recv,
                    std::size_t elem_size, const ReduceFn& op);
  void allreduce_ring(std::span<const std::byte> send,
                      std::span<std::byte> recv, std::size_t elem_size,
                      const ReduceFn& op);

  detail_runtime::Runtime* runtime_;
  int world_rank_;
  int rank_;               // rank within this communicator
  std::vector<int> group_;  // comm rank -> world rank; empty = world comm
  int context_ = 0;
  int collective_seq_ = 0;
};

}  // namespace dipdc::minimpi
