// Elastic, weight-driven distributed container over minimpi.
//
// A Container<T> holds a global 1-D array of `total` elements (each element
// is `stride` consecutive T values) distributed across the ranks of a
// communicator by a range Partitioning.  Three operations change the
// distribution, all of them collective:
//
//   * repartition()/rebalance(t) — recompute weight-driven cuts from the
//     measured per-element weights and materialize the transition as an
//     alltoallv exchange (data and weights move together).  Every rank
//     derives the cuts independently from the same allgathered weight
//     vector with pure integer arithmetic, then an allreduce(MIN) over an
//     FNV hash of the cuts asserts agreement.  rebalance(t) first decides
//     from one allgather of the p quantized part sums and pays for the
//     weight allgatherv only when the imbalance exceeds t.  When the new
//     cuts equal the old ones nothing is exchanged, so calling rebalance()
//     repeatedly at a threshold boundary cannot ping-pong.
//   * adopt(new_local) — the owner-computes escape hatch: an algorithm that
//     already exchanged data itself (e.g. a bucket sort) hands the
//     container its new local slab and the container rebuilds the cuts from
//     one allgather of the per-rank counts.  Weights reset to 1.
//
// Fault tolerance is explicit, not ambient.  checkpoint(blob) snapshots the
// local state in two segments, keeps them, and mirrors them to the ring
// buddy (rank+1)%p:
//
//   * the layout, cuts | data, packed once per layout generation.  The
//     generation bumps on every repartition that moves data, on adopt(),
//     on recovery and on every call to the mutable local() overload (a
//     write, as far as the container can tell).  Ring slots of the same
//     generation share one immutable copy, and the layout goes on the wire
//     only when the buddy does not already hold it;
//   * the state, weights | blob (an opaque, globally replicated blob —
//     iteration state), packed and sent on every checkpoint.
//
// After a rank kill the survivors shrink the communicator (Comm::shrink())
// and call recover(new_comm): the survivors agree on the newest checkpoint
// generation that every self ring and the dead rank's buddy ring can serve,
// gatherv the generation's slabs to the new root (displaced at their old
// global ranges, so the array reassembles in place), re-cut over the
// survivors by the checkpointed weights, and scatterv the result.  If no
// consistent generation exists, a container built by scatter() falls back
// to the source retained at the old root.  Three snapshot generations are
// kept because checkpoint generations across ranks can skew by one when a
// kill interrupts the buddy exchange (see docs/handbook/containers.md for
// the bound); every slot holds its own generation's layout, so each one
// stays self-contained.
//
// Checkpoints must be separated by at least one collective on the same
// communicator (any real iteration loop does this); that is what bounds the
// generation skew the ring must cover.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "container/partitioning.hpp"
#include "kernels/dispatch.hpp"
#include "kernels/quantize.hpp"
#include "minimpi/comm.hpp"
#include "minimpi/error.hpp"
#include "support/error.hpp"

namespace dipdc::container {

/// Counters a Container accumulates over its lifetime (local view).
struct ContainerStats {
  std::uint64_t repartitions = 0;     // exchanges that moved ownership
  std::uint64_t rebalance_noops = 0;  // repartition calls that kept the cuts
  std::uint64_t elements_moved = 0;   // local elements that changed owner
  std::uint64_t checkpoints = 0;
  std::uint64_t recoveries = 0;
};

/// FNV-1a over a byte span; used for the cut-agreement allreduce and by the
/// fuzzer's container digests.
inline std::uint64_t fnv1a64(std::span<const std::byte> bytes) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const std::byte b : bytes) {
    h ^= static_cast<std::uint64_t>(b);
    h *= 1099511628211ULL;
  }
  return h;
}

template <minimpi::Trivial T>
class Container {
 public:
  /// p2p tag reserved for checkpoint/recovery slab traffic; user code on
  /// the same communicator must not receive with kAnyTag while a
  /// checkpoint or recovery is in flight.
  static constexpr int kWireTag = 9931;

  // ---- Construction ------------------------------------------------------

  /// Root-held source, block-scattered.  `total` is the global element
  /// count (source.size() == total * stride at the root, ignored
  /// elsewhere).  The root retains the source as the generation-0 recovery
  /// fallback.  Collective: one scatterv.
  static Container scatter(minimpi::Comm& comm, std::vector<T> source,
                           std::size_t total, std::size_t stride) {
    DIPDC_REQUIRE(stride >= 1, "container stride must be >= 1");
    Container c;
    c.comm_ = &comm;
    c.stride_ = stride;
    c.from_scatter_ = true;
    c.part_ = Partitioning::block(total, comm.size());
    {
      minimpi::Comm::Phase ph(comm, "partition.distribute");
      if (comm.rank() == 0) {
        DIPDC_REQUIRE(source.size() == total * stride,
                      "scatter: root source size must be total * stride");
      }
      const int p = comm.size();
      std::vector<std::size_t> counts(static_cast<std::size_t>(p));
      std::vector<std::size_t> displs(static_cast<std::size_t>(p));
      for (int r = 0; r < p; ++r) {
        counts[static_cast<std::size_t>(r)] = c.part_.count(r) * stride;
        displs[static_cast<std::size_t>(r)] = c.part_.begin(r) * stride;
      }
      c.data_.resize(c.part_.count(comm.rank()) * stride);
      comm.scatterv(std::span<const T>(source), counts, displs,
                    std::span<T>(c.data_), 0);
    }
    c.weights_.assign(c.part_.count(comm.rank()), 1.0);
    if (comm.rank() == 0) c.source_ = std::move(source);
    return c;
  }

  /// Zero-communication construction: every rank brings the block-layout
  /// slab it already holds.  `local` must be exactly the block partition's
  /// share (the fuzzer depends on this ctor making no calls).
  static Container from_local(minimpi::Comm& comm, std::size_t total,
                              std::size_t stride, std::vector<T> local) {
    DIPDC_REQUIRE(stride >= 1, "container stride must be >= 1");
    Container c;
    c.comm_ = &comm;
    c.stride_ = stride;
    c.part_ = Partitioning::block(total, comm.size());
    DIPDC_REQUIRE(local.size() == c.part_.count(comm.rank()) * stride,
                  "from_local: slab must match the block partitioning");
    c.data_ = std::move(local);
    c.weights_.assign(c.part_.count(comm.rank()), 1.0);
    return c;
  }

  /// Ranks bring arbitrary-size slabs; the cuts are rebuilt from one
  /// allgather of the per-rank counts (collective).
  static Container from_counts(minimpi::Comm& comm, std::size_t stride,
                               std::vector<T> local) {
    DIPDC_REQUIRE(stride >= 1, "container stride must be >= 1");
    DIPDC_REQUIRE(local.size() % stride == 0,
                  "from_counts: slab must be a whole number of elements");
    Container c;
    c.comm_ = &comm;
    c.stride_ = stride;
    c.part_ = c.gathered_cuts(comm, local.size() / stride);
    c.data_ = std::move(local);
    c.weights_.assign(c.part_.count(comm.rank()), 1.0);
    return c;
  }

  Container(Container&&) noexcept = default;
  Container& operator=(Container&&) noexcept = default;

  // ---- Local view ----------------------------------------------------------

  [[nodiscard]] minimpi::Comm& comm() const { return *comm_; }
  [[nodiscard]] const Partitioning& partitioning() const { return part_; }
  [[nodiscard]] std::size_t stride() const { return stride_; }
  [[nodiscard]] std::size_t size() const { return part_.total(); }
  /// Global index of the first local element.
  [[nodiscard]] std::size_t global_begin() const {
    return part_.begin(comm_->rank());
  }
  /// Number of local elements (local data holds count()*stride() T values).
  [[nodiscard]] std::size_t count() const {
    return part_.count(comm_->rank());
  }
  /// Mutable access counts as a write: the next checkpoint re-packs and
  /// re-sends the slab.  Read through the const overload
  /// (std::as_const(c).local()) to keep an unchanged slab off the wire.
  [[nodiscard]] std::vector<T>& local() {
    ++layout_gen_;
    return data_;
  }
  [[nodiscard]] const std::vector<T>& local() const { return data_; }
  [[nodiscard]] const std::vector<double>& weights() const { return weights_; }
  [[nodiscard]] const ContainerStats& stats() const { return stats_; }

  /// Sets the measured weight of one local element (by local index).
  void set_weight(std::size_t local_index, double weight) {
    DIPDC_REQUIRE(local_index < weights_.size(),
                  "set_weight: local index out of range");
    weights_[local_index] = weight;
  }

  /// Replaces all local element weights (size must equal count()).
  void set_weights(std::span<const double> weights) {
    DIPDC_REQUIRE(weights.size() == weights_.size(),
                  "set_weights: need one weight per local element");
    std::copy(weights.begin(), weights.end(), weights_.begin());
  }

  /// The kernel tier that quantizes the weights on every rebalance
  /// (kernels::quantize_weights); by default kernels::resolve(kAuto).
  /// Every tier gives the same bits, so it moves only the host clock.
  void set_kernel(kernels::Isa isa) { isa_ = isa; }

  // ---- Partition transitions ----------------------------------------------

  /// Recomputes weight-driven cuts and exchanges data to match.  Returns
  /// true when ownership changed (an exchange happened).  Collective:
  /// one allgatherv + one allreduce, plus two alltoallv when data moves.
  bool repartition() { return repartition_impl(0.0); }

  /// Like repartition(), but only re-cuts when the measured imbalance
  /// (max part weight / mean part weight) exceeds `threshold`.  Collective:
  /// one allgather of the p part sums, followed by repartition()'s
  /// collectives only when the imbalance exceeds `threshold`.  Calling it
  /// again with unchanged weights is always a no-op, so a threshold
  /// boundary cannot ping-pong.
  bool rebalance(double threshold) { return repartition_impl(threshold); }

  /// Owner-computes adoption: the algorithm already moved the data; the
  /// container rebuilds the cuts from the new per-rank counts (one
  /// allgather) and resets all weights to 1.  The global element count
  /// must be conserved.
  void adopt(std::vector<T> new_local) {
    minimpi::Comm::Phase ph(*comm_, "partition.adopt");
    DIPDC_REQUIRE(new_local.size() % stride_ == 0,
                  "adopt: slab must be a whole number of elements");
    Partitioning next = gathered_cuts(*comm_, new_local.size() / stride_);
    DIPDC_REQUIRE(next.total() == part_.total(),
                  "adopt must conserve the global element count");
    part_ = std::move(next);
    data_ = std::move(new_local);
    weights_.assign(part_.count(comm_->rank()), 1.0);
    ++layout_gen_;
  }

  // ---- Checkpoint / recover -------------------------------------------------

  /// Snapshots the local slab plus an opaque `blob` (must be identical on
  /// every rank — replicated iteration state such as the current centroids)
  /// and mirrors the snapshot to the ring buddy (rank+1)%p.  Collective in
  /// effect: a header sendrecv around the ring, then the state segment, led
  /// by the layout segment when the buddy does not hold the current one.
  /// The self snapshot shares its layout with the previous one when the
  /// layout generation did not move, and the buddy's segments are received
  /// straight into the buffers they are kept in.
  void checkpoint(std::span<const std::byte> blob) {
    minimpi::Comm::Phase ph(*comm_, "partition.checkpoint");
    // The self snapshot is pushed before any communication: a rank that
    // has *entered* checkpoint(g) can always serve its own slab at g,
    // because container state cannot change between here and the rank's
    // next collective even when the ring exchange below is cut short by a
    // failure.
    const Snapshot& last = self_[0];
    spare_.layout = last.valid && last.layout->gen == layout_gen_
                        ? last.layout
                        : pack_layout();
    WireHeader mine{next_generation_,
                    static_cast<std::uint64_t>(weights_.size()),
                    static_cast<std::uint64_t>(blob.size()),
                    static_cast<std::uint64_t>(part_.cuts().size()),
                    layout_gen_, 0};
    mine.layout_follows = sent_layout_ != spare_.layout ? 1 : 0;
    pack_state(spare_, mine, blob);
    push_ring(self_);
    ++next_generation_;
    ++stats_.checkpoints;
    const int p = comm_->size();
    if (p == 1) return;
    const int to = (comm_->rank() + 1) % p;
    const int from = (comm_->rank() - 1 + p) % p;
    WireHeader peer{};
    comm_->sendrecv(std::span<const WireHeader>(&mine, 1), to, kWireTag,
                    std::span<WireHeader>(&peer, 1), from, kWireTag);
    // The buddy's segments land in a fresh layout and the spare, never in
    // a ring slot: all three buddy generations stay servable until both
    // have fully arrived.
    std::shared_ptr<Layout> incoming;
    if (peer.layout_follows != 0) {
      incoming = std::make_shared<Layout>();
      incoming->gen = peer.layout_gen;
      incoming->bytes.resize(layout_bytes(peer));
    } else if (!buddy_[0].valid || buddy_[0].layout->gen != peer.layout_gen) {
      throw minimpi::MpiError(
          "checkpoint: the buddy skipped a layout this rank never received");
    }
    spare_.head = peer;
    spare_.state.resize(state_bytes(peer));
    // Payload legs as irecv + send + wait, layout first: every rank posts
    // its receives before sending, so the ring cannot deadlock, and a
    // snapshot that fully arrived before a failure aborted the exchange is
    // salvaged — recovery can then still serve the sender's slab at this
    // generation.
    minimpi::Request lr;
    minimpi::Request sr;
    bool state_in = false;
    try {
      if (incoming) {
        lr = comm_->irecv(std::span<std::byte>(incoming->bytes), from,
                          kWireTag);
      }
      sr = comm_->irecv(std::span<std::byte>(spare_.state), from, kWireTag);
      if (mine.layout_follows != 0) {
        comm_->send(std::span<const std::byte>(self_[0].layout->bytes), to,
                    kWireTag);
      }
      comm_->send(std::span<const std::byte>(self_[0].state), to, kWireTag);
      // Completed in reverse post order, here and below: a wait that
      // fails withdraws its receive, and only a withdrawn *last* receive
      // cannot leave a later message to land in the wrong buffer.  The
      // layout is sent first, so once the state arrived the layout has.
      comm_->wait(sr);
      state_in = true;
      if (incoming) comm_->wait(lr);
    } catch (...) {
      // Drain or unpost every posted receive before its buffer is freed
      // or reused.
      if (sr.valid() && !state_in) state_in = settle(sr);
      const bool layout_in = lr.valid() ? settle(lr) : !incoming;
      if (state_in && layout_in) keep_buddy(std::move(incoming));
      throw;
    }
    keep_buddy(std::move(incoming));
    sent_layout_ = self_[0].layout;
  }

  /// Shrink-recover protocol: call on every survivor after Comm::shrink(),
  /// passing the shrunken communicator (which must outlive the container).
  /// Restores the newest consistent checkpoint generation — or, failing
  /// that, rebuilds from the root-retained source — re-cut over the
  /// survivors, and returns the restored checkpoint blob (empty when the
  /// container was rebuilt from the source and iteration state must
  /// restart).  Throws RankFailedError when neither path is available.
  std::vector<std::byte> recover(minimpi::Comm& new_comm) {
    minimpi::Comm::Phase ph(new_comm, "partition.recover");
    minimpi::Comm& oc = *comm_;
    const int old_p = oc.size();
    const int new_p = new_comm.size();
    const int dead_world = new_comm.failed_rank();
    DIPDC_REQUIRE(dead_world >= 0, "recover: no rank has failed");
    const std::vector<int> old_group = oc.world_group();
    int dead_old = -1;
    for (std::size_t i = 0; i < old_group.size(); ++i) {
      if (old_group[i] == dead_world) dead_old = static_cast<int>(i);
    }
    if (dead_old < 0) {
      throw minimpi::MpiError(
          "recover: the dead rank is not a member of this container's "
          "communicator");
    }
    const int buddy_old = (dead_old + 1) % old_p;

    // Every survivor advertises the generations its rings can serve; the
    // decision below is a pure function of the gathered metadata, so all
    // survivors pick the same generation without a bcast.
    RecoverMeta mine{};
    mine.old_rank = oc.rank();
    const auto gen_of = [](const Snapshot& s) {
      return s.valid ? static_cast<std::int64_t>(s.head.generation) : -1;
    };
    for (std::size_t s = 0; s < kRing; ++s) {
      mine.self_gens[s] = gen_of(self_[s]);
      mine.buddy_gens[s] = gen_of(buddy_[s]);
    }
    std::vector<RecoverMeta> all(static_cast<std::size_t>(new_p));
    new_comm.allgather(std::span<const RecoverMeta>(&mine, 1),
                       std::span<RecoverMeta>(all));

    int holder_new = -1;  // new rank of the dead rank's buddy
    for (int i = 0; i < new_p; ++i) {
      if (all[static_cast<std::size_t>(i)].old_rank == buddy_old) {
        holder_new = i;
      }
    }
    const std::int64_t gen = pick_generation(all, holder_new);
    ++stats_.recoveries;
    if (gen >= 0) {
      std::vector<std::byte> blob =
          restore_from_snapshots(new_comm, all, holder_new, dead_old, gen);
      finish_recovery(new_comm, static_cast<std::uint64_t>(gen) + 1);
      return blob;
    }
    // Generation-0 fallback: rebuild from the source retained at the old
    // root — available only for scatter()-built containers whose old root
    // survived.
    if (!from_scatter_ || dead_old == 0) {
      throw minimpi::RankFailedError(
          "recover: no consistent checkpoint generation and no surviving "
          "source holder");
    }
    int source_new = -1;
    for (int i = 0; i < new_p; ++i) {
      if (all[static_cast<std::size_t>(i)].old_rank == 0) source_new = i;
    }
    DIPDC_REQUIRE(source_new >= 0, "recover: old root missing from survivors");
    restore_from_source(new_comm, source_new);
    finish_recovery(new_comm, 0);
    return {};
  }

 private:
  Container() = default;

  struct WireHeader {
    std::uint64_t generation = 0;
    std::uint64_t count = 0;  // elements, not T values
    std::uint64_t blob_bytes = 0;
    std::uint64_t ncuts = 0;
    std::uint64_t layout_gen = 0;      // the sender's layout generation
    std::uint64_t layout_follows = 0;  // 1: the layout segment is sent too
  };

  /// One layout generation, packed as cuts | data.  Immutable once packed;
  /// every ring slot of a generation it was current for shares it.
  struct Layout {
    std::uint64_t gen = 0;
    std::vector<std::byte> bytes;
  };

  /// One checkpoint generation: its layout plus `state`, the packed
  /// weights | blob, both sized by `head`.
  struct Snapshot {
    bool valid = false;
    WireHeader head{};
    std::shared_ptr<const Layout> layout;
    std::vector<std::byte> state;
  };

  /// A snapshot unpacked for recovery.
  struct Unpacked {
    std::vector<std::size_t> cuts;
    std::vector<T> data;
    std::vector<double> weights;
    std::vector<std::byte> blob;
  };

  struct RecoverMeta {
    int old_rank = -1;
    std::int64_t self_gens[3] = {-1, -1, -1};
    std::int64_t buddy_gens[3] = {-1, -1, -1};
  };

  static constexpr std::size_t kRing = 3;

  bool repartition_impl(double threshold) {
    minimpi::Comm::Phase ph(*comm_, "partition.repartition");
    const int p = comm_->size();
    const int me = comm_->rank();
    // (1) A threshold rebalance decides from the p part sums: the same
    // integers and the same formula Partitioning::imbalance would apply to
    // every weight, so a call that keeps the cuts costs one p-word
    // allgather instead of an n-word allgatherv.
    if (threshold > 0.0) {
      const std::uint64_t mine =
          kernels::quantize_weights(isa_, weights_.data(), weights_.size(),
                                    kernels::kWeightScale, nullptr);
      std::vector<std::uint64_t> sums(static_cast<std::size_t>(p));
      comm_->allgather(std::span<const std::uint64_t>(&mine, 1),
                       std::span<std::uint64_t>(sums));
      if (Partitioning::imbalance_of_sums(sums) <= threshold) {
        ++stats_.rebalance_noops;
        return false;
      }
    }
    // (2) Everyone learns every element's weight; the recv layout is the
    // current cuts, which all ranks already share.
    local_q_.resize(weights_.size());
    kernels::quantize_weights(isa_, weights_.data(), weights_.size(),
                              kernels::kWeightScale, local_q_.data());
    std::vector<std::size_t> counts(static_cast<std::size_t>(p));
    std::vector<std::size_t> displs(static_cast<std::size_t>(p));
    for (int r = 0; r < p; ++r) {
      counts[static_cast<std::size_t>(r)] = part_.count(r);
      displs[static_cast<std::size_t>(r)] = part_.begin(r);
    }
    global_q_.resize(part_.total());
    comm_->allgatherv(std::span<const std::uint64_t>(local_q_), counts,
                      displs, std::span<std::uint64_t>(global_q_));
    // (3) Derive the cuts locally — pure integer arithmetic over identical
    // input, so every rank lands on the same vector.
    const Partitioning next = Partitioning::from_weights(global_q_, p);
    // (4) Cheap agreement assertion: MIN-allreduce an FNV hash of the cuts
    // (MIN rather than XOR so mirrored disagreement cannot cancel out).
    const auto cut_bytes = std::as_bytes(std::span<const std::size_t>(
        next.cuts().data(), next.cuts().size()));
    const std::uint64_t h = fnv1a64(cut_bytes);
    const std::uint64_t agreed = comm_->allreduce_value(
        h, [](std::uint64_t a, std::uint64_t b) { return a < b ? a : b; });
    if (agreed != h) {
      throw minimpi::MpiError(
          "repartition: ranks disagree on the new cuts");
    }
    // (5) Move only when ownership changed.
    if (next == part_) {
      ++stats_.rebalance_noops;
      return false;
    }
    exchange_to(next, me, p);
    ++stats_.repartitions;
    return true;
  }

  void exchange_to(const Partitioning& next, int me, int p) {
    const std::size_t ob = part_.begin(me), oe = part_.end(me);
    const std::size_t nb = next.begin(me), ne = next.end(me);
    const auto sp = static_cast<std::size_t>(p);
    std::vector<std::size_t> sc(sp), sd(sp), rc(sp), rd(sp);
    std::vector<std::size_t> scw(sp), sdw(sp), rcw(sp), rdw(sp);
    for (int r = 0; r < p; ++r) {
      const auto ri = static_cast<std::size_t>(r);
      // To r: my old range ∩ r's new range (overlaps ascend with r, so the
      // send buffer is naturally laid out in rank order).
      const std::size_t b = std::max(ob, next.begin(r));
      const std::size_t e = std::min(oe, next.end(r));
      scw[ri] = b < e ? e - b : 0;
      sdw[ri] = (b < e ? b : ob) - ob;
      sc[ri] = scw[ri] * stride_;
      sd[ri] = sdw[ri] * stride_;
      // From r: my new range ∩ r's old range.
      const std::size_t b2 = std::max(nb, part_.begin(r));
      const std::size_t e2 = std::min(ne, part_.end(r));
      rcw[ri] = b2 < e2 ? e2 - b2 : 0;
      rdw[ri] = (b2 < e2 ? b2 : nb) - nb;
      rc[ri] = rcw[ri] * stride_;
      rd[ri] = rdw[ri] * stride_;
    }
    std::vector<T> ndata((ne - nb) * stride_);
    comm_->alltoallv(std::span<const T>(data_), sc, sd, std::span<T>(ndata),
                     rc, rd);
    std::vector<double> nweights(ne - nb);
    comm_->alltoallv(std::span<const double>(weights_), scw, sdw,
                     std::span<double>(nweights), rcw, rdw);
    const std::size_t kept =
        std::min(oe, ne) > std::max(ob, nb) ? std::min(oe, ne) - std::max(ob, nb)
                                            : 0;
    stats_.elements_moved += (oe - ob) - kept;
    data_ = std::move(ndata);
    weights_ = std::move(nweights);
    part_ = next;
    ++layout_gen_;
  }

  /// Cuts from one allgather of per-rank element counts.
  Partitioning gathered_cuts(minimpi::Comm& comm, std::uint64_t my_count) {
    const int p = comm.size();
    std::vector<std::uint64_t> counts(static_cast<std::size_t>(p));
    comm.allgather(std::span<const std::uint64_t>(&my_count, 1),
                   std::span<std::uint64_t>(counts));
    std::vector<std::size_t> cuts(static_cast<std::size_t>(p) + 1, 0);
    for (int r = 0; r < p; ++r) {
      cuts[static_cast<std::size_t>(r) + 1] =
          cuts[static_cast<std::size_t>(r)] +
          static_cast<std::size_t>(counts[static_cast<std::size_t>(r)]);
    }
    return Partitioning::from_cuts(std::move(cuts));
  }

  // ---- Snapshot ring -------------------------------------------------------

  /// Installs spare_ as the ring's newest generation.  The generation that
  /// falls off becomes the spare, so its state buffer is the next one
  /// packed or received into; a still-valid slot is never overwritten.
  void push_ring(std::array<Snapshot, kRing>& ring) {
    std::swap(spare_, ring[kRing - 1]);
    std::rotate(ring.begin(), ring.end() - 1, ring.end());
    spare_.valid = false;
    spare_.layout.reset();
  }

  /// Installs the received buddy snapshot; without a new layout it shares
  /// the newest buddy layout, which the header check proved current.
  void keep_buddy(std::shared_ptr<const Layout> incoming) {
    spare_.layout = incoming ? std::move(incoming) : buddy_[0].layout;
    spare_.valid = true;
    push_ring(buddy_);
  }

  /// Completes a receive whose message arrived; otherwise the failed
  /// wait() removes the posted entry, so its buffer can be reused.
  bool settle(minimpi::Request& r) {
    try {
      comm_->wait(r);
      return true;
    } catch (...) {
    }
    return comm_->test(r);
  }

  const Snapshot& ring_at(const std::array<Snapshot, kRing>& ring,
                          std::int64_t gen) const {
    for (const Snapshot& s : ring) {
      if (s.valid && static_cast<std::int64_t>(s.head.generation) == gen) {
        return s;
      }
    }
    throw minimpi::MpiError("recover: agreed generation missing from ring");
  }

  std::size_t layout_bytes(const WireHeader& h) const {
    return static_cast<std::size_t>(h.ncuts) * sizeof(std::size_t) +
           static_cast<std::size_t>(h.count) * stride_ * sizeof(T);
  }

  static std::size_t state_bytes(const WireHeader& h) {
    return static_cast<std::size_t>(h.count) * sizeof(double) +
           static_cast<std::size_t>(h.blob_bytes);
  }

  /// Packs the live cuts and slab as the current layout generation.
  std::shared_ptr<const Layout> pack_layout() const {
    auto layout = std::make_shared<Layout>();
    layout->gen = layout_gen_;
    const std::size_t cut_bytes = part_.cuts().size() * sizeof(std::size_t);
    layout->bytes.resize(cut_bytes + data_.size() * sizeof(T));
    std::memcpy(layout->bytes.data(), part_.cuts().data(), cut_bytes);
    if (!data_.empty()) {
      std::memcpy(layout->bytes.data() + cut_bytes, data_.data(),
                  data_.size() * sizeof(T));
    }
    return layout;
  }

  /// Packs the live weights and `blob` into `snap`'s state buffer.
  void pack_state(Snapshot& snap, const WireHeader& h,
                  std::span<const std::byte> blob) const {
    snap.head = h;
    snap.state.resize(state_bytes(h));
    const std::size_t weight_bytes = weights_.size() * sizeof(double);
    if (weight_bytes > 0) {
      std::memcpy(snap.state.data(), weights_.data(), weight_bytes);
    }
    if (!blob.empty()) {
      std::memcpy(snap.state.data() + weight_bytes, blob.data(), blob.size());
    }
    snap.valid = true;
  }

  Unpacked unpack(const Snapshot& snap) const {
    const WireHeader& h = snap.head;
    DIPDC_REQUIRE(snap.layout->bytes.size() == layout_bytes(h) &&
                      snap.state.size() == state_bytes(h),
                  "checkpoint: snapshot size mismatch");
    Unpacked s;
    s.cuts.resize(static_cast<std::size_t>(h.ncuts));
    s.data.resize(static_cast<std::size_t>(h.count) * stride_);
    s.weights.resize(static_cast<std::size_t>(h.count));
    s.blob.resize(static_cast<std::size_t>(h.blob_bytes));
    const std::byte* r = snap.layout->bytes.data();
    auto get = [&r](void* dst, std::size_t n) {
      if (n > 0) std::memcpy(dst, r, n);
      r += n;
    };
    get(s.cuts.data(), s.cuts.size() * sizeof(std::size_t));
    get(s.data.data(), s.data.size() * sizeof(T));
    r = snap.state.data();
    get(s.weights.data(), s.weights.size() * sizeof(double));
    get(s.blob.data(), s.blob.size());
    return s;
  }

  // ---- Recovery ------------------------------------------------------------

  /// Newest generation that every survivor's self ring and the buddy
  /// holder's buddy ring can serve; -1 when none exists.
  std::int64_t pick_generation(const std::vector<RecoverMeta>& all,
                               int holder_new) const {
    if (holder_new < 0) return -1;  // buddy died too (or old_p == 1)
    std::int64_t best = -1;
    const RecoverMeta& holder = all[static_cast<std::size_t>(holder_new)];
    for (const std::int64_t g : holder.buddy_gens) {
      if (g < 0 || g <= best) continue;
      bool ok = true;
      for (const RecoverMeta& m : all) {
        bool has = false;
        for (const std::int64_t sg : m.self_gens) has = has || sg == g;
        if (!has) {
          ok = false;
          break;
        }
      }
      if (ok) best = g;
    }
    return best;
  }

  /// Restores generation `gen` over the survivors and returns its blob.
  std::vector<std::byte> restore_from_snapshots(
      minimpi::Comm& nc, const std::vector<RecoverMeta>& all, int holder_new,
      int dead_old, std::int64_t gen) {
    const int new_p = nc.size();
    const int me = nc.rank();
    Unpacked snap = unpack(ring_at(self_, gen));
    // The cuts recorded in any snapshot at `gen` are identical everywhere.
    const Partitioning old_at_gen = Partitioning::from_cuts(snap.cuts);
    const std::size_t total = old_at_gen.total();
    // Gatherv every survivor's snapshot slab to the new root, displaced at
    // its OLD global range: the global array reassembles in place and only
    // the dead rank's range is left to fill from the buddy copy.
    std::vector<std::size_t> counts(static_cast<std::size_t>(new_p));
    std::vector<std::size_t> displs(static_cast<std::size_t>(new_p));
    std::vector<std::size_t> wcounts(static_cast<std::size_t>(new_p));
    std::vector<std::size_t> wdispls(static_cast<std::size_t>(new_p));
    for (int i = 0; i < new_p; ++i) {
      const int old_r = all[static_cast<std::size_t>(i)].old_rank;
      wcounts[static_cast<std::size_t>(i)] = old_at_gen.count(old_r);
      wdispls[static_cast<std::size_t>(i)] = old_at_gen.begin(old_r);
      counts[static_cast<std::size_t>(i)] =
          wcounts[static_cast<std::size_t>(i)] * stride_;
      displs[static_cast<std::size_t>(i)] =
          wdispls[static_cast<std::size_t>(i)] * stride_;
    }
    std::vector<T> gdata(me == 0 ? total * stride_ : 0);
    std::vector<double> gweights(me == 0 ? total : 0);
    nc.gatherv(std::span<const T>(snap.data), counts, displs,
               std::span<T>(gdata), 0);
    nc.gatherv(std::span<const double>(snap.weights), wcounts, wdispls,
               std::span<double>(gweights), 0);
    // The dead rank's range comes from its buddy's mirrored copy.
    const std::size_t dead_n = old_at_gen.count(dead_old);
    if (dead_n > 0) {
      const std::size_t db = old_at_gen.begin(dead_old);
      if (me == holder_new) {
        const Unpacked bsnap = unpack(ring_at(buddy_, gen));
        DIPDC_REQUIRE(bsnap.weights.size() == dead_n,
                      "recover: buddy slab size mismatch");
        if (me == 0) {
          std::copy(bsnap.data.begin(), bsnap.data.end(),
                    gdata.begin() + static_cast<std::ptrdiff_t>(db * stride_));
          std::copy(bsnap.weights.begin(), bsnap.weights.end(),
                    gweights.begin() + static_cast<std::ptrdiff_t>(db));
        } else {
          nc.send(std::span<const T>(bsnap.data), 0, kWireTag);
          nc.send(std::span<const double>(bsnap.weights), 0, kWireTag);
        }
      } else if (me == 0) {
        nc.recv(std::span<T>(gdata.data() + db * stride_, dead_n * stride_),
                holder_new, kWireTag);
        nc.recv(std::span<double>(gweights.data() + db, dead_n), holder_new,
                kWireTag);
      }
    }
    // Weight-driven cuts over the survivors, decided at the root and
    // broadcast (only the root holds the reassembled weights).
    std::vector<std::size_t> ncuts(static_cast<std::size_t>(new_p) + 1, 0);
    if (me == 0) {
      ncuts = Partitioning::from_weights(
                  quantize_weights(gweights, kernels::kWeightScale, isa_),
                  new_p)
                  .cuts();
    }
    nc.bcast(std::span<std::size_t>(ncuts), 0);
    const Partitioning next = Partitioning::from_cuts(std::move(ncuts));
    for (int i = 0; i < new_p; ++i) {
      wcounts[static_cast<std::size_t>(i)] = next.count(i);
      wdispls[static_cast<std::size_t>(i)] = next.begin(i);
      counts[static_cast<std::size_t>(i)] = next.count(i) * stride_;
      displs[static_cast<std::size_t>(i)] = next.begin(i) * stride_;
    }
    data_.assign(next.count(me) * stride_, T{});
    weights_.assign(next.count(me), 0.0);
    nc.scatterv(std::span<const T>(gdata), counts, displs,
                std::span<T>(data_), 0);
    nc.scatterv(std::span<const double>(gweights), wcounts, wdispls,
                std::span<double>(weights_), 0);
    part_ = next;
    return std::move(snap.blob);
  }

  void restore_from_source(minimpi::Comm& nc, int source_new) {
    const int new_p = nc.size();
    const int me = nc.rank();
    const std::size_t total = part_.total();
    const Partitioning next = Partitioning::block(total, new_p);
    std::vector<std::size_t> counts(static_cast<std::size_t>(new_p));
    std::vector<std::size_t> displs(static_cast<std::size_t>(new_p));
    for (int i = 0; i < new_p; ++i) {
      counts[static_cast<std::size_t>(i)] = next.count(i) * stride_;
      displs[static_cast<std::size_t>(i)] = next.begin(i) * stride_;
    }
    data_.assign(next.count(me) * stride_, T{});
    nc.scatterv(std::span<const T>(source_), counts, displs,
                std::span<T>(data_), source_new);
    weights_.assign(next.count(me), 1.0);
    part_ = next;
  }

  /// Rebinds the container to the shrunken communicator and invalidates
  /// all snapshots — the ring-buddy topology changed, so pre-failure
  /// mirrors are no longer where recovery would look for them, and the
  /// new buddy holds none of this rank's layouts.  The state buffers stay
  /// for the next checkpoints to pack into; the layouts are dropped, so
  /// the next checkpoint packs and sends the restored slab.
  void finish_recovery(minimpi::Comm& nc, std::uint64_t next_gen) {
    comm_ = &nc;
    for (auto* ring : {&self_, &buddy_}) {
      for (Snapshot& s : *ring) {
        s.valid = false;
        s.layout.reset();
      }
    }
    sent_layout_.reset();
    ++layout_gen_;
    next_generation_ = next_gen;
  }

  minimpi::Comm* comm_ = nullptr;
  std::size_t stride_ = 1;
  bool from_scatter_ = false;
  Partitioning part_;
  std::vector<T> data_;          // count() * stride() values
  std::vector<double> weights_;  // count() values
  std::vector<T> source_;        // scatter(): retained at the (old) root
  std::array<Snapshot, kRing> self_{};
  std::array<Snapshot, kRing> buddy_{};  // mirrors of (rank-1+p)%p
  Snapshot spare_;  // the buffer that fell off a ring, packed into next
  std::shared_ptr<const Layout> sent_layout_;  // the buddy's newest copy
  std::vector<std::uint64_t> local_q_;   // repartition's quantized weights
  std::vector<std::uint64_t> global_q_;  // ... allgathered over all ranks
  kernels::Isa isa_ = kernels::resolve(kernels::Policy::kAuto);
  std::uint64_t next_generation_ = 0;
  std::uint64_t layout_gen_ = 0;  // bumps whenever cuts or data may change
  ContainerStats stats_;
};

}  // namespace dipdc::container
