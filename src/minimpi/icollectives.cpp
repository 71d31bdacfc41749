// Nonblocking collectives: ibcast / ireduce / iallreduce / iallgatherv.
//
// All four run flat (star) schedules assembled entirely at issue time into
// a detail::CollectiveState; completion is driven by the issuing rank's own
// wait()/test()/wait_any() calls (comm.cpp::advance_collective) — no
// progress thread.  The decomposition per role:
//
//  - fan-out (ibcast root, iallreduce rank 0's result, iallgatherv's
//    contribution): one staged zero-copy buffer shared into p-1 eager
//    internal sends, which complete at post;
//  - overlap receives (ibcast non-root, iallreduce non-zero result,
//    iallgatherv's incoming slices): posted internal irecvs straight into
//    the user buffer, completing at delivery — posting early and waiting
//    late is what hides the transfer under compute;
//  - fan-in (ireduce root, iallreduce rank 0): contributions are *not*
//    posted; they queue as unexpected internal messages and the completing
//    wait ingests them in ascending comm-rank order (CollectiveState::
//    ingests + finish).  Receiver-ordered ingestion keeps the simulated
//    ingress-link accounting deterministic across backends and schedules,
//    and reductions combine in a fixed ascending order, so results are
//    bit-identical everywhere.
//
// Like the blocking collectives, every invocation consumes a fixed number
// of internal tags (ibcast/ireduce/iallgatherv: 1; iallreduce: 2) at issue
// time on every rank, so nonblocking and blocking collectives interleave
// safely in any issue order.
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "minimpi/comm.hpp"
#include "minimpi/error.hpp"

namespace dipdc::minimpi {

using detail::require;

Request Comm::ibcast_bytes(std::span<std::byte> data, int root) {
  validate_peer(root, "ibcast");
  count_algo(CollectiveAlgo::kIbcastLinear);
  const int tag = next_collective_tag();
  const int p = size();
  auto cs = std::make_shared<detail::CollectiveState>();
  if (p == 1) return Request(std::move(cs));
  if (rank_ == root) {
    // One staged copy of the payload, shared into every eager send; the
    // user may mutate `data` the moment issue returns.
    const detail::StagedBuffer sb = stage_copy(data);
    for (int m = 0; m < p; ++m) {
      if (m != root) send_staged(sb, m, tag);
    }
    return Request(std::move(cs));
  }
  Request sub = irecv_bytes(data, root, tag, /*internal=*/true);
  cs->subs.push_back(std::move(sub.state_));
  return Request(std::move(cs));
}

Request Comm::ireduce_bytes(std::span<const std::byte> send,
                            std::span<std::byte> recv,
                            std::size_t elem_size, ReduceFn op, int root) {
  validate_peer(root, "ireduce");
  require(elem_size > 0 && send.size() % elem_size == 0,
          "ireduce: send size must be a multiple of the element size");
  count_algo(CollectiveAlgo::kIreduceLinear);
  const int tag = next_collective_tag();
  const int p = size();
  auto cs = std::make_shared<detail::CollectiveState>();

  if (rank_ != root) {
    // Eager internal send: the payload is copied at post, so the request
    // completes immediately and the user's buffer is free.
    Request sub = isend_bytes(send, root, tag, /*internal=*/true);
    cs->subs.push_back(std::move(sub.state_));
    return Request(std::move(cs));
  }

  require(recv.size() == send.size(),
          "ireduce: recv size must match send size on the root");
  for (int m = 0; m < p; ++m) {
    if (m != root) cs->ingests.push_back({m, tag});
  }
  // Deferred combine: ingest contributions in ascending comm-rank order
  // (the root's own snapshot taking its rank's slot) and fold as they
  // arrive — acc = op(acc, contribution).
  std::vector<std::byte> own(send.begin(), send.end());
  cs->finish = [own = std::move(own), recv, elem_size, op = std::move(op),
                root, p, tag](Comm& c) mutable {
    const std::size_t nelems = own.size() / elem_size;
    std::vector<std::byte> acc;
    std::vector<std::byte> scratch(own.size());
    for (int m = 0; m < p; ++m) {
      const std::byte* contrib;
      if (m == root) {
        contrib = own.data();
      } else {
        c.recv_bytes(scratch, m, tag, /*internal=*/true);
        contrib = scratch.data();
      }
      if (m == 0) {
        acc.assign(contrib, contrib + own.size());
      } else {
        op(contrib, acc.data(), acc.data(), nelems, elem_size);
      }
    }
    if (!acc.empty()) std::memcpy(recv.data(), acc.data(), acc.size());
  };
  return Request(std::move(cs));
}

Request Comm::iallreduce_bytes(std::span<const std::byte> send,
                               std::span<std::byte> recv,
                               std::size_t elem_size, ReduceFn op) {
  require(elem_size > 0 && send.size() % elem_size == 0,
          "iallreduce: send size must be a multiple of the element size");
  require(recv.size() == send.size(),
          "iallreduce: recv size must match send size");
  count_algo(CollectiveAlgo::kIallreduceReduceBcast);
  const int tag_reduce = next_collective_tag();
  const int tag_bcast = next_collective_tag();
  const int p = size();
  auto cs = std::make_shared<detail::CollectiveState>();

  if (rank_ != 0) {
    // Contribution up (eager, completes at post) and the result receive
    // pre-posted right away: tags are unique per invocation, so the
    // round-2 payload can never be confused with anything else.
    Request up = isend_bytes(send, 0, tag_reduce, /*internal=*/true);
    cs->subs.push_back(std::move(up.state_));
    Request down = irecv_bytes(recv, 0, tag_bcast, /*internal=*/true);
    cs->subs.push_back(std::move(down.state_));
    return Request(std::move(cs));
  }

  for (int m = 1; m < p; ++m) cs->ingests.push_back({m, tag_reduce});
  std::vector<std::byte> own(send.begin(), send.end());
  cs->finish = [own = std::move(own), recv, elem_size, op = std::move(op), p,
                tag_reduce, tag_bcast](Comm& c) mutable {
    const std::size_t nelems = own.size() / elem_size;
    std::vector<std::byte> acc(own.begin(), own.end());
    std::vector<std::byte> scratch(own.size());
    for (int m = 1; m < p; ++m) {
      c.recv_bytes(scratch, m, tag_reduce, /*internal=*/true);
      op(scratch.data(), acc.data(), acc.data(), nelems, elem_size);
    }
    if (!acc.empty()) std::memcpy(recv.data(), acc.data(), acc.size());
    // Fan the result out eagerly; one staged copy shared across all peers.
    if (p > 1) {
      const detail::StagedBuffer sb = c.stage_copy(recv);
      for (int m = 1; m < p; ++m) c.send_staged(sb, m, tag_bcast);
    }
  };
  return Request(std::move(cs));
}

Request Comm::iallgatherv_bytes(std::span<const std::byte> send,
                                std::span<const std::size_t> counts,
                                std::span<const std::size_t> displs,
                                std::span<std::byte> recv,
                                std::size_t elem_size) {
  const int p = size();
  const auto np = static_cast<std::size_t>(p);
  require(counts.size() == np && displs.size() == np,
          "iallgatherv: counts/displs must have one entry per rank");
  require(send.size() ==
              counts[static_cast<std::size_t>(rank_)] * elem_size,
          "iallgatherv: send size must match this rank's count");
  count_algo(CollectiveAlgo::kIallgathervLinear);
  const int tag = next_collective_tag();
  auto cs = std::make_shared<detail::CollectiveState>();

  // Own slice lands immediately.
  const auto nr = static_cast<std::size_t>(rank_);
  if (!send.empty()) {
    std::memcpy(recv.data() + displs[nr] * elem_size, send.data(),
                send.size());
  }
  if (p == 1) return Request(std::move(cs));

  // Post every incoming slice first (overlap), then fan out one staged
  // copy of the contribution.  Post order ascends by comm rank so clock
  // adoption at wait time is deterministic.
  for (int m = 0; m < p; ++m) {
    if (m == rank_) continue;
    const auto nm = static_cast<std::size_t>(m);
    Request sub = irecv_bytes(
        recv.subspan(displs[nm] * elem_size, counts[nm] * elem_size), m, tag,
        /*internal=*/true);
    cs->subs.push_back(std::move(sub.state_));
  }
  const detail::StagedBuffer sb = stage_copy(send);
  for (int m = 0; m < p; ++m) {
    if (m != rank_) send_staged(sb, m, tag);
  }
  return Request(std::move(cs));
}

}  // namespace dipdc::minimpi
