// Collective operations, implemented on top of the point-to-point transport
// so that their simulated cost emerges from the same message model students
// reason about.
//
// Each collective has a "classic" algorithm (the one the teaching modules
// describe: binomial Bcast/Reduce, dissemination Barrier, linear root loops
// for Scatter(v)/Gather(v), pairwise Alltoall(v), linear-chain Scan) plus,
// for the root-rooted and reduction collectives, an alternative algorithm
// for larger scale:
//   - binomial-tree Scatter(v)/Gather(v) (log p root steps instead of p-1);
//   - recursive-doubling Allreduce for mid-size payloads;
//   - Rabenseifner Allreduce (ring reduce-scatter + ring allgather) and a
//     ring Allgather for large payloads.
// CollectiveOptions selects per collective; kAuto picks from thresholds
// that depend only on values all ranks agree on (payload size is excluded
// for the v-variants, where only the root knows the counts), so every rank
// always takes the same branch and consumes the same internal tags.
//
// Data movement inside collectives uses the staged-buffer primitives
// (comm.cpp): payloads travel as shared pooled buffers that each hop
// forwards by reference, so a tree relay or ring pass costs no memcpy.
// Buffers are never mutated after they have been shared into an envelope;
// where an algorithm must send from a buffer it still mutates (the ring
// reduce-scatter phase), it stage-copies the outgoing chunk.
//
// All ranks must invoke the same collectives in the same order; each
// invocation consumes a fixed number of internal tags from a
// per-communicator sequence so that consecutive collectives can never
// exchange each other's messages.
#include <algorithm>
#include <cstring>
#include <numeric>
#include <sstream>
#include <vector>

#include "minimpi/comm.hpp"
#include "minimpi/error.hpp"

namespace dipdc::minimpi {

namespace {

/// First tag value available to collectives; user tags are >= 0, kAnyTag
/// and kAnySource are -1, so internal tags start below -1.
constexpr int kInternalTagBase = -2;

using detail::require;

/// memcpy-based span copy; avoids GCC's spurious stringop-overflow warning
/// on std::copy over runtime-sized byte spans.
void copy_bytes(std::span<std::byte> dst, std::span<const std::byte> src) {
  require(src.size() <= dst.size(), "internal: copy_bytes overflow");
  const std::size_t n = src.size();
  // The explicit upper-bound check is unreachable but lets GCC prove the
  // memcpy bound is finite (silences a spurious -Wstringop-overflow).
  if (n == 0 || n > (static_cast<std::size_t>(-1) >> 1)) return;
  std::memcpy(dst.data(), src.data(), n);
}

/// Largest power of two <= p (p >= 1).
int pow2_floor(int p) {
  int v = 1;
  while (v * 2 <= p) v *= 2;
  return v;
}

}  // namespace

int Comm::next_collective_tag() {
  return kInternalTagBase - (collective_seq_++);
}

Comm Comm::split(int color, int key) {
  require(color >= 0, "split: colors must be non-negative");

  struct Entry {
    int color;
    int key;
    int world;
    int parent_rank;
  };
  const Entry mine{color, key, world_rank_, rank_};
  std::vector<Entry> all(static_cast<std::size_t>(size()));
  allgather_bytes(std::as_bytes(std::span<const Entry>(&mine, 1)),
                  std::as_writable_bytes(std::span<Entry>(all)));

  // Agree on context ids: parent rank 0 reserves one id per distinct
  // color and broadcasts the base; colors map to ids in sorted order.
  std::vector<int> colors;
  colors.reserve(all.size());
  for (const Entry& e : all) colors.push_back(e.color);
  std::sort(colors.begin(), colors.end());
  colors.erase(std::unique(colors.begin(), colors.end()), colors.end());
  int base = 0;
  if (rank_ == 0) {
    base = runtime_->allocate_contexts(static_cast<int>(colors.size()));
  }
  bcast_bytes(std::as_writable_bytes(std::span<int>(&base, 1)), 0);
  const auto color_index = static_cast<int>(
      std::lower_bound(colors.begin(), colors.end(), color) -
      colors.begin());
  const int context = base + color_index;

  // My group: members of my color ordered by (key, parent rank).
  std::vector<Entry> members;
  for (const Entry& e : all) {
    if (e.color == color) members.push_back(e);
  }
  std::sort(members.begin(), members.end(),
            [](const Entry& a, const Entry& b) {
              return a.key != b.key ? a.key < b.key
                                    : a.parent_rank < b.parent_rank;
            });
  std::vector<int> group;
  group.reserve(members.size());
  int my_rank = 0;
  for (std::size_t i = 0; i < members.size(); ++i) {
    group.push_back(members[i].world);
    if (members[i].world == world_rank_) my_rank = static_cast<int>(i);
  }
  return Comm(runtime_, world_rank_, my_rank, std::move(group), context);
}

Comm Comm::shrink() {
  // No count_call / fault_tick: recovery runs after the plan's kill fired,
  // and the shrink barrier itself must not be killable.
  const detail_runtime::Runtime::ShrinkResult res =
      runtime_->failure_shrink(world_rank_);
  std::vector<int> group = res.survivors;
  int my_rank = 0;
  for (std::size_t i = 0; i < group.size(); ++i) {
    if (group[i] == world_rank_) my_rank = static_cast<int>(i);
  }
  return Comm(runtime_, world_rank_, my_rank, std::move(group), res.context);
}

void Comm::barrier() {
  count_call(Primitive::kBarrier);
  count_algo(CollectiveAlgo::kBarrierDissemination);
  const TraceStart t0 = trace_begin();
  const int tag = next_collective_tag();
  const int p = size();
  for (int k = 1; k < p; k <<= 1) {
    const int dest = (rank_ + k) % p;
    const int source = (rank_ - k + p) % p;
    Request sreq = isend_bytes({}, dest, tag, /*internal=*/true);
    recv_bytes({}, source, tag, /*internal=*/true);
    wait_nocount(sreq);
  }
  trace_end(Primitive::kBarrier, -1, 0, 0, t0);
}

void Comm::bcast_bytes(std::span<const std::byte> send,
                       std::span<std::byte> recv, int root) {
  validate_peer(root, "bcast");
  count_algo(CollectiveAlgo::kBcastBinomial);
  const int tag = next_collective_tag();
  const int p = size();
  if (p == 1) return;
  const int vrank = (rank_ - root + p) % p;
  // What this rank forwards: the root's data, else what it received.
  const std::span<const std::byte> data = vrank == 0 ? send : recv;
  // Staged relay: the payload travels the whole tree as one shared buffer
  // (root stages a single copy; every hop forwards it by reference and
  // copies out into its own user buffer exactly once).  Inline-size
  // payloads skip the staging machinery.
  const bool staged = runtime_->options().transport.zero_copy &&
                      data.size() > detail::Payload::kMaxInline;
  detail::StagedBuffer blob;

  int mask = 1;
  while (mask < p) {
    if (vrank & mask) {
      int source = rank_ - mask;
      if (source < 0) source += p;
      if (staged) {
        Status st{};
        blob = recv_staged(source, tag, &st);
        copy_bytes(recv, blob.view());
        state().stats.copied_bytes += blob.len;
      } else {
        recv_bytes(recv, source, tag, /*internal=*/true);
      }
      break;
    }
    mask <<= 1;
  }
  if (staged && vrank == 0) blob = stage_copy(data);
  mask >>= 1;
  while (mask > 0) {
    if (vrank + mask < p) {
      int dest = rank_ + mask;
      if (dest >= p) dest -= p;
      if (staged) {
        send_staged(blob, dest, tag);
      } else {
        send_bytes(data, dest, tag, /*internal=*/true);
      }
    }
    mask >>= 1;
  }
}

void Comm::scatter_bytes(std::span<const std::byte> send,
                         std::span<std::byte> recv, int root) {
  validate_peer(root, "scatter");
  const CollectiveOptions& copt = runtime_->options().collectives;
  const bool tree =
      copt.scatter == CollectiveAlgorithm::kTree ||
      (copt.scatter == CollectiveAlgorithm::kAuto &&
       size() >= copt.tree_rank_threshold);
  const int tag = next_collective_tag();
  if (tree) {
    scatter_tree(send, recv, root, tag);
    return;
  }
  count_algo(CollectiveAlgo::kScatterLinear);
  const int p = size();
  const std::size_t chunk = recv.size();
  if (rank_ == root) {
    require(send.size() == chunk * static_cast<std::size_t>(p),
            "scatter: root send buffer must be size() * chunk bytes");
    for (int i = 0; i < p; ++i) {
      const auto piece = send.subspan(static_cast<std::size_t>(i) * chunk,
                                      chunk);
      if (i == root) {
        copy_bytes(recv, piece);
      } else {
        send_bytes(piece, i, tag, /*internal=*/true);
      }
    }
  } else {
    recv_bytes(recv, root, tag, /*internal=*/true);
  }
}

void Comm::scatter_tree(std::span<const std::byte> send,
                        std::span<std::byte> recv, int root, int tag) {
  count_algo(CollectiveAlgo::kScatterBinomial);
  const int p = size();
  const std::size_t chunk = recv.size();
  const int vrank = (rank_ - root + p) % p;
  detail::StagedBuffer blob;  // chunks for vranks [vrank, vrank + extent)

  if (rank_ == root) {
    require(send.size() == chunk * static_cast<std::size_t>(p),
            "scatter: root send buffer must be size() * chunk bytes");
    // Stage the whole buffer once, rotated into vrank order, so that every
    // subtree is a contiguous slice forwarded without further copies.
    blob = stage_acquire(send.size());
    if (chunk != 0) {
      std::byte* dst = blob.mutable_view().data();
      for (int v = 0; v < p; ++v) {
        const int actual = (v + root) % p;
        std::memcpy(dst + static_cast<std::size_t>(v) * chunk,
                    send.data() + static_cast<std::size_t>(actual) * chunk,
                    chunk);
      }
    }
    state().stats.copied_bytes += send.size();
  }

  int mask = 1;
  while (mask < p) {
    if (vrank & mask) {
      int source = rank_ - mask;
      if (source < 0) source += p;
      const std::size_t extent = std::min<std::size_t>(
          static_cast<std::size_t>(mask),
          static_cast<std::size_t>(p - vrank));
      Status st{};
      blob = recv_staged(source, tag, &st);
      require(st.bytes == extent * chunk,
              "scatter: unexpected subtree payload size");
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if (vrank + mask < p) {
      const int child_v = vrank + mask;
      int dest = rank_ + mask;
      if (dest >= p) dest -= p;
      const std::size_t cnt = std::min<std::size_t>(
          static_cast<std::size_t>(mask),
          static_cast<std::size_t>(p - child_v));
      send_staged(blob.slice(static_cast<std::size_t>(mask) * chunk,
                             cnt * chunk),
                  dest, tag);
    }
    mask >>= 1;
  }
  copy_bytes(recv, blob.slice(0, chunk).view());
  state().stats.copied_bytes += chunk;
}

void Comm::scatterv_bytes(std::span<const std::byte> send,
                          std::span<const std::size_t> counts,
                          std::span<const std::size_t> displs,
                          std::span<std::byte> recv, std::size_t elem_size,
                          int root) {
  validate_peer(root, "scatterv");
  const CollectiveOptions& copt = runtime_->options().collectives;
  // kAuto must not consult the counts: only the root knows them.
  const bool tree =
      copt.scatter == CollectiveAlgorithm::kTree ||
      (copt.scatter == CollectiveAlgorithm::kAuto &&
       size() >= copt.tree_rank_threshold);
  const int tag = next_collective_tag();
  if (tree) {
    scatterv_tree(send, counts, displs, recv, elem_size, root, tag);
    return;
  }
  count_algo(CollectiveAlgo::kScattervLinear);
  const int p = size();
  if (rank_ == root) {
    require(counts.size() == static_cast<std::size_t>(p),
            "scatterv: need one count per rank at the root");
    require(displs.size() == static_cast<std::size_t>(p),
            "scatterv: need one displacement per rank at the root");
    for (int i = 0; i < p; ++i) {
      const std::size_t idx = static_cast<std::size_t>(i);
      const std::size_t offset = displs[idx] * elem_size;
      const std::size_t nbytes = counts[idx] * elem_size;
      require(offset + nbytes <= send.size(),
              "scatterv: count/displacement outside the send buffer");
      const auto piece = send.subspan(offset, nbytes);
      if (i == root) {
        require(recv.size() >= nbytes,
                "scatterv: root receive buffer too small");
        copy_bytes(recv, piece);
      } else {
        send_bytes(piece, i, tag, /*internal=*/true);
      }
    }
  } else {
    recv_bytes(recv, root, tag, /*internal=*/true);
  }
}

void Comm::scatterv_tree(std::span<const std::byte> send,
                         std::span<const std::size_t> counts,
                         std::span<const std::size_t> displs,
                         std::span<std::byte> recv, std::size_t elem_size,
                         int root, int tag) {
  count_algo(CollectiveAlgo::kScattervBinomial);
  const int p = size();
  const int vrank = (rank_ - root + p) % p;
  // Per-edge protocol: a size header (one u64 per covered vrank) followed
  // by the concatenated data blob, both under the collective's tag.  The
  // transport is non-overtaking per (source, tag), so the header always
  // arrives first.
  std::vector<std::uint64_t> sizes;  // bytes per vrank in my region
  detail::StagedBuffer blob;

  if (rank_ == root) {
    require(counts.size() == static_cast<std::size_t>(p),
            "scatterv: need one count per rank at the root");
    require(displs.size() == static_cast<std::size_t>(p),
            "scatterv: need one displacement per rank at the root");
    sizes.resize(static_cast<std::size_t>(p));
    std::size_t total = 0;
    for (int v = 0; v < p; ++v) {
      const auto actual = static_cast<std::size_t>((v + root) % p);
      const std::size_t nbytes = counts[actual] * elem_size;
      require(displs[actual] * elem_size + nbytes <= send.size(),
              "scatterv: count/displacement outside the send buffer");
      sizes[static_cast<std::size_t>(v)] = nbytes;
      total += nbytes;
    }
    blob = stage_acquire(total);
    std::size_t pos = 0;
    for (int v = 0; v < p; ++v) {
      const auto actual = static_cast<std::size_t>((v + root) % p);
      const std::size_t nbytes = sizes[static_cast<std::size_t>(v)];
      if (nbytes != 0) {
        std::memcpy(blob.mutable_view().data() + pos,
                    send.data() + displs[actual] * elem_size, nbytes);
      }
      pos += nbytes;
    }
    state().stats.copied_bytes += total;
  }

  int mask = 1;
  while (mask < p) {
    if (vrank & mask) {
      int source = rank_ - mask;
      if (source < 0) source += p;
      const std::size_t extent = std::min<std::size_t>(
          static_cast<std::size_t>(mask),
          static_cast<std::size_t>(p - vrank));
      sizes.resize(extent);
      recv_bytes(std::as_writable_bytes(std::span<std::uint64_t>(sizes)),
                 source, tag, /*internal=*/true);
      Status st{};
      blob = recv_staged(source, tag, &st);
      const std::uint64_t total =
          std::accumulate(sizes.begin(), sizes.end(), std::uint64_t{0});
      require(st.bytes == total, "scatterv: unexpected subtree payload size");
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if (vrank + mask < p) {
      const int child_v = vrank + mask;
      int dest = rank_ + mask;
      if (dest >= p) dest -= p;
      const auto cnt = std::min<std::size_t>(
          static_cast<std::size_t>(mask),
          static_cast<std::size_t>(p - child_v));
      const auto m = static_cast<std::size_t>(mask);
      std::size_t off = 0;
      for (std::size_t i = 0; i < m; ++i) off += sizes[i];
      std::size_t csize = 0;
      for (std::size_t i = 0; i < cnt; ++i) csize += sizes[m + i];
      const std::span<const std::uint64_t> hdr(sizes);
      send_bytes(std::as_bytes(hdr.subspan(m, cnt)), dest, tag,
                 /*internal=*/true);
      send_staged(blob.slice(off, csize), dest, tag);
    }
    mask >>= 1;
  }
  const std::size_t mine = sizes.empty() ? 0 : sizes[0];
  require(mine <= recv.size(),
          "scatterv: receive buffer too small for this rank's count");
  copy_bytes(recv, blob.slice(0, mine).view());
  state().stats.copied_bytes += mine;
}

void Comm::gather_bytes(std::span<const std::byte> send,
                        std::span<std::byte> recv, int root) {
  validate_peer(root, "gather");
  const CollectiveOptions& copt = runtime_->options().collectives;
  const bool tree =
      copt.gather == CollectiveAlgorithm::kTree ||
      (copt.gather == CollectiveAlgorithm::kAuto &&
       size() >= copt.tree_rank_threshold);
  const int tag = next_collective_tag();
  if (tree) {
    gather_tree(send, recv, root, tag);
    return;
  }
  count_algo(CollectiveAlgo::kGatherLinear);
  const int p = size();
  const std::size_t chunk = send.size();
  if (rank_ == root) {
    require(recv.size() == chunk * static_cast<std::size_t>(p),
            "gather: root receive buffer must be size() * chunk bytes");
    for (int i = 0; i < p; ++i) {
      auto slot = recv.subspan(static_cast<std::size_t>(i) * chunk, chunk);
      if (i == root) {
        copy_bytes(slot, send);
      } else {
        const Status st = recv_bytes(slot, i, tag, /*internal=*/true);
        require(st.bytes == chunk,
                "gather: a rank contributed an unexpected number of bytes");
      }
    }
  } else {
    send_bytes(send, root, tag, /*internal=*/true);
  }
}

void Comm::gather_tree(std::span<const std::byte> send,
                       std::span<std::byte> recv, int root, int tag) {
  count_algo(CollectiveAlgo::kGatherBinomial);
  const int p = size();
  const std::size_t chunk = send.size();
  const int vrank = (rank_ - root + p) % p;

  // limit = my lowest set bit (the mask at which I report to my parent);
  // the root's limit covers the whole tree.
  int limit = 1;
  while (limit < p && (vrank & limit) == 0) limit <<= 1;
  const std::size_t extent =
      vrank == 0 ? static_cast<std::size_t>(p)
                 : std::min<std::size_t>(static_cast<std::size_t>(limit),
                                         static_cast<std::size_t>(p - vrank));

  if (rank_ == root) {
    require(recv.size() == chunk * static_cast<std::size_t>(p),
            "gather: root receive buffer must be size() * chunk bytes");
    // The root writes child subtree blobs straight into the user buffer
    // (un-rotating from vrank order), skipping the assembly staging.
    copy_bytes(recv.subspan(static_cast<std::size_t>(root) * chunk, chunk),
               send);
    state().stats.copied_bytes += chunk;
    for (int mask = 1; mask < p; mask <<= 1) {
      if (vrank + mask >= p) break;
      int source = rank_ + mask;
      if (source >= p) source -= p;
      const auto cnt = std::min<std::size_t>(
          static_cast<std::size_t>(mask),
          static_cast<std::size_t>(p - (vrank + mask)));
      Status st{};
      const detail::StagedBuffer cb = recv_staged(source, tag, &st);
      require(st.bytes == cnt * chunk,
              "gather: a rank contributed an unexpected number of bytes");
      for (std::size_t j = 0; j < cnt; ++j) {
        const auto actual = static_cast<std::size_t>(
            (vrank + mask + static_cast<int>(j) + root) % p);
        copy_bytes(recv.subspan(actual * chunk, chunk),
                   cb.slice(j * chunk, chunk).view());
      }
      state().stats.copied_bytes += st.bytes;
    }
    return;
  }

  detail::StagedBuffer blob = stage_acquire(extent * chunk);
  copy_bytes(blob.mutable_view(), send);
  state().stats.copied_bytes += chunk;
  for (int mask = 1; mask < limit; mask <<= 1) {
    if (vrank + mask >= p) break;
    int source = rank_ + mask;
    if (source >= p) source -= p;
    const auto cnt = std::min<std::size_t>(
        static_cast<std::size_t>(mask),
        static_cast<std::size_t>(p - (vrank + mask)));
    Status st{};
    const detail::StagedBuffer cb = recv_staged(source, tag, &st);
    require(st.bytes == cnt * chunk,
            "gather: a rank contributed an unexpected number of bytes");
    copy_bytes(blob.mutable_view().subspan(
                   static_cast<std::size_t>(mask) * chunk),
               cb.view());
    state().stats.copied_bytes += st.bytes;
  }
  int parent = rank_ - limit;
  if (parent < 0) parent += p;
  send_staged(blob, parent, tag);
}

void Comm::gatherv_bytes(std::span<const std::byte> send,
                         std::span<const std::size_t> counts,
                         std::span<const std::size_t> displs,
                         std::span<std::byte> recv, std::size_t elem_size,
                         int root) {
  validate_peer(root, "gatherv");
  const CollectiveOptions& copt = runtime_->options().collectives;
  // kAuto must not consult the counts: only the root knows them.
  const bool tree =
      copt.gather == CollectiveAlgorithm::kTree ||
      (copt.gather == CollectiveAlgorithm::kAuto &&
       size() >= copt.tree_rank_threshold);
  const int tag = next_collective_tag();
  if (tree) {
    gatherv_tree(send, counts, displs, recv, elem_size, root, tag);
    return;
  }
  count_algo(CollectiveAlgo::kGathervLinear);
  const int p = size();
  if (rank_ == root) {
    require(counts.size() == static_cast<std::size_t>(p),
            "gatherv: need one count per rank at the root");
    require(displs.size() == static_cast<std::size_t>(p),
            "gatherv: need one displacement per rank at the root");
    for (int i = 0; i < p; ++i) {
      const std::size_t idx = static_cast<std::size_t>(i);
      const std::size_t offset = displs[idx] * elem_size;
      const std::size_t nbytes = counts[idx] * elem_size;
      require(offset + nbytes <= recv.size(),
              "gatherv: count/displacement outside the receive buffer");
      auto slot = recv.subspan(offset, nbytes);
      if (i == root) {
        require(send.size() == nbytes,
                "gatherv: root contribution does not match its count");
        copy_bytes(slot, send);
      } else {
        const Status st = recv_bytes(slot, i, tag, /*internal=*/true);
        require(st.bytes == nbytes,
                "gatherv: a rank contributed an unexpected number of bytes");
      }
    }
  } else {
    send_bytes(send, root, tag, /*internal=*/true);
  }
}

void Comm::gatherv_tree(std::span<const std::byte> send,
                        std::span<const std::size_t> counts,
                        std::span<const std::size_t> displs,
                        std::span<std::byte> recv, std::size_t elem_size,
                        int root, int tag) {
  count_algo(CollectiveAlgo::kGathervBinomial);
  const int p = size();
  const int vrank = (rank_ - root + p) % p;

  int limit = 1;
  while (limit < p && (vrank & limit) == 0) limit <<= 1;
  const std::size_t extent =
      vrank == 0 ? static_cast<std::size_t>(p)
                 : std::min<std::size_t>(static_cast<std::size_t>(limit),
                                         static_cast<std::size_t>(p - vrank));

  // sizes[i] = bytes contributed by vrank (my vrank + i); filled from my
  // own contribution and the per-edge headers sent by each child.
  std::vector<std::uint64_t> sizes(extent, 0);
  sizes[0] = send.size();

  struct Child {
    int mask;
    std::size_t cnt;
    detail::StagedBuffer blob;
  };
  std::vector<Child> children;
  for (int mask = 1; mask < limit; mask <<= 1) {
    if (vrank + mask >= p) break;
    int source = rank_ + mask;
    if (source >= p) source -= p;
    const auto m = static_cast<std::size_t>(mask);
    const auto cnt = std::min<std::size_t>(
        m, static_cast<std::size_t>(p - (vrank + mask)));
    std::vector<std::uint64_t> hdr(cnt);
    recv_bytes(std::as_writable_bytes(std::span<std::uint64_t>(hdr)), source,
               tag, /*internal=*/true);
    Status st{};
    detail::StagedBuffer cb = recv_staged(source, tag, &st);
    require(st.bytes == std::accumulate(hdr.begin(), hdr.end(),
                                        std::uint64_t{0}),
            "gatherv: unexpected subtree payload size");
    std::copy(hdr.begin(), hdr.end(), sizes.begin() + static_cast<long>(m));
    children.push_back(Child{mask, cnt, std::move(cb)});
  }

  if (rank_ == root) {
    require(counts.size() == static_cast<std::size_t>(p),
            "gatherv: need one count per rank at the root");
    require(displs.size() == static_cast<std::size_t>(p),
            "gatherv: need one displacement per rank at the root");
    // Scatter the subtree blobs into the user buffer by displacement,
    // checking every rank's contribution against its count.
    auto place = [&](int v, std::span<const std::byte> bytes) {
      const auto actual = static_cast<std::size_t>((v + root) % p);
      const std::size_t offset = displs[actual] * elem_size;
      const std::size_t nbytes = counts[actual] * elem_size;
      require(offset + nbytes <= recv.size(),
              "gatherv: count/displacement outside the receive buffer");
      require(bytes.size() == nbytes,
              "gatherv: a rank contributed an unexpected number of bytes");
      copy_bytes(recv.subspan(offset, nbytes), bytes);
      state().stats.copied_bytes += nbytes;
    };
    {
      const auto actual = static_cast<std::size_t>(root);
      require(send.size() == counts[actual] * elem_size,
              "gatherv: root contribution does not match its count");
      place(0, send);
    }
    for (const Child& c : children) {
      std::size_t pos = 0;
      for (std::size_t j = 0; j < c.cnt; ++j) {
        const std::size_t nbytes =
            sizes[static_cast<std::size_t>(c.mask) + j];
        place(c.mask + static_cast<int>(j), c.blob.slice(pos, nbytes).view());
        pos += nbytes;
      }
    }
    return;
  }

  const std::uint64_t total =
      std::accumulate(sizes.begin(), sizes.end(), std::uint64_t{0});
  detail::StagedBuffer blob = stage_acquire(total);
  copy_bytes(blob.mutable_view(), send);
  std::size_t pos = send.size();
  for (const Child& c : children) {
    copy_bytes(blob.mutable_view().subspan(pos), c.blob.view());
    pos += c.blob.len;
  }
  state().stats.copied_bytes += total;
  int parent = rank_ - limit;
  if (parent < 0) parent += p;
  send_bytes(std::as_bytes(std::span<const std::uint64_t>(sizes)), parent,
             tag, /*internal=*/true);
  send_staged(blob, parent, tag);
}

void Comm::allgather_bytes(std::span<const std::byte> send,
                           std::span<std::byte> recv) {
  const CollectiveOptions& copt = runtime_->options().collectives;
  const bool ring =
      copt.allgather == CollectiveAlgorithm::kRing ||
      (copt.allgather == CollectiveAlgorithm::kAuto && size() >= 4 &&
       recv.size() >= copt.allgather_ring_threshold);
  if (ring) {
    allgather_ring(send, recv);
    return;
  }
  count_algo(CollectiveAlgo::kAllgatherGatherBcast);
  gather_bytes(send, recv, /*root=*/0);
  bcast_bytes(recv, /*root=*/0);
}

void Comm::allgather_ring(std::span<const std::byte> send,
                          std::span<std::byte> recv) {
  count_algo(CollectiveAlgo::kAllgatherRing);
  const int tag = next_collective_tag();
  const int p = size();
  const std::size_t chunk = send.size();
  require(recv.size() == chunk * static_cast<std::size_t>(p),
          "allgather: receive buffer must be size() * chunk bytes");
  copy_bytes(recv.subspan(static_cast<std::size_t>(rank_) * chunk, chunk),
             send);
  if (p == 1) return;
  const int right = (rank_ + 1) % p;
  const int left = (rank_ - 1 + p) % p;
  // Each step relays the chunk received in the previous step.  Chunks are
  // final (nobody mutates a contribution), so the relay is zero-copy: one
  // stage at the origin, then every hop forwards the same buffer.
  detail::StagedBuffer cur = stage_copy(send);
  for (int step = 1; step < p; ++step) {
    send_staged(cur, right, tag);
    Status st{};
    cur = recv_staged(left, tag, &st);
    require(st.bytes == chunk,
            "allgather: a rank contributed an unexpected number of bytes");
    const auto origin = static_cast<std::size_t>((rank_ - step + p) % p);
    copy_bytes(recv.subspan(origin * chunk, chunk), cur.view());
    state().stats.copied_bytes += chunk;
  }
}

void Comm::reduce_bytes(std::span<const std::byte> send,
                        std::span<std::byte> recv, std::size_t elem_size,
                        const ReduceFn& op, int root) {
  validate_peer(root, "reduce");
  count_algo(CollectiveAlgo::kReduceBinomial);
  require(elem_size > 0, "reduce: element size must be positive");
  require(send.size() % elem_size == 0,
          "reduce: buffer size must be a multiple of the element size");
  const int tag = next_collective_tag();
  const int p = size();
  const std::size_t nelems = send.size() / elem_size;

  std::vector<std::byte> accum(send.begin(), send.end());
  const int vrank = (rank_ - root + p) % p;

  // Binomial combine: ranks whose relative id has the current bit clear
  // receive from the partner with the bit set; the others send their
  // partial accumulation upward and leave.  Requires a commutative,
  // associative operator (all operators in ops.hpp qualify).  Incoming
  // partials are adopted zero-copy where possible and fed to the reduction
  // functor in place (`a` is never written).
  for (int mask = 1; mask < p; mask <<= 1) {
    if ((vrank & mask) == 0) {
      const int partner_v = vrank | mask;
      if (partner_v < p) {
        const int partner = (partner_v + root) % p;
        Status st{};
        const detail::StagedBuffer incoming = recv_staged(partner, tag, &st);
        require(st.bytes == send.size(),
                "reduce: a rank contributed an unexpected number of bytes");
        op(incoming.view().data(), accum.data(), accum.data(), nelems,
           elem_size);
      }
    } else {
      const int partner = ((vrank & ~mask) + root) % p;
      send_bytes(accum, partner, tag, /*internal=*/true);
      break;
    }
  }
  if (rank_ == root) {
    require(recv.size() == send.size(),
            "reduce: root receive buffer must match the send buffer size");
    copy_bytes(recv, accum);
  }
}

void Comm::allreduce_bytes(std::span<const std::byte> send,
                           std::span<std::byte> recv, std::size_t elem_size,
                           const ReduceFn& op) {
  const CollectiveOptions& copt = runtime_->options().collectives;
  const int p = size();
  CollectiveAlgorithm alg = copt.allreduce;
  if (alg == CollectiveAlgorithm::kAuto) {
    if (send.size() >= copt.allreduce_ring_threshold && p >= 4) {
      alg = CollectiveAlgorithm::kRing;
    } else if (send.size() >= copt.allreduce_rd_threshold) {
      alg = CollectiveAlgorithm::kRecursiveDoubling;
    } else {
      alg = CollectiveAlgorithm::kClassic;
    }
  }
  if (p == 1) alg = CollectiveAlgorithm::kClassic;
  switch (alg) {
    case CollectiveAlgorithm::kRing:
      allreduce_ring(send, recv, elem_size, op);
      return;
    case CollectiveAlgorithm::kRecursiveDoubling:
      allreduce_rd(send, recv, elem_size, op);
      return;
    default:
      break;
  }
  count_algo(CollectiveAlgo::kAllreduceReduceBcast);
  reduce_bytes(send,
               rank_ == 0 ? recv : std::span<std::byte>{}, elem_size, op,
               /*root=*/0);
  bcast_bytes(recv, /*root=*/0);
}

void Comm::allreduce_rd(std::span<const std::byte> send,
                        std::span<std::byte> recv, std::size_t elem_size,
                        const ReduceFn& op) {
  count_algo(CollectiveAlgo::kAllreduceRecursiveDoubling);
  // Uniform tag budget: every rank consumes three tags whether or not it
  // participates in the non-power-of-two fold phases.
  const int tag_fold = next_collective_tag();
  const int tag_main = next_collective_tag();
  const int tag_post = next_collective_tag();
  const int p = size();
  const std::size_t n = send.size();
  require(elem_size > 0, "allreduce: element size must be positive");
  require(n % elem_size == 0,
          "allreduce: buffer size must be a multiple of the element size");
  require(recv.size() == n,
          "allreduce: receive buffer must match the send buffer size");
  const std::size_t nelems = n / elem_size;
  const int pow2 = pow2_floor(p);
  const int rem = p - pow2;

  // The accumulator is re-staged every round: a buffer that has been shared
  // into an envelope is immutable, so each combine writes a fresh pooled
  // buffer (3-address reduce; the adopted partner payload is never
  // written).
  detail::StagedBuffer accum = stage_copy(send);
  auto combine = [&](const detail::StagedBuffer& incoming) {
    detail::StagedBuffer next = stage_acquire(n);
    op(incoming.view().data(), accum.view().data(),
       next.mutable_view().data(), nelems, elem_size);
    accum = next;
  };

  // Fold the p - pow2 excess ranks into their even neighbours so the main
  // loop runs on a power of two.
  int vr;
  if (rank_ < 2 * rem) {
    if (rank_ % 2 == 1) {
      send_staged(accum, rank_ - 1, tag_fold);
      vr = -1;  // parked until the post phase
    } else {
      Status st{};
      const detail::StagedBuffer incoming =
          recv_staged(rank_ + 1, tag_fold, &st);
      require(st.bytes == n,
              "allreduce: a rank contributed an unexpected number of bytes");
      combine(incoming);
      vr = rank_ / 2;
    }
  } else {
    vr = rank_ - rem;
  }

  if (vr >= 0) {
    for (int mask = 1; mask < pow2; mask <<= 1) {
      const int partner_v = vr ^ mask;
      const int partner = partner_v < rem ? partner_v * 2 : partner_v + rem;
      send_staged(accum, partner, tag_main);
      Status st{};
      const detail::StagedBuffer incoming =
          recv_staged(partner, tag_main, &st);
      require(st.bytes == n,
              "allreduce: a rank contributed an unexpected number of bytes");
      combine(incoming);
    }
  }

  if (rank_ < 2 * rem) {
    if (rank_ % 2 == 0) {
      send_staged(accum, rank_ + 1, tag_post);
    } else {
      Status st{};
      accum = recv_staged(rank_ - 1, tag_post, &st);
      require(st.bytes == n,
              "allreduce: a rank contributed an unexpected number of bytes");
    }
  }
  copy_bytes(recv, accum.view());
  state().stats.copied_bytes += n;
}

void Comm::allreduce_ring(std::span<const std::byte> send,
                          std::span<std::byte> recv, std::size_t elem_size,
                          const ReduceFn& op) {
  count_algo(CollectiveAlgo::kAllreduceRabenseifner);
  const int tag_rs = next_collective_tag();
  const int tag_ag = next_collective_tag();
  const int p = size();
  const std::size_t n = send.size();
  require(elem_size > 0, "allreduce: element size must be positive");
  require(n % elem_size == 0,
          "allreduce: buffer size must be a multiple of the element size");
  require(recv.size() == n,
          "allreduce: receive buffer must match the send buffer size");
  const std::size_t nelems = n / elem_size;
  const auto np = static_cast<std::size_t>(p);

  // Element-balanced partition: first (nelems % p) chunks get one extra.
  std::vector<std::size_t> off(np), sz(np);
  {
    const std::size_t base = nelems / np;
    const std::size_t extra = nelems % np;
    std::size_t pos = 0;
    for (std::size_t c = 0; c < np; ++c) {
      const std::size_t e = base + (c < extra ? 1 : 0);
      off[c] = pos * elem_size;
      sz[c] = e * elem_size;
      pos += e;
    }
  }

  const int right = (rank_ + 1) % p;
  const int left = (rank_ - 1 + p) % p;
  // Phase 1 — ring reduce-scatter.  `work` stays mutable throughout, so
  // each outgoing chunk is stage-copied (an eager downstream neighbour may
  // lag arbitrarily far behind; sharing a buffer we are still reducing
  // into would corrupt its in-flight copy).
  std::vector<std::byte> work(send.begin(), send.end());
  for (int step = 1; step < p; ++step) {
    const auto send_c = static_cast<std::size_t>((rank_ - step + 1 + p) % p);
    const auto recv_c = static_cast<std::size_t>((rank_ - step + p) % p);
    const detail::StagedBuffer out = stage_copy(
        std::span<const std::byte>(work).subspan(off[send_c], sz[send_c]));
    send_staged(out, right, tag_rs);
    Status st{};
    const detail::StagedBuffer in = recv_staged(left, tag_rs, &st);
    require(st.bytes == sz[recv_c],
            "allreduce: a rank contributed an unexpected number of bytes");
    op(in.view().data(), work.data() + off[recv_c],
       work.data() + off[recv_c], sz[recv_c] / elem_size, elem_size);
  }

  // Phase 2 — ring allgather of the fully reduced chunks.  These are final,
  // so the relay is zero-copy after one stage at each chunk's origin.
  const auto own_c = static_cast<std::size_t>((rank_ + 1) % p);
  copy_bytes(recv.subspan(off[own_c], sz[own_c]),
             std::span<const std::byte>(work).subspan(off[own_c], sz[own_c]));
  detail::StagedBuffer cur = stage_copy(
      std::span<const std::byte>(work).subspan(off[own_c], sz[own_c]));
  for (int step = 1; step < p; ++step) {
    send_staged(cur, right, tag_ag);
    Status st{};
    cur = recv_staged(left, tag_ag, &st);
    const auto c = static_cast<std::size_t>((rank_ + 1 - step + p) % p);
    require(st.bytes == sz[c],
            "allreduce: a rank contributed an unexpected number of bytes");
    copy_bytes(recv.subspan(off[c], sz[c]), cur.view());
    state().stats.copied_bytes += sz[c];
  }
}

void Comm::scan_bytes(std::span<const std::byte> send,
                      std::span<std::byte> recv, std::size_t elem_size,
                      const ReduceFn& op) {
  count_algo(CollectiveAlgo::kScanLinear);
  require(elem_size > 0, "scan: element size must be positive");
  require(send.size() % elem_size == 0,
          "scan: buffer size must be a multiple of the element size");
  require(recv.size() == send.size(),
          "scan: receive buffer must match the send buffer size");
  const int tag = next_collective_tag();
  const int p = size();
  const std::size_t nelems = send.size() / elem_size;

  std::vector<std::byte> accum(send.begin(), send.end());
  if (rank_ > 0) {
    std::vector<std::byte> prefix(send.size());
    recv_bytes(prefix, rank_ - 1, tag, /*internal=*/true);
    op(prefix.data(), accum.data(), accum.data(), nelems, elem_size);
  }
  if (rank_ + 1 < p) {
    send_bytes(accum, rank_ + 1, tag, /*internal=*/true);
  }
  copy_bytes(recv, accum);
}

void Comm::alltoall_bytes(std::span<const std::byte> send,
                          std::span<std::byte> recv) {
  count_algo(CollectiveAlgo::kAlltoallPairwise);
  const int p = size();
  require(send.size() == recv.size(),
          "alltoall: send and receive buffers must match in size");
  require(send.size() % static_cast<std::size_t>(p) == 0,
          "alltoall: buffer size must be a multiple of the world size");
  const int tag = next_collective_tag();
  const std::size_t chunk = send.size() / static_cast<std::size_t>(p);

  const std::size_t self = static_cast<std::size_t>(rank_) * chunk;
  copy_bytes(recv.subspan(self, chunk), send.subspan(self, chunk));
  for (int shift = 1; shift < p; ++shift) {
    const int dest = (rank_ + shift) % p;
    const int source = (rank_ - shift + p) % p;
    Request sreq = isend_bytes(
        send.subspan(static_cast<std::size_t>(dest) * chunk, chunk), dest,
        tag, /*internal=*/true);
    recv_bytes(recv.subspan(static_cast<std::size_t>(source) * chunk, chunk),
               source, tag, /*internal=*/true);
    wait_nocount(sreq);
  }
}

void Comm::alltoallv_bytes(std::span<const std::byte> send,
                           std::span<const std::size_t> send_counts,
                           std::span<const std::size_t> send_displs,
                           std::span<std::byte> recv,
                           std::span<const std::size_t> recv_counts,
                           std::span<const std::size_t> recv_displs,
                           std::size_t elem_size) {
  count_algo(CollectiveAlgo::kAlltoallvPairwise);
  const int p = size();
  const auto np = static_cast<std::size_t>(p);
  require(send_counts.size() == np && send_displs.size() == np &&
              recv_counts.size() == np && recv_displs.size() == np,
          "alltoallv: need counts and displacements for every rank");
  const int tag = next_collective_tag();

  auto send_piece = [&](int i) {
    const std::size_t idx = static_cast<std::size_t>(i);
    const std::size_t offset = send_displs[idx] * elem_size;
    const std::size_t nbytes = send_counts[idx] * elem_size;
    require(offset + nbytes <= send.size(),
            "alltoallv: send count/displacement outside the buffer");
    return send.subspan(offset, nbytes);
  };
  auto recv_piece = [&](int i) {
    const std::size_t idx = static_cast<std::size_t>(i);
    const std::size_t offset = recv_displs[idx] * elem_size;
    const std::size_t nbytes = recv_counts[idx] * elem_size;
    require(offset + nbytes <= recv.size(),
            "alltoallv: receive count/displacement outside the buffer");
    return recv.subspan(offset, nbytes);
  };

  {
    const auto src = send_piece(rank_);
    auto dst = recv_piece(rank_);
    require(src.size() == dst.size(),
            "alltoallv: self counts disagree between send and receive sides");
    copy_bytes(dst, src);
  }
  for (int shift = 1; shift < p; ++shift) {
    const int dest = (rank_ + shift) % p;
    const int source = (rank_ - shift + p) % p;
    Request sreq = isend_bytes(send_piece(dest), dest, tag, /*internal=*/true);
    auto dst = recv_piece(source);
    const Status st = recv_bytes(dst, source, tag, /*internal=*/true);
    require(st.bytes == dst.size(),
            "alltoallv: a rank contributed an unexpected number of bytes");
    wait_nocount(sreq);
  }
}

}  // namespace dipdc::minimpi
