// Pooled transport storage: recycled payload buffers and envelopes.
//
// Every eager message in the seed implementation paid two heap allocations
// (the Envelope control block and its payload vector) plus two memcpys.
// The pools below recycle both kinds of storage across messages so that the
// steady-state hot path allocates nothing beyond a shared_ptr control
// block, and the StagedBuffer type lets collectives hand payload buffers
// from rank to rank by reference instead of by copy.
//
// Locking: each pool has its own mutex and never takes the runtime lock, so
// pool calls are safe both inside and outside the global runtime mutex
// (lock order is always runtime -> pool).
#pragma once

#include <array>
#include <cstddef>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "support/page_allocator.hpp"

namespace dipdc::minimpi::detail {

/// Payload bytes.  Large ones are page-mapped (support/page_allocator.hpp):
/// the root of a big collective allocates them on its own thread while the
/// other ranks allocate and free theirs.
using Bytes = std::vector<std::byte, support::PageAllocator<std::byte>>;

/// Shared payload storage.  Buffers handed to an envelope are immutable
/// from the moment they are published (shared with a second owner); the
/// collectives rely on this to forward one buffer through many hops.
using Buffer = std::shared_ptr<Bytes>;

/// A byte range inside a (possibly shared, possibly pooled) buffer: the
/// unit of zero-copy staging used by the collectives.  `storage` keeps the
/// bytes alive; [offset, offset+len) is the logical content.
struct StagedBuffer {
  Buffer storage;
  std::size_t offset = 0;
  std::size_t len = 0;

  [[nodiscard]] std::span<const std::byte> view() const {
    return storage
               ? std::span<const std::byte>(storage->data() + offset, len)
               : std::span<const std::byte>{};
  }
  /// Writable view; only valid while this rank is the sole owner (before
  /// the buffer has been shared into an envelope).
  [[nodiscard]] std::span<std::byte> mutable_view() {
    return storage ? std::span<std::byte>(storage->data() + offset, len)
                   : std::span<std::byte>{};
  }
  /// Sub-range view sharing the same storage (used to forward one slice of
  /// a relayed tree/ring blob without copying).
  [[nodiscard]] StagedBuffer slice(std::size_t off, std::size_t n) const {
    return StagedBuffer{storage, offset + off, n};
  }
};

/// Power-of-two size-class freelist for payload buffers.  acquire() returns
/// a buffer whose size() is at least the requested byte count; when the
/// last reference dies the buffer returns to the pool.  Disabled pools
/// simply allocate (used to reproduce the pre-pool baseline in benches).
class BufferPool : public std::enable_shared_from_this<BufferPool> {
 public:
  explicit BufferPool(bool enabled) : enabled_(enabled) {}

  /// Buffer with size() >= n.  `*pool_hit` (optional) reports whether the
  /// storage was recycled rather than freshly allocated.
  Buffer acquire(std::size_t n, bool* pool_hit = nullptr);

 private:
  struct Returner;

  void release(Bytes* buf);
  static std::size_t class_of(std::size_t n);

  static constexpr std::size_t kClassCount = 48;
  static constexpr std::size_t kPerClassCap = 4;
  static constexpr std::size_t kMaxPooledBytes = std::size_t{256} << 20;

  std::mutex mu_;
  std::array<std::vector<std::unique_ptr<Bytes>>, kClassCount> free_;
  std::size_t pooled_bytes_ = 0;
  bool enabled_;
};

struct Envelope;

/// Freelist of fully constructed Envelopes.  acquire() hands out a cleared
/// envelope; the shared handle's deleter resets it (dropping any payload
/// buffer back into the BufferPool) and parks the object for reuse.
class EnvelopePool : public std::enable_shared_from_this<EnvelopePool> {
 public:
  explicit EnvelopePool(bool enabled) : enabled_(enabled) {}
  ~EnvelopePool();

  EnvelopePool(const EnvelopePool&) = delete;
  EnvelopePool& operator=(const EnvelopePool&) = delete;

  std::shared_ptr<Envelope> acquire();

 private:
  void release(Envelope* env);

  static constexpr std::size_t kCap = 1024;

  std::mutex mu_;
  std::vector<Envelope*> free_;
  bool enabled_;
};

}  // namespace dipdc::minimpi::detail
