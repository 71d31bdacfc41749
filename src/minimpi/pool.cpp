#include "minimpi/pool.hpp"

#include <bit>

#include "minimpi/detail.hpp"

namespace dipdc::minimpi::detail {

namespace {

/// Smallest power of two >= n (n >= 1).
std::size_t round_up_pow2(std::size_t n) {
  return std::size_t{1} << std::bit_width(n - 1);
}

}  // namespace

std::size_t BufferPool::class_of(std::size_t n) {
  return static_cast<std::size_t>(std::bit_width(n - 1));
}

/// Deleter of pooled buffers: holds the pool alive and hands the storage
/// back (or frees it when the pool is full/disabled).
struct BufferPool::Returner {
  std::shared_ptr<BufferPool> pool;
  void operator()(Bytes* buf) const { pool->release(buf); }
};

Buffer BufferPool::acquire(std::size_t n, bool* pool_hit) {
  if (pool_hit != nullptr) *pool_hit = false;
  if (n == 0) n = 1;  // keep data() valid for zero-length staging
  const std::size_t cls = class_of(n);
  if (enabled_ && cls < kClassCount) {
    std::unique_lock<std::mutex> lock(mu_);
    auto& slot = free_[cls];
    if (!slot.empty()) {
      std::unique_ptr<Bytes> buf = std::move(slot.back());
      slot.pop_back();
      pooled_bytes_ -= buf->size();
      lock.unlock();
      if (pool_hit != nullptr) *pool_hit = true;
      return Buffer(buf.release(), Returner{shared_from_this()});
    }
  }
  // Fresh allocation, sized to the class so it can be reused for any
  // request of the same class later.  The one-time value-initialisation is
  // paid here; recycled buffers are never cleared again.
  auto* buf = new Bytes(round_up_pow2(n));
  if (enabled_) {
    return Buffer(buf, Returner{shared_from_this()});
  }
  return Buffer(buf);
}

void BufferPool::release(Bytes* buf) {
  std::unique_ptr<Bytes> owned(buf);
  const std::size_t cls = class_of(owned->size());
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (cls < kClassCount && free_[cls].size() < kPerClassCap &&
        pooled_bytes_ + owned->size() <= kMaxPooledBytes) {
      pooled_bytes_ += owned->size();
      free_[cls].push_back(std::move(owned));
      return;
    }
  }
  // Dropped on the floor (unique_ptr frees it outside the lock).
}

EnvelopePool::~EnvelopePool() {
  for (Envelope* env : free_) delete env;
}

std::shared_ptr<Envelope> EnvelopePool::acquire() {
  if (enabled_) {
    std::lock_guard<std::mutex> lock(mu_);
    if (!free_.empty()) {
      Envelope* env = free_.back();
      free_.pop_back();
      auto self = shared_from_this();
      return std::shared_ptr<Envelope>(
          env, [self](Envelope* e) { self->release(e); });
    }
  }
  if (!enabled_) return std::make_shared<Envelope>();
  auto self = shared_from_this();
  return std::shared_ptr<Envelope>(new Envelope(),
                                   [self](Envelope* e) { self->release(e); });
}

void EnvelopePool::release(Envelope* env) {
  env->reset();  // drops the payload (returning its buffer to the pool)
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (free_.size() < kCap) {
      free_.push_back(env);
      return;
    }
  }
  delete env;
}

}  // namespace dipdc::minimpi::detail
