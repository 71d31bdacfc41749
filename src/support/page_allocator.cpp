#include "support/page_allocator.hpp"

#include <sys/mman.h>

#include <array>
#include <mutex>
#include <new>
#include <utility>

namespace dipdc::support {

namespace {

constexpr std::size_t kKeptBytes = std::size_t{64} << 20;

/// Released blocks kept for reuse, most recent last: at most kKeptBytes
/// of them, which is one slot per kMappedBytes.
struct KeptBlocks {
  std::mutex mu;
  std::array<std::pair<void*, std::size_t>, kKeptBytes / kMappedBytes>
      blocks{};
  std::size_t count = 0;
  std::size_t bytes = 0;
};

KeptBlocks& kept() {
  // Never destroyed: a static PageAllocator vector may release its block
  // during exit, after a destroyed function-local static would be gone.
  static auto* const k = new KeptBlocks;
  return *k;
}

}  // namespace

void* map_pages(std::size_t bytes) {
  {
    KeptBlocks& k = kept();
    const std::lock_guard<std::mutex> lock(k.mu);
    for (std::size_t i = k.count; i-- > 0;) {
      if (k.blocks[i].second != bytes) continue;
      void* p = k.blocks[i].first;
      for (std::size_t j = i + 1; j < k.count; ++j) {
        k.blocks[j - 1] = k.blocks[j];
      }
      --k.count;
      k.bytes -= bytes;
      return p;
    }
  }
  void* p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  return p;
}

void unmap_pages(void* p, std::size_t bytes) noexcept {
  {
    KeptBlocks& k = kept();
    const std::lock_guard<std::mutex> lock(k.mu);
    if (k.count < k.blocks.size() && k.bytes + bytes <= kKeptBytes) {
      k.blocks[k.count++] = {p, bytes};
      k.bytes += bytes;
      return;
    }
  }
  munmap(p, bytes);
}

}  // namespace dipdc::support
