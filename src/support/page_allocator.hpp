// PageAllocator — storage for the large buffers that rank threads allocate
// and free concurrently: message payloads, per-rank copies of a dataset.
//
// All rank threads share one malloc heap, and the order in which they free
// multi-megabyte buffers decides which free chunk the next small allocation
// splits.  A small block left inside a freed hole pushes the next run's
// buffer past the end of the heap, so the same module 2 run peaked one
// dataset copy higher in some processes than in others.  Requests of at
// least kMappedBytes therefore get whole pages of their own (map_pages),
// which no other allocation can split; smaller requests go to
// std::allocator.
#pragma once

#include <cstddef>
#include <memory>

namespace dipdc::support {

/// Requests of at least this many bytes are page-mapped.
inline constexpr std::size_t kMappedBytes = std::size_t{1} << 20;

/// A private anonymous mapping of `bytes` (>= kMappedBytes).  A block that
/// unmap_pages() kept and that has exactly this size is handed out again
/// instead of a fresh mapping, so a loop of runs that allocates the same
/// sizes every run stops faulting pages in after its first run (mapping
/// afresh every time cost the distmatrix benchmark about 6% of its wall
/// time on a 4-vCPU x86 VM).  Its contents are then whatever the previous
/// owner left.  Throws std::bad_alloc when the OS refuses.
[[nodiscard]] void* map_pages(std::size_t bytes);

/// Releases a map_pages() block: kept for reuse while the kept blocks
/// total at most 64 MiB, unmapped otherwise.
void unmap_pages(void* p, std::size_t bytes) noexcept;

template <class T>
class PageAllocator {
 public:
  using value_type = T;

  PageAllocator() = default;
  template <class U>
  PageAllocator(const PageAllocator<U>& /*other*/) noexcept {}

  [[nodiscard]] T* allocate(std::size_t n) {
    if (n * sizeof(T) < kMappedBytes) return std::allocator<T>().allocate(n);
    return static_cast<T*>(map_pages(n * sizeof(T)));
  }

  void deallocate(T* p, std::size_t n) noexcept {
    if (n * sizeof(T) < kMappedBytes) {
      std::allocator<T>().deallocate(p, n);
    } else {
      unmap_pages(p, n * sizeof(T));
    }
  }

  template <class U>
  bool operator==(const PageAllocator<U>& /*other*/) const noexcept {
    return true;
  }
};

}  // namespace dipdc::support
