// Shared-memory transport backend: every frame round-trips through
// MAP_SHARED rings serviced by a router running in a forked child
// PROCESS.  The bytes therefore genuinely leave the sender's address
// space — any pointer smuggled inside a frame would dangle in the router
// — which is exactly the property the zero-copy guards in the runtime
// are tested against.
//
// Layout (one anonymous shared mapping):
//   [Control][pad to 64][per-rank: tx RingCtl, rx RingCtl]
//   [per-rank: tx buf, rx buf]
//
// Each ring is a byte-stream SPSC queue (monotonic head/tail counters,
// like a pipe): producers write length-prefixed frames, consumers read
// them back, and frames larger than the ring simply stream through it in
// chunks.  The router copies tx -> rx per rank (an echo), using only raw
// memory operations, atomics, and nanosleep — safe in a forked child.
// connect() runs before any rank thread exists, so the fork happens while
// the parent is effectively single-threaded.
#include <sys/mman.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstring>
#include <new>
#include <thread>

#include "minimpi/backend.hpp"
#include "minimpi/error.hpp"
#include "support/error.hpp"

namespace dipdc::minimpi::detail_backend {

namespace {

constexpr std::size_t kCacheLine = 64;

/// Wall-clock failsafe: ring waits abandon ship (MpiError) if the router
/// makes no progress for this long.  Orders of magnitude above any real
/// echo latency; exists so a dead router hangs nothing.  The runtime's
/// deadlock detector cannot see ranks blocked inside the backend (they
/// hold no runtime lock and register no waiter), so the backend must
/// guarantee bounded waits on its own.
constexpr auto kStallLimit = std::chrono::seconds(60);

struct RingCtl {
  alignas(kCacheLine) std::atomic<std::uint64_t> head{0};  // consumer
  alignas(kCacheLine) std::atomic<std::uint64_t> tail{0};  // producer
};

struct Control {
  std::atomic<std::uint32_t> stop{0};
};

/// The RingCtl array follows Control, rounded up to RingCtl's alignment
/// (the mapping itself is page-aligned).
constexpr std::size_t kRingCtlOffset =
    (sizeof(Control) + alignof(RingCtl) - 1) / alignof(RingCtl) *
    alignof(RingCtl);

/// Brief spin, then yield, then sleep — keeps echo latency low without
/// burning a core while a peer is scheduled out.
class Backoff {
 public:
  void pause() {
    if (spins_ < 64) {
      ++spins_;
    } else if (spins_ < 128) {
      ++spins_;
      std::this_thread::yield();
    } else {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }
  void reset() { spins_ = 0; }

 private:
  int spins_ = 0;
};

/// One direction of one rank's channel: a byte-stream ring over shared
/// memory.  Exactly one producer and one consumer (rank thread on one
/// side, router process on the other).
struct Ring {
  RingCtl* ctl = nullptr;
  std::byte* buf = nullptr;
  std::size_t cap = 0;

  [[nodiscard]] std::size_t readable() const {
    return static_cast<std::size_t>(
        ctl->tail.load(std::memory_order_acquire) -
        ctl->head.load(std::memory_order_relaxed));
  }
  [[nodiscard]] std::size_t writable() const {
    return cap - static_cast<std::size_t>(
                     ctl->tail.load(std::memory_order_relaxed) -
                     ctl->head.load(std::memory_order_acquire));
  }

  /// Copies up to n bytes in at the current tail; returns bytes written.
  std::size_t push_some(const std::byte* src, std::size_t n) {
    const std::size_t room = writable();
    const std::size_t take = n < room ? n : room;
    if (take == 0) return 0;
    const std::uint64_t tail = ctl->tail.load(std::memory_order_relaxed);
    const std::size_t at = static_cast<std::size_t>(tail % cap);
    const std::size_t first = take < cap - at ? take : cap - at;
    std::memcpy(buf + at, src, first);
    if (take > first) std::memcpy(buf, src + first, take - first);
    ctl->tail.store(tail + take, std::memory_order_release);
    return take;
  }

  /// Copies up to n bytes out from the current head; returns bytes read.
  std::size_t pop_some(std::byte* dst, std::size_t n) {
    const std::size_t avail = readable();
    const std::size_t take = n < avail ? n : avail;
    if (take == 0) return 0;
    const std::uint64_t head = ctl->head.load(std::memory_order_relaxed);
    const std::size_t at = static_cast<std::size_t>(head % cap);
    const std::size_t first = take < cap - at ? take : cap - at;
    std::memcpy(dst, buf + at, first);
    if (take > first) std::memcpy(dst + first, buf, take - first);
    ctl->head.store(head + take, std::memory_order_release);
    return take;
  }
};

class ShmBackend final : public Backend {
 public:
  explicit ShmBackend(const BackendOptions& opt)
      : ring_bytes_(opt.shm_ring_bytes < 64 ? 64 : opt.shm_ring_bytes) {}

  ~ShmBackend() override {
    try {
      finalize();
    } catch (...) {
      // Destructor teardown must not throw; finalize() already escalated
      // to SIGKILL before giving up.
    }
  }

  [[nodiscard]] const char* name() const override { return "shm"; }
  [[nodiscard]] bool shares_address_space() const override { return false; }

  void connect(int nranks) override {
    DIPDC_REQUIRE(map_ == nullptr, "shm backend connected twice");
    nranks_ = nranks;
    const std::size_t n = static_cast<std::size_t>(nranks);
    const std::size_t ctl_bytes = kRingCtlOffset + 2 * n * sizeof(RingCtl);
    map_bytes_ = ctl_bytes + 2 * n * ring_bytes_;
    void* mem = ::mmap(nullptr, map_bytes_, PROT_READ | PROT_WRITE,
                       MAP_SHARED | MAP_ANONYMOUS, -1, 0);
    if (mem == MAP_FAILED) {
      throw MpiError(std::string("shm backend: mmap failed: ") +
                     std::strerror(errno));
    }
    map_ = static_cast<std::byte*>(mem);
    control_ = new (map_) Control();
    auto* ctls = reinterpret_cast<RingCtl*>(map_ + kRingCtlOffset);
    DIPDC_REQUIRE(reinterpret_cast<std::uintptr_t>(ctls) %
                          alignof(RingCtl) == 0,
                  "shm backend: misaligned ring control block");
    std::byte* bufs = map_ + ctl_bytes;
    tx_ = std::vector<Ring>(n);
    rx_ = std::vector<Ring>(n);
    spill_ = std::vector<Spill>(n);
    for (std::size_t r = 0; r < n; ++r) {
      tx_[r] = Ring{new (&ctls[2 * r]) RingCtl(),
                    bufs + (2 * r) * ring_bytes_, ring_bytes_};
      rx_[r] = Ring{new (&ctls[2 * r + 1]) RingCtl(),
                    bufs + (2 * r + 1) * ring_bytes_, ring_bytes_};
    }

    const pid_t pid = ::fork();
    if (pid < 0) {
      ::munmap(map_, map_bytes_);
      map_ = nullptr;
      throw MpiError(std::string("shm backend: fork failed: ") +
                     std::strerror(errno));
    }
    if (pid == 0) {
      route_frames();  // never returns
    }
    router_ = pid;
  }

  void roundtrip(int rank, std::span<const std::byte> tx,
                 std::vector<std::byte>& rx) override {
    send(rank, tx);
    recv(rank, rx);
  }

  void finalize() override {
    if (router_ > 0) {
      control_->stop.store(1, std::memory_order_release);
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(5);
      int status = 0;
      for (;;) {
        const pid_t done = ::waitpid(router_, &status, WNOHANG);
        if (done == router_ || (done < 0 && errno == ECHILD)) break;
        if (std::chrono::steady_clock::now() >= deadline) {
          ::kill(router_, SIGKILL);
          ::waitpid(router_, &status, 0);
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      router_ = -1;
    }
    if (map_ != nullptr) {
      ::munmap(map_, map_bytes_);
      map_ = nullptr;
    }
  }

 private:
  void send(int rank, std::span<const std::byte> frame) {
    const std::size_t r = static_cast<std::size_t>(rank);
    const std::uint64_t len = frame.size();
    stream_write(r, reinterpret_cast<const std::byte*>(&len), sizeof(len));
    stream_write(r, frame.data(), frame.size());
  }

  void recv(int rank, std::vector<std::byte>& frame) {
    const std::size_t r = static_cast<std::size_t>(rank);
    std::uint64_t len = 0;
    stream_read(r, reinterpret_cast<std::byte*>(&len), sizeof(len));
    frame.resize(static_cast<std::size_t>(len));
    stream_read(r, frame.data(), frame.size());
  }

  /// Blocking stream write with the stall failsafe (parent side only).
  ///
  /// Deadlock note: a frame larger than the ring cannot fit in tx and rx at
  /// once.  While this rank is still pushing the tail of a big frame into
  /// tx, the router is already echoing its head into rx — and blocks when
  /// rx fills, at which point it stops draining tx and both sides would
  /// wedge.  So whenever tx is full the sender drains whatever has already
  /// come back on rx into a local spill buffer; recv serves the spill
  /// before touching the ring.  (roundtrip() pairs every send with its
  /// recv, so the spill is plain per-rank state touched only by its own
  /// thread.)
  void stream_write(std::size_t r, const std::byte* src, std::size_t n) {
    Ring& ring = tx_[r];
    Backoff backoff;
    auto last_progress = std::chrono::steady_clock::now();
    while (n > 0) {
      const std::size_t wrote = ring.push_some(src, n);
      if (wrote > 0) {
        src += wrote;
        n -= wrote;
        backoff.reset();
        last_progress = std::chrono::steady_clock::now();
        continue;
      }
      if (drain_to_spill(r) > 0) {
        backoff.reset();
        last_progress = std::chrono::steady_clock::now();
        continue;
      }
      check_stalled(last_progress, "send");
      backoff.pause();
    }
  }

  void stream_read(std::size_t r, std::byte* dst, std::size_t n) {
    // Echoed bytes parked by stream_write come first: they left the ring
    // earlier, and ring order is frame order.
    Spill& spill = spill_[r];
    if (spill.consumed < spill.bytes.size()) {
      const std::size_t have = spill.bytes.size() - spill.consumed;
      const std::size_t take = n < have ? n : have;
      std::memcpy(dst, spill.bytes.data() + spill.consumed, take);
      spill.consumed += take;
      if (spill.consumed == spill.bytes.size()) {
        spill.bytes.clear();
        spill.consumed = 0;
      }
      dst += take;
      n -= take;
    }
    Ring& ring = rx_[r];
    Backoff backoff;
    auto last_progress = std::chrono::steady_clock::now();
    while (n > 0) {
      const std::size_t got = ring.pop_some(dst, n);
      if (got > 0) {
        dst += got;
        n -= got;
        backoff.reset();
        last_progress = std::chrono::steady_clock::now();
        continue;
      }
      check_stalled(last_progress, "recv");
      backoff.pause();
    }
  }

  /// Moves everything currently readable on rx[r] into the spill buffer;
  /// returns the number of bytes drained.
  std::size_t drain_to_spill(std::size_t r) {
    Ring& ring = rx_[r];
    const std::size_t avail = ring.readable();
    if (avail == 0) return 0;
    Spill& spill = spill_[r];
    const std::size_t old = spill.bytes.size();
    spill.bytes.resize(old + avail);
    const std::size_t got = ring.pop_some(spill.bytes.data() + old, avail);
    spill.bytes.resize(old + got);
    return got;
  }

  void check_stalled(std::chrono::steady_clock::time_point last_progress,
                     const char* what) {
    if (std::chrono::steady_clock::now() - last_progress < kStallLimit) {
      return;
    }
    int status = 0;
    const bool router_gone =
        ::waitpid(router_, &status, WNOHANG) == router_;
    if (router_gone) router_ = -1;
    throw MpiError(std::string("shm backend: ") + what +
                   (router_gone ? " stalled: router process died"
                                : " stalled: router unresponsive"));
  }

  /// Router child: echoes every length-prefixed frame tx[r] -> rx[r].
  /// Runs in the forked process; touches only the shared mapping, a stack
  /// chunk buffer, atomics, and nanosleep, then _exit()s.
  [[noreturn]] void route_frames() {
    std::byte chunk[8192];
    for (;;) {
      bool idle = true;
      for (int r = 0; r < nranks_; ++r) {
        Ring& tx = tx_[static_cast<std::size_t>(r)];
        if (tx.readable() < sizeof(std::uint64_t)) continue;
        idle = false;
        std::uint64_t len = 0;
        child_read(tx, reinterpret_cast<std::byte*>(&len), sizeof(len));
        Ring& rx = rx_[static_cast<std::size_t>(r)];
        child_write(rx, reinterpret_cast<const std::byte*>(&len),
                    sizeof(len));
        std::uint64_t left = len;
        while (left > 0) {
          const std::size_t want =
              left < sizeof(chunk) ? static_cast<std::size_t>(left)
                                   : sizeof(chunk);
          child_read(tx, chunk, want);
          child_write(rx, chunk, want);
          left -= want;
        }
      }
      if (idle) {
        if (control_->stop.load(std::memory_order_acquire) != 0) {
          ::_exit(0);
        }
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    }
  }

  /// Child-side blocking stream ops: no exceptions, no allocation; if the
  /// parent orders a stop mid-frame (it aborted), just exit.
  void child_read(Ring& ring, std::byte* dst, std::size_t n) {
    Backoff backoff;
    while (n > 0) {
      const std::size_t got = ring.pop_some(dst, n);
      if (got > 0) {
        dst += got;
        n -= got;
        backoff.reset();
        continue;
      }
      if (control_->stop.load(std::memory_order_acquire) != 0) ::_exit(0);
      backoff.pause();
    }
  }

  void child_write(Ring& ring, const std::byte* src, std::size_t n) {
    Backoff backoff;
    while (n > 0) {
      const std::size_t wrote = ring.push_some(src, n);
      if (wrote > 0) {
        src += wrote;
        n -= wrote;
        backoff.reset();
        continue;
      }
      if (control_->stop.load(std::memory_order_acquire) != 0) ::_exit(0);
      backoff.pause();
    }
  }

  std::size_t ring_bytes_;
  int nranks_ = 0;
  std::byte* map_ = nullptr;
  std::size_t map_bytes_ = 0;
  Control* control_ = nullptr;
  /// Echoed bytes drained off rx while the rank was still blocked pushing
  /// a big frame into tx (see stream_write).  Touched only by the owning
  /// rank's thread.
  struct Spill {
    std::vector<std::byte> bytes;
    std::size_t consumed = 0;
  };

  std::vector<Ring> tx_;  // rank -> ring towards the router
  std::vector<Ring> rx_;  // rank -> ring back from the router
  std::vector<Spill> spill_;
  pid_t router_ = -1;
};

}  // namespace

std::unique_ptr<Backend> make_shm_backend(const BackendOptions& opt) {
  return std::make_unique<ShmBackend>(opt);
}

}  // namespace dipdc::minimpi::detail_backend
