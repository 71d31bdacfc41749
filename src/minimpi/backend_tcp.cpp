// TCP transport backend (loopback first): every frame is written
// length-prefixed onto the sending rank's socket, crosses the kernel
// network stack to an in-process relay, and is echoed back on the same
// connection.  The relay is a single nonblocking progress loop
// (poll + partial-read/-write reassembly), which is the shape a future
// multi-machine peer would grow out of: replace "echo to the same
// connection" with "forward to the destination host" and the framing,
// progress loop, and runtime seam all stay as they are.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <deque>
#include <thread>

#include "minimpi/backend.hpp"
#include "minimpi/error.hpp"
#include "support/error.hpp"

namespace dipdc::minimpi::detail_backend {

namespace {

[[noreturn]] void throw_errno(const char* what) {
  throw MpiError(std::string("tcp backend: ") + what + ": " +
                 std::strerror(errno));
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    throw_errno("fcntl(O_NONBLOCK)");
  }
}

/// Full blocking write, resilient to partial writes and EINTR.
/// MSG_NOSIGNAL: a dead relay must surface as an error, not SIGPIPE.
void write_all(int fd, const std::byte* data, std::size_t n) {
  while (n > 0) {
    const ssize_t wrote = ::send(fd, data, n, MSG_NOSIGNAL);
    if (wrote < 0) {
      if (errno == EINTR) continue;
      throw_errno("send");
    }
    data += wrote;
    n -= static_cast<std::size_t>(wrote);
  }
}

/// Full blocking read; EOF means the relay went away mid-run.
void read_all(int fd, std::byte* data, std::size_t n) {
  while (n > 0) {
    const ssize_t got = ::read(fd, data, n);
    if (got < 0) {
      if (errno == EINTR) continue;
      throw_errno("read");
    }
    if (got == 0) {
      throw MpiError("tcp backend: relay closed the connection");
    }
    data += got;
    n -= static_cast<std::size_t>(got);
  }
}

class TcpBackend final : public Backend {
 public:
  explicit TcpBackend(const BackendOptions& opt)
      : host_(opt.tcp_host), port_(opt.tcp_port) {}

  ~TcpBackend() override {
    try {
      finalize();
    } catch (...) {
    }
  }

  [[nodiscard]] const char* name() const override { return "tcp"; }
  [[nodiscard]] bool shares_address_space() const override { return false; }

  void connect(int nranks) override {
    DIPDC_REQUIRE(relay_fds_.empty(), "tcp backend connected twice");
    const std::size_t n = static_cast<std::size_t>(nranks);

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port_);
    if (::inet_pton(AF_INET, host_.c_str(), &addr.sin_addr) != 1) {
      throw MpiError("tcp backend: bad host address '" + host_ + "'");
    }

    const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listener < 0) throw_errno("socket");
    const int one = 1;
    ::setsockopt(listener, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(listener, reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) < 0) {
      ::close(listener);
      throw_errno("bind");
    }
    if (::listen(listener, nranks + 8) < 0) {
      ::close(listener);
      throw_errno("listen");
    }
    // With port 0 the kernel picked an ephemeral port; learn it so the
    // rank sockets know where to connect.
    socklen_t addr_len = sizeof(addr);
    if (::getsockname(listener, reinterpret_cast<sockaddr*>(&addr),
                      &addr_len) < 0) {
      ::close(listener);
      throw_errno("getsockname");
    }

    // Connect one client socket per rank (the kernel backlog completes
    // the handshakes), then accept the relay ends.
    rank_fds_.reserve(n);
    relay_fds_.reserve(n);
    for (std::size_t r = 0; r < n; ++r) {
      const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
      if (fd < 0) throw_errno("socket");
      if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                    sizeof(addr)) < 0) {
        ::close(fd);
        throw_errno("connect");
      }
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      rank_fds_.push_back(fd);
    }
    for (std::size_t r = 0; r < n; ++r) {
      const int fd = ::accept(listener, nullptr, nullptr);
      if (fd < 0) throw_errno("accept");
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      set_nonblocking(fd);
      relay_fds_.push_back(fd);
    }
    ::close(listener);

    pending_ = std::vector<Outbox>(n);
    stop_.store(false, std::memory_order_release);
    relay_ = std::thread([this] {
      while (!stop_.load(std::memory_order_acquire)) progress();
    });
  }

  void send(int rank, std::span<const std::byte> frame) override {
    const int fd = rank_fds_[static_cast<std::size_t>(rank)];
    const std::uint64_t len = frame.size();
    write_all(fd, reinterpret_cast<const std::byte*>(&len), sizeof(len));
    write_all(fd, frame.data(), frame.size());
  }

  void recv(int rank, std::vector<std::byte>& frame) override {
    const int fd = rank_fds_[static_cast<std::size_t>(rank)];
    std::uint64_t len = 0;
    read_all(fd, reinterpret_cast<std::byte*>(&len), sizeof(len));
    frame.resize(static_cast<std::size_t>(len));
    read_all(fd, frame.data(), frame.size());
  }

  /// One iteration of the relay's nonblocking progress loop: poll every
  /// connection, ingest whatever arrived, and push queued echo bytes back
  /// out as far as the socket buffers allow.  The relay thread drives
  /// this; frames are never parsed here — the byte stream is echoed
  /// verbatim and the length-prefixed framing is reconstructed by the
  /// receiving rank.
  void progress() override {
    std::vector<pollfd> fds(relay_fds_.size());
    for (std::size_t i = 0; i < relay_fds_.size(); ++i) {
      fds[i].fd = relay_fds_[i];
      fds[i].events = POLLIN;
      if (!pending_[i].chunks.empty()) fds[i].events |= POLLOUT;
    }
    const int ready =
        ::poll(fds.data(), static_cast<nfds_t>(fds.size()), 50);
    if (ready <= 0) return;  // timeout/EINTR: loop re-checks stop_
    std::byte buf[16384];
    for (std::size_t i = 0; i < fds.size(); ++i) {
      if ((fds[i].revents & (POLLIN | POLLERR | POLLHUP)) != 0) {
        for (;;) {
          const ssize_t got = ::read(fds[i].fd, buf, sizeof(buf));
          if (got > 0) {
            pending_[i].chunks.emplace_back(buf, buf + got);
            continue;
          }
          // EOF or EAGAIN: a closed rank socket just goes quiet here;
          // finalize() tears the relay down.
          break;
        }
      }
      Outbox& out = pending_[i];
      while (!out.chunks.empty()) {
        std::vector<std::byte>& chunk = out.chunks.front();
        const std::size_t left = chunk.size() - out.offset;
        const ssize_t wrote = ::send(fds[i].fd, chunk.data() + out.offset,
                                     left, MSG_NOSIGNAL);
        if (wrote < 0) break;  // EAGAIN: retry next iteration
        out.offset += static_cast<std::size_t>(wrote);
        if (out.offset == chunk.size()) {
          out.chunks.pop_front();
          out.offset = 0;
        } else {
          break;  // socket buffer full mid-chunk
        }
      }
    }
  }

  void finalize() override {
    if (relay_.joinable()) {
      stop_.store(true, std::memory_order_release);
      // Half-closing the rank ends hands every relay socket an EOF, so a
      // relay parked in poll() wakes now instead of at its timeout.
      for (const int fd : rank_fds_) ::shutdown(fd, SHUT_WR);
      relay_.join();
    }
    for (const int fd : rank_fds_) ::close(fd);
    rank_fds_.clear();
    for (const int fd : relay_fds_) ::close(fd);
    relay_fds_.clear();
  }

 private:
  struct Outbox {
    std::deque<std::vector<std::byte>> chunks;
    std::size_t offset = 0;  // bytes of chunks.front() already written
  };

  std::string host_;
  std::uint16_t port_;
  std::vector<int> rank_fds_;   // blocking; owned by the rank threads
  std::vector<int> relay_fds_;  // nonblocking; owned by the relay thread
  std::vector<Outbox> pending_;
  std::atomic<bool> stop_{false};
  std::thread relay_;
};

}  // namespace

std::unique_ptr<Backend> make_tcp_backend(const BackendOptions& opt) {
  return std::make_unique<TcpBackend>(opt);
}

}  // namespace dipdc::minimpi::detail_backend
