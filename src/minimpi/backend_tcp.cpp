// TCP transport backend (loopback first): each rank owns one loopback
// connection to itself.  roundtrip() writes the length-prefixed frame into
// the client end and reads its echo off the accepted end, so every frame
// crosses the kernel network stack once.  Both ends are driven from the
// rank's own thread in one full-duplex poll loop: a frame larger than the
// two socket buffers together drains while it is still being written.  A
// multi-machine peer would grow out of this by connecting the client end
// to the destination host instead of to itself; the framing and the seam
// stay as they are.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "minimpi/backend.hpp"
#include "minimpi/error.hpp"
#include "support/error.hpp"

namespace dipdc::minimpi::detail_backend {

namespace {

[[noreturn]] void throw_errno(const char* what) {
  throw MpiError(std::string("tcp backend: ") + what + ": " +
                 std::strerror(errno));
}

/// The not-yet-transferred tail of a length prefix followed by a body,
/// `done` bytes into the stream; returns how many iovecs it filled.
std::size_t stream_tail(iovec (&iov)[2], void* prefix, std::byte* body,
                        std::size_t body_len, std::size_t done) {
  constexpr std::size_t kPrefix = sizeof(std::uint64_t);
  std::size_t n = 0;
  if (done < kPrefix) {
    iov[n++] = {static_cast<char*>(prefix) + done, kPrefix - done};
  }
  const std::size_t body_done = done > kPrefix ? done - kPrefix : 0;
  if (body_done < body_len) {
    iov[n++] = {body + body_done, body_len - body_done};
  }
  return n;
}

/// True when `errno` after a MSG_DONTWAIT call only means "not now".
bool would_block() {
  return errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR;
}

class TcpBackend final : public Backend {
 public:
  explicit TcpBackend(const BackendOptions& opt)
      : host_(opt.tcp_host), port_(opt.tcp_port) {}

  ~TcpBackend() override { finalize(); }

  [[nodiscard]] const char* name() const override { return "tcp"; }
  [[nodiscard]] bool shares_address_space() const override { return false; }

  void connect(int nranks) override {
    DIPDC_REQUIRE(ends_.empty(), "tcp backend connected twice");
    const std::size_t n = static_cast<std::size_t>(nranks);

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port_);
    if (::inet_pton(AF_INET, host_.c_str(), &addr.sin_addr) != 1) {
      throw MpiError("tcp backend: bad host address '" + host_ + "'");
    }

    // Closed on every exit path; only the rank connections outlive connect().
    struct Listener {
      int fd;
      ~Listener() { ::close(fd); }
    } listener{::socket(AF_INET, SOCK_STREAM, 0)};
    if (listener.fd < 0) throw_errno("socket");
    const int one = 1;
    ::setsockopt(listener.fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(listener.fd, reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) < 0) {
      throw_errno("bind");
    }
    if (::listen(listener.fd, nranks + 8) < 0) throw_errno("listen");
    // With port 0 the kernel picked an ephemeral port; learn it so the
    // rank sockets know where to connect.
    socklen_t addr_len = sizeof(addr);
    if (::getsockname(listener.fd, reinterpret_cast<sockaddr*>(&addr),
                      &addr_len) < 0) {
      throw_errno("getsockname");
    }

    // Connect and accept in lockstep, so the one connection in the accept
    // queue is the one just connected: rank r's two ends are the same
    // connection.  An end is recorded as soon as it exists, so a failure
    // part-way leaves finalize() every fd to close.
    ends_.reserve(n);
    for (std::size_t r = 0; r < n; ++r) {
      Ends& ends = ends_.emplace_back();
      ends.write_fd = ::socket(AF_INET, SOCK_STREAM, 0);
      if (ends.write_fd < 0) throw_errno("socket");
      if (::connect(ends.write_fd, reinterpret_cast<const sockaddr*>(&addr),
                    sizeof(addr)) < 0) {
        throw_errno("connect");
      }
      ends.read_fd = ::accept(listener.fd, nullptr, nullptr);
      if (ends.read_fd < 0) throw_errno("accept");
      if (!same_connection(ends)) {
        throw MpiError("tcp backend: a foreign client connected to port " +
                       std::to_string(ntohs(addr.sin_port)));
      }
      for (const int fd : {ends.write_fd, ends.read_fd}) {
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      }
    }
  }

  /// Writes `[len][tx]` and reads `[len][rx]` back in one loop: whichever
  /// direction can move does, and the thread sleeps in poll() only when
  /// neither can.
  void roundtrip(int rank, std::span<const std::byte> tx,
                 std::vector<std::byte>& rx) override {
    const Ends& ends = ends_[static_cast<std::size_t>(rank)];
    std::uint64_t sent_len = tx.size();
    std::uint64_t echoed_len = 0;
    const std::size_t total = sizeof(sent_len) + tx.size();
    rx.resize(tx.size());
    // sendmsg never writes through the iovec, so dropping const is safe.
    std::byte* tx_bytes = const_cast<std::byte*>(tx.data());
    std::size_t sent = 0;
    std::size_t got = 0;
    while (got < total) {
      bool moved = false;
      if (sent < total) {
        msghdr msg{};
        iovec iov[2];
        msg.msg_iov = iov;
        msg.msg_iovlen = stream_tail(iov, &sent_len, tx_bytes, tx.size(), sent);
        const ssize_t wrote = ::sendmsg(ends.write_fd, &msg,
                                        MSG_DONTWAIT | MSG_NOSIGNAL);
        if (wrote > 0) {
          sent += static_cast<std::size_t>(wrote);
          moved = true;
        } else if (!would_block()) {
          throw_errno("send");
        }
      }
      msghdr msg{};
      iovec iov[2];
      msg.msg_iov = iov;
      msg.msg_iovlen =
          stream_tail(iov, &echoed_len, rx.data(), rx.size(), got);
      const ssize_t rcvd = ::recvmsg(ends.read_fd, &msg, MSG_DONTWAIT);
      if (rcvd > 0) {
        const bool had_prefix = got >= sizeof(echoed_len);
        got += static_cast<std::size_t>(rcvd);
        if (!had_prefix && got >= sizeof(echoed_len) &&
            echoed_len != sent_len) {
          throw MpiError("tcp backend: rank " + std::to_string(rank) +
                         " sent a " + std::to_string(sent_len) +
                         "-byte frame but its echo announced " +
                         std::to_string(echoed_len) + " bytes");
        }
        moved = true;
      } else if (rcvd == 0) {
        throw MpiError("tcp backend: rank " + std::to_string(rank) +
                       "'s connection closed mid-frame");
      } else if (!would_block()) {
        throw_errno("recv");
      }
      if (moved) continue;
      pollfd fds[2] = {{ends.read_fd, POLLIN, 0}, {ends.write_fd, POLLOUT, 0}};
      if (::poll(fds, sent < total ? 2 : 1, -1) < 0 && errno != EINTR) {
        throw_errno("poll");
      }
    }
  }

  void finalize() override {
    for (const Ends& ends : ends_) {
      if (ends.write_fd >= 0) ::close(ends.write_fd);
      if (ends.read_fd >= 0) ::close(ends.read_fd);
    }
    ends_.clear();
  }

 private:
  /// One rank's loopback connection to itself.
  struct Ends {
    int write_fd = -1;  // the client end: frames go in here
    int read_fd = -1;   // the accepted end: echoes come out here
  };

  /// True when the accepted end's peer is the client end's own address.
  static bool same_connection(const Ends& ends) {
    sockaddr_in client{};
    sockaddr_in peer{};
    socklen_t client_len = sizeof(client);
    socklen_t peer_len = sizeof(peer);
    if (::getsockname(ends.write_fd, reinterpret_cast<sockaddr*>(&client),
                      &client_len) < 0 ||
        ::getpeername(ends.read_fd, reinterpret_cast<sockaddr*>(&peer),
                      &peer_len) < 0) {
      throw_errno("getpeername");
    }
    return client.sin_port == peer.sin_port &&
           client.sin_addr.s_addr == peer.sin_addr.s_addr;
  }

  std::string host_;
  std::uint16_t port_;
  std::vector<Ends> ends_;
};

}  // namespace

std::unique_ptr<Backend> make_tcp_backend(const BackendOptions& opt) {
  return std::make_unique<TcpBackend>(opt);
}

}  // namespace dipdc::minimpi::detail_backend
