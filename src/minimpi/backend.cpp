// Backend seam: kind parsing, wire (de)serialization, and the default
// in-process ThreadsBackend.  The TCP transport lives in backend_tcp.cpp.
#include "minimpi/backend.hpp"

#include <condition_variable>
#include <cstring>
#include <deque>
#include <mutex>
#include <utility>

#include "minimpi/error.hpp"
#include "support/error.hpp"

namespace dipdc::minimpi {

const char* to_string(BackendKind kind) {
  switch (kind) {
    case BackendKind::kThreads:
      return "threads";
    case BackendKind::kTcp:
      return "tcp";
  }
  return "?";
}

bool parse_backend_kind(std::string_view name, BackendKind* out) {
  if (name == "threads") {
    *out = BackendKind::kThreads;
  } else if (name == "tcp") {
    *out = BackendKind::kTcp;
  } else {
    return false;
  }
  return true;
}

namespace detail_backend {

void serialize_envelope(const detail::Envelope& env,
                        std::vector<std::byte>& out) {
  WireHeader h;
  h.flags = (env.rendezvous ? 1u : 0u) | (env.internal ? 2u : 0u);
  h.source = env.source;
  h.src_world = env.src_world;
  h.dest = env.dest;
  h.tag = env.tag;
  h.context = env.context;
  h.trace_seq = env.trace_seq;
  h.arrival_head = env.arrival_head;
  h.byte_time = env.byte_time;
  h.payload_bytes = env.payload.size();
  out.resize(sizeof(WireHeader) + env.payload.size());
  std::memcpy(out.data(), &h, sizeof(h));
  env.payload.copy_to(out.data() + sizeof(h));
}

void deserialize_envelope(std::span<const std::byte> frame,
                          detail::Envelope& env, detail::BufferPool& pool) {
  if (frame.size() < sizeof(WireHeader)) {
    throw MpiError("backend frame shorter than its wire header");
  }
  WireHeader h;
  std::memcpy(&h, frame.data(), sizeof(h));
  if (h.magic != WireHeader::kMagic) {
    throw MpiError("backend frame corrupted: bad magic");
  }
  if (frame.size() != sizeof(WireHeader) + h.payload_bytes) {
    throw MpiError("backend frame corrupted: size disagrees with header");
  }
  env.reset();
  env.source = h.source;
  env.src_world = h.src_world;
  env.dest = h.dest;
  env.tag = h.tag;
  env.context = h.context;
  env.rendezvous = (h.flags & 1u) != 0;
  env.internal = (h.flags & 2u) != 0;
  env.trace_seq = h.trace_seq;
  env.arrival_head = h.arrival_head;
  env.byte_time = h.byte_time;
  const std::span<const std::byte> body = frame.subspan(sizeof(WireHeader));
  if (body.empty()) {
    // empty payload
  } else if (body.size() <= detail::Payload::kMaxInline) {
    env.payload = detail::Payload::inline_copy(body);
  } else {
    env.payload = detail::Payload::owned(pool.acquire(body.size(), nullptr),
                                         body);
  }
}

namespace {

/// The default backend: ranks are threads in one address space, so frames
/// never need to exist — Runtime hands envelopes across by pointer and
/// skips this object entirely on the hot path.  The channel is still real
/// (an in-process FIFO echo per rank) so the seam contract can be
/// unit-tested against the same interface the remote backends fulfil.
class ThreadsBackend final : public Backend {
 public:
  [[nodiscard]] const char* name() const override { return "threads"; }
  [[nodiscard]] bool shares_address_space() const override { return true; }

  void connect(int nranks) override {
    channels_ = std::vector<Channel>(static_cast<std::size_t>(nranks));
  }

  void roundtrip(int rank, std::span<const std::byte> tx,
                 std::vector<std::byte>& rx) override {
    send(rank, tx);
    recv(rank, rx);
  }

  void finalize() override {}

 private:
  void send(int rank, std::span<const std::byte> frame) {
    Channel& ch = channels_[static_cast<std::size_t>(rank)];
    {
      std::lock_guard<std::mutex> lock(ch.mu);
      ch.frames.emplace_back(frame.begin(), frame.end());
    }
    ch.cv.notify_one();
  }

  void recv(int rank, std::vector<std::byte>& frame) {
    Channel& ch = channels_[static_cast<std::size_t>(rank)];
    std::unique_lock<std::mutex> lock(ch.mu);
    ch.cv.wait(lock, [&ch] { return !ch.frames.empty(); });
    frame = std::move(ch.frames.front());
    ch.frames.pop_front();
  }

  struct Channel {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<std::vector<std::byte>> frames;
  };
  std::vector<Channel> channels_;
};

}  // namespace

std::unique_ptr<Backend> make_threads_backend() {
  return std::make_unique<ThreadsBackend>();
}

std::unique_ptr<Backend> make_backend(const BackendOptions& opt) {
  switch (opt.kind) {
    case BackendKind::kThreads:
      return make_threads_backend();
    case BackendKind::kTcp:
      return make_tcp_backend(opt);
  }
  DIPDC_REQUIRE(false, "unknown backend kind");
  return nullptr;
}

}  // namespace detail_backend
}  // namespace dipdc::minimpi
