// The transport-backend seam beneath the minimpi runtime.
//
// Everything that defines minimpi's semantics — envelope pools,
// eager/rendezvous matching, reliable delivery, deadlock detection, and
// the obs sequence plumbing — lives ABOVE this seam, in Runtime/Comm.  A
// Backend only moves opaque byte frames: the sender serializes an
// envelope, pushes the frame into its per-rank channel, and receives the
// frame back after it has genuinely crossed the backend's transport
// (in-process queue, shared-memory rings serviced by a forked router
// process, or the rank's own loopback TCP connection).  The frame that
// comes back is deserialized into a fresh pooled envelope and delivered
// through the ordinary mailbox path.
//
// Because the same rank thread performs delivery at the same program
// point on every backend, and the simulated-timing fields travel inside
// the frame, simulated results are bit-identical across backends — the
// cross-backend conformance oracle in src/fuzz checks exactly that.
//
// Channel contract (what Runtime relies on):
//  * channel `r` belongs to world rank `r`; only that rank's thread calls
//    roundtrip(r, ...), so a channel never holds more than one frame;
//  * roundtrip() returns the frame's bytes unchanged, whatever its size,
//    and fails loudly (MpiError) instead of hanging forever if the
//    transport dies.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "minimpi/detail.hpp"
#include "minimpi/options.hpp"

namespace dipdc::minimpi {

/// Canonical CLI name of a backend kind ("threads" / "shm" / "tcp").
[[nodiscard]] const char* to_string(BackendKind kind);

/// Parses a CLI spelling into a BackendKind; false when unrecognised.
[[nodiscard]] bool parse_backend_kind(std::string_view name,
                                      BackendKind* out);

namespace detail_backend {

class Backend {
 public:
  virtual ~Backend() = default;

  [[nodiscard]] virtual const char* name() const = 0;

  /// True when frames never leave the sender's address space, so the
  /// runtime may skip serialization entirely and zero-copy payload
  /// handoff (borrowed/shared buffers) is safe.
  [[nodiscard]] virtual bool shares_address_space() const = 0;

  /// Establishes the per-rank channels (rings and router, or sockets).
  /// Called exactly once, before any rank thread exists — the shm backend
  /// forks its router here, while the process is still single-threaded.
  virtual void connect(int nranks) = 0;

  /// Sends `tx` through world rank `rank`'s channel and blocks until its
  /// echo has come back into `rx` (resized to fit).  Only that rank's own
  /// thread calls it for `rank`.
  virtual void roundtrip(int rank, std::span<const std::byte> tx,
                         std::vector<std::byte>& rx) = 0;

  /// Tears the transport down (stops the router, releases rings and
  /// sockets).  Idempotent; also invoked by the destructor.
  virtual void finalize() = 0;
};

/// Wire header of one serialized envelope.  All simulated-timing fields
/// are carried bit-exactly so delivery on the far side of the seam
/// reconstructs the identical simulation event.
struct WireHeader {
  static constexpr std::uint32_t kMagic = 0x44495057;  // "DIPW"

  std::uint32_t magic = kMagic;
  std::uint32_t flags = 0;  // bit 0: rendezvous, bit 1: internal
  std::int32_t source = 0;
  std::int32_t src_world = 0;
  std::int32_t dest = 0;
  std::int32_t tag = 0;
  std::int32_t context = 0;
  std::uint32_t reserved = 0;  // explicit padding, always zero on the wire
  std::uint64_t trace_seq = 0;
  double arrival_head = 0.0;
  double byte_time = 0.0;
  std::uint64_t payload_bytes = 0;
};
static_assert(sizeof(WireHeader) == 64, "wire header layout drifted");

/// Serializes `env` (header + payload bytes) into `out`.  The payload is
/// flattened whatever its storage class; callers must never pass a
/// borrowed payload across the seam (Runtime::transport_envelope guards).
void serialize_envelope(const detail::Envelope& env,
                        std::vector<std::byte>& out);

/// Rebuilds `env` from a serialized frame.  The payload lands in the
/// envelope's inline storage or a fresh pooled buffer — never a pointer
/// into the frame — so the envelope owns its bytes on this side of the
/// seam.  Throws MpiError on a malformed frame.
void deserialize_envelope(std::span<const std::byte> frame,
                          detail::Envelope& env, detail::BufferPool& pool);

/// Builds the backend selected by `opt.kind` (not yet connected).
[[nodiscard]] std::unique_ptr<Backend> make_backend(
    const BackendOptions& opt);

/// The two multi-process/-socket backends, exposed for make_backend and
/// direct unit tests (backend.cpp, backend_shm.cpp, backend_tcp.cpp).
[[nodiscard]] std::unique_ptr<Backend> make_threads_backend();
[[nodiscard]] std::unique_ptr<Backend> make_shm_backend(
    const BackendOptions& opt);
[[nodiscard]] std::unique_ptr<Backend> make_tcp_backend(
    const BackendOptions& opt);

}  // namespace detail_backend
}  // namespace dipdc::minimpi
