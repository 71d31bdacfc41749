// The three-stage out-of-core rotation shared by the streamed module
// pipelines (modules 2 and 3).
//
// The dataset lives in a chunk file (dataio/chunk.hpp) that only rank 0
// opens.  chunk_sweep() moves it past every rank, chunk by chunk, with
// the stages overlapped:
//
//   read       rank 0's ChunkReader::next() hands over chunk k while its
//              background thread is already reading k+1 from disk;
//   communicate chunk k+1 is broadcast with minimpi's nonblocking ibcast,
//              issued *before* the chunk-k consume runs;
//   compute    consume(k, values) runs while the k+1 transfer is in
//              flight; the wait afterwards usually finds it complete.
//
// With overlap=false the same chunks move through the same collectives,
// but each broadcast is waited before the consume and the root reads
// without read-ahead — the baseline the benches and the `--no-overlap`
// CLI flag compare against.  The consumed values are identical either
// way; only the timing differs.
//
// Determinism: the steady loop performs exactly one collective (ibcast)
// per chunk, so a non-root rank has at most one outstanding posted
// receive at any time and no other receive-side traffic in the window.
// Its completion time is then schedule-independent, which keeps simulated
// clocks — not just results — bit-identical across backends.
#pragma once

#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "dataio/chunk.hpp"
#include "minimpi/comm.hpp"
#include "support/error.hpp"

namespace dipdc::modules::streaming {

/// Broadcast-shape handshake: rank 0 reads the chunk-file header, every
/// rank returns the same geometry.  `reader` is non-null on rank 0 only.
inline dataio::ChunkFileInfo bcast_geometry(minimpi::Comm& comm,
                                            const dataio::ChunkReader* reader) {
  std::size_t shape[3] = {0, 0, 0};
  if (comm.rank() == 0) {
    DIPDC_REQUIRE(reader != nullptr, "rank 0 must open the chunk file");
    shape[0] = reader->dim();
    shape[1] = reader->total_rows();
    shape[2] = reader->info().chunk_rows;
  }
  comm.bcast(std::span<std::size_t>(shape, 3), 0);
  return {shape[0], shape[1], shape[2]};
}

/// Rank 0's read of chunk `k` into `buf`, as the "stream_read" phase.
/// With `overlap` the chunks must be read in order: the reader's prefetch
/// thread has been reading chunk k since the previous handover.  Without
/// it the read is synchronous, with no read-ahead.
inline void read_chunk(minimpi::Comm& comm, dataio::ChunkReader& reader,
                       std::size_t k, bool overlap, std::vector<double>& buf) {
  comm.phase_begin("stream_read");
  if (overlap) {
    const std::size_t got = reader.next(buf);
    DIPDC_REQUIRE(got == k, "chunk stream out of order");
  } else {
    reader.read_chunk(k, buf);
  }
  comm.phase_end();
}

/// Runs `consume(k, values)` on every rank for each chunk k in order,
/// with the chunks flowing root -> everyone through the rotation above.
/// `reader` is rank 0's open reader (nullptr elsewhere); `geo` must be
/// the bcast_geometry() result.  consume() may keep no reference into
/// `values` — the buffer is recycled for chunk k+2.
inline void chunk_sweep(
    minimpi::Comm& comm, dataio::ChunkReader* reader,
    const dataio::ChunkFileInfo& geo, bool overlap,
    const std::function<void(std::size_t, std::span<const double>)>&
        consume) {
  const std::size_t nchunks = geo.num_chunks();
  if (nchunks == 0) return;
  const bool root = comm.rank() == 0;

  std::vector<double> front;  // chunk being consumed
  std::vector<double> next;   // chunk in flight

  // Prologue: chunk 0 has nothing to hide behind.
  front.resize(geo.rows_in_chunk(0) * geo.dim);
  if (root) read_chunk(comm, *reader, 0, overlap, front);
  comm.phase_begin("stream_comm");
  minimpi::Request req = comm.ibcast(std::span<double>(front), 0);
  comm.wait(req);
  comm.phase_end();

  for (std::size_t k = 0; k < nchunks; ++k) {
    const bool more = k + 1 < nchunks;
    if (more) {
      // Issue the k+1 broadcast before computing on k.  The root's send
      // stages a copy (its buffer is free again at issue); a non-root's
      // posted receive fills `next` while consume() runs.
      next.resize(geo.rows_in_chunk(k + 1) * geo.dim);
      if (root) read_chunk(comm, *reader, k + 1, overlap, next);
      comm.phase_begin("stream_comm");
      req = comm.ibcast(std::span<double>(next), 0);
      if (!overlap) comm.wait(req);
      comm.phase_end();
    }
    comm.phase_begin("stream_compute");
    consume(k, std::span<const double>(front));
    comm.phase_end();
    if (more) {
      if (overlap) {
        comm.phase_begin("stream_comm");
        comm.wait(req);
        comm.phase_end();
      }
      std::swap(front, next);
    }
  }
}

}  // namespace dipdc::modules::streaming
