// Wall-clock microbenchmarks of the minimpi collectives, via
// google-benchmark.  Every collective runs in two configurations:
//
//   * baseline — the pre-fast-path transport (no pooling, no zero-copy, no
//     inline storage) with every collective forced onto its classic
//     algorithm; this reproduces the seed implementation's behaviour.
//   * tuned — the defaults: pooled envelopes/buffers, zero-copy staging,
//     and kAuto algorithm selection (tree / recursive-doubling / ring).
//
// Simulated results are identical between the two (the determinism tests
// pin that); what differs is real time, which is what this binary measures.
// The `bench_json` target runs it with JSON output into
// BENCH_collectives.json at the repository root.
//
// A third axis measures the transport backends: bcast (latency) and
// allreduce (bandwidth) additionally run with ranks as TCP loopback peers.
// Simulated results stay bit-identical (minimpi_backend_test pins that);
// the rows quantify the real-time cost of true serialization + a kernel
// round trip per envelope versus the in-process threads mailboxes.
#include <benchmark/benchmark.h>

#include <cstddef>
#include <numeric>
#include <vector>

#include "minimpi/comm.hpp"
#include "minimpi/ops.hpp"
#include "minimpi/runtime.hpp"

namespace mpi = dipdc::minimpi;

namespace {

/// Collective invocations per rank per mpi::run, to amortize the thread
/// spawn/join cost of one world over several measured operations.
constexpr int kInner = 4;

mpi::RuntimeOptions baseline_options() {
  mpi::RuntimeOptions opts;
  opts.transport.pooling = false;
  opts.transport.zero_copy = false;
  opts.transport.inline_threshold = 0;
  opts.collectives.scatter = mpi::CollectiveAlgorithm::kClassic;
  opts.collectives.gather = mpi::CollectiveAlgorithm::kClassic;
  opts.collectives.allreduce = mpi::CollectiveAlgorithm::kClassic;
  opts.collectives.allgather = mpi::CollectiveAlgorithm::kClassic;
  return opts;
}

mpi::RuntimeOptions tuned_options() { return {}; }

mpi::RuntimeOptions backend_options(mpi::BackendKind kind) {
  mpi::RuntimeOptions opts;
  opts.backend.kind = kind;
  return opts;
}

void run_bcast(benchmark::State& state, const mpi::RuntimeOptions& opts) {
  const int p = static_cast<int>(state.range(0));
  const auto bytes = static_cast<std::size_t>(state.range(1));
  for (auto _ : state) {
    mpi::run(
        p,
        [bytes](mpi::Comm& comm) {
          std::vector<std::byte> buf(bytes, std::byte{1});
          for (int i = 0; i < kInner; ++i) {
            comm.bcast(std::span<std::byte>(buf), 0);
          }
          benchmark::DoNotOptimize(buf.data());
        },
        opts);
  }
  state.SetBytesProcessed(state.iterations() * kInner *
                          static_cast<std::int64_t>(bytes));
}

void run_scatterv(benchmark::State& state, const mpi::RuntimeOptions& opts) {
  const int p = static_cast<int>(state.range(0));
  const auto bytes = static_cast<std::size_t>(state.range(1));
  for (auto _ : state) {
    mpi::run(
        p,
        [p, bytes](mpi::Comm& comm) {
          const auto np = static_cast<std::size_t>(p);
          const std::size_t chunk = bytes / np;
          std::vector<std::size_t> counts(np, chunk);
          std::vector<std::size_t> displs(np);
          for (std::size_t r = 0; r < np; ++r) displs[r] = r * chunk;
          std::vector<std::byte> send;
          if (comm.rank() == 0) send.assign(chunk * np, std::byte{1});
          std::vector<std::byte> recv(chunk);
          for (int i = 0; i < kInner; ++i) {
            comm.scatterv(std::span<const std::byte>(send),
                          std::span<const std::size_t>(counts),
                          std::span<const std::size_t>(displs),
                          std::span<std::byte>(recv), 0);
          }
          benchmark::DoNotOptimize(recv.data());
        },
        opts);
  }
  state.SetBytesProcessed(state.iterations() * kInner *
                          static_cast<std::int64_t>(bytes));
}

void run_gatherv(benchmark::State& state, const mpi::RuntimeOptions& opts) {
  const int p = static_cast<int>(state.range(0));
  const auto bytes = static_cast<std::size_t>(state.range(1));
  for (auto _ : state) {
    mpi::run(
        p,
        [p, bytes](mpi::Comm& comm) {
          const auto np = static_cast<std::size_t>(p);
          const std::size_t chunk = bytes / np;
          std::vector<std::size_t> counts(np, chunk);
          std::vector<std::size_t> displs(np);
          for (std::size_t r = 0; r < np; ++r) displs[r] = r * chunk;
          std::vector<std::byte> send(chunk, std::byte{1});
          std::vector<std::byte> recv;
          if (comm.rank() == 0) recv.assign(chunk * np, std::byte{});
          for (int i = 0; i < kInner; ++i) {
            comm.gatherv(std::span<const std::byte>(send),
                         std::span<const std::size_t>(counts),
                         std::span<const std::size_t>(displs),
                         std::span<std::byte>(recv), 0);
          }
          benchmark::DoNotOptimize(recv.data());
        },
        opts);
  }
  state.SetBytesProcessed(state.iterations() * kInner *
                          static_cast<std::int64_t>(bytes));
}

void run_allreduce(benchmark::State& state, const mpi::RuntimeOptions& opts) {
  const int p = static_cast<int>(state.range(0));
  const auto bytes = static_cast<std::size_t>(state.range(1));
  for (auto _ : state) {
    mpi::run(
        p,
        [bytes](mpi::Comm& comm) {
          const std::size_t n = bytes / sizeof(double);
          std::vector<double> send(n, 1.0 + comm.rank());
          std::vector<double> recv(n);
          for (int i = 0; i < kInner; ++i) {
            comm.allreduce(std::span<const double>(send),
                           std::span<double>(recv), mpi::ops::Sum{});
          }
          benchmark::DoNotOptimize(recv.data());
        },
        opts);
  }
  state.SetBytesProcessed(state.iterations() * kInner *
                          static_cast<std::int64_t>(bytes));
}

void run_alltoallv(benchmark::State& state, const mpi::RuntimeOptions& opts) {
  const int p = static_cast<int>(state.range(0));
  const auto bytes = static_cast<std::size_t>(state.range(1));
  for (auto _ : state) {
    mpi::run(
        p,
        [p, bytes](mpi::Comm& comm) {
          const auto np = static_cast<std::size_t>(p);
          const std::size_t chunk = bytes / np;
          std::vector<std::size_t> counts(np, chunk);
          std::vector<std::size_t> displs(np);
          for (std::size_t r = 0; r < np; ++r) displs[r] = r * chunk;
          std::vector<std::byte> send(chunk * np, std::byte{1});
          std::vector<std::byte> recv(chunk * np);
          for (int i = 0; i < kInner; ++i) {
            comm.alltoallv(std::span<const std::byte>(send),
                           std::span<const std::size_t>(counts),
                           std::span<const std::size_t>(displs),
                           std::span<std::byte>(recv),
                           std::span<const std::size_t>(counts),
                           std::span<const std::size_t>(displs));
          }
          benchmark::DoNotOptimize(recv.data());
        },
        opts);
  }
  state.SetBytesProcessed(state.iterations() * kInner *
                          static_cast<std::int64_t>(bytes));
}

void BM_BcastBaseline(benchmark::State& s) { run_bcast(s, baseline_options()); }
void BM_BcastTuned(benchmark::State& s) { run_bcast(s, tuned_options()); }
void BM_ScattervBaseline(benchmark::State& s) {
  run_scatterv(s, baseline_options());
}
void BM_ScattervTuned(benchmark::State& s) { run_scatterv(s, tuned_options()); }
void BM_GathervBaseline(benchmark::State& s) {
  run_gatherv(s, baseline_options());
}
void BM_GathervTuned(benchmark::State& s) { run_gatherv(s, tuned_options()); }
void BM_AllreduceBaseline(benchmark::State& s) {
  run_allreduce(s, baseline_options());
}
void BM_AllreduceTuned(benchmark::State& s) {
  run_allreduce(s, tuned_options());
}
void BM_AlltoallvBaseline(benchmark::State& s) {
  run_alltoallv(s, baseline_options());
}
void BM_AlltoallvTuned(benchmark::State& s) {
  run_alltoallv(s, tuned_options());
}

// Per-backend rows.  BM_*Threads repeats the default configuration on the
// backend grid so both transports share directly comparable points
// (the full-grid threads sweep is the Tuned series above).
void BM_BcastThreads(benchmark::State& s) {
  run_bcast(s, backend_options(mpi::BackendKind::kThreads));
}
void BM_AllreduceThreads(benchmark::State& s) {
  run_allreduce(s, backend_options(mpi::BackendKind::kThreads));
}
void BM_BcastTcp(benchmark::State& s) {
  run_bcast(s, backend_options(mpi::BackendKind::kTcp));
}
void BM_AllreduceTcp(benchmark::State& s) {
  run_allreduce(s, backend_options(mpi::BackendKind::kTcp));
}

const std::vector<std::vector<std::int64_t>> kGrid = {
    {2, 4, 8, 16},                      // ranks
    {1 << 10, 64 << 10, 4 << 20},       // payload bytes
};

// Smaller grid for the tcp backend: every mpi::run pays a real socket
// setup, so the sweep stays focused on one latency point and one
// bandwidth point per rank count.
const std::vector<std::vector<std::int64_t>> kBackendGrid = {
    {4, 8},                             // ranks
    {1 << 10, 1 << 20},                 // payload bytes
};

}  // namespace

BENCHMARK(BM_BcastBaseline)->ArgsProduct(kGrid)->UseRealTime();
BENCHMARK(BM_BcastTuned)->ArgsProduct(kGrid)->UseRealTime();
BENCHMARK(BM_ScattervBaseline)->ArgsProduct(kGrid)->UseRealTime();
BENCHMARK(BM_ScattervTuned)->ArgsProduct(kGrid)->UseRealTime();
BENCHMARK(BM_GathervBaseline)->ArgsProduct(kGrid)->UseRealTime();
BENCHMARK(BM_GathervTuned)->ArgsProduct(kGrid)->UseRealTime();
BENCHMARK(BM_AllreduceBaseline)->ArgsProduct(kGrid)->UseRealTime();
BENCHMARK(BM_AllreduceTuned)->ArgsProduct(kGrid)->UseRealTime();
BENCHMARK(BM_AlltoallvBaseline)->ArgsProduct(kGrid)->UseRealTime();
BENCHMARK(BM_AlltoallvTuned)->ArgsProduct(kGrid)->UseRealTime();
BENCHMARK(BM_BcastThreads)->ArgsProduct(kBackendGrid)->UseRealTime();
BENCHMARK(BM_AllreduceThreads)->ArgsProduct(kBackendGrid)->UseRealTime();
BENCHMARK(BM_BcastTcp)->ArgsProduct(kBackendGrid)->UseRealTime();
BENCHMARK(BM_AllreduceTcp)->ArgsProduct(kBackendGrid)->UseRealTime();

BENCHMARK_MAIN();
