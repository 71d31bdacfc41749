// Shared backend-forcing boilerplate for tests that run the same module
// program across transport backends (threads / tcp) and compare the
// rank-0 results.  Used by module_determinism_test and
// container_faults_test; add new backend-matrix suites here instead of
// copying the helpers again.
#pragma once

#include <utility>
#include <vector>

#include "minimpi/backend.hpp"
#include "minimpi/runtime.hpp"

namespace dipdc::testing {

namespace mpi = dipdc::minimpi;

/// Backends to compare against the default (threads) run.
inline std::vector<mpi::BackendKind> other_backends() {
  return {mpi::BackendKind::kTcp};
}

/// Every backend, default first.
inline std::vector<mpi::BackendKind> all_backends() {
  return {mpi::BackendKind::kThreads, mpi::BackendKind::kTcp};
}

/// Options forcing one backend, everything else default.
inline mpi::RuntimeOptions forced(mpi::BackendKind kind) {
  mpi::RuntimeOptions opts;
  opts.backend.kind = kind;
  return opts;
}

/// Runs `fn(comm)` on `ranks` ranks under `opts` and returns the value it
/// produced on rank 0 — the capture-at-root pattern every backend-matrix
/// test used to hand-roll.
template <typename Fn>
auto run_forced(int ranks, const mpi::RuntimeOptions& opts, Fn&& fn) {
  using R = std::invoke_result_t<Fn&, mpi::Comm&>;
  R at_root{};
  mpi::run(
      ranks,
      [&](mpi::Comm& comm) {
        R r = fn(comm);
        if (comm.rank() == 0) at_root = std::move(r);
      },
      opts);
  return at_root;
}

}  // namespace dipdc::testing
