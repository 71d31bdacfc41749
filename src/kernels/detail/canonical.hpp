// The canonical floating-point accumulation scheme every kernel path —
// scalar, the AVX2 and AVX-512 tiers, and the cachesim-traced reference
// loops in the modules — must reproduce **bit-for-bit**.
//
// An AVX2 vector of doubles has 4 lanes, so the canonical order for any
// length-`dim` reduction is:
//
//   1. walk d in blocks of 4, keeping 4 independent lane accumulators
//      l0..l3 (lane j accumulates dimensions d ≡ j mod 4 of the blocked
//      prefix);
//   2. reduce the lanes as (l0 + l2) + (l1 + l3) — what the tiers' lane
//      shuffles compute (detail/distance_lanes.hpp's reduce4);
//   3. fold the `dim % 4` tail dimensions in sequentially.
//
// Each step is one IEEE multiply then one IEEE add (never a fused
// multiply-add: the kernel TUs are compiled with -ffp-contract=off).  A
// wider tier keeps this 4-lane order per (row, point) pair: it holds
// several pairs' l0..l3 side by side.  Two consequences:
//
//   * scalar and SIMD kernels return identical bits for every input, so
//     forcing `--kernel=scalar` can never change a checksum; and
//   * the result intentionally differs from a naive sequential
//     `for (d) acc += diff*diff` loop — the traced module-2 kernels call
//     these helpers instead of open-coding the loop so the traced and
//     fast paths agree too.
//
// These helpers are the *reference* implementation: header-inline,
// portable, and deliberately simple.  The dispatched kernels in
// kernels/*.cpp are the fast versions that must match them.
#pragma once

#include <cstddef>

namespace dipdc::kernels::detail {

/// Number of double lanes in the vector ISA the contract is built around.
inline constexpr std::size_t kLanes = 4;

/// Canonical squared Euclidean distance ‖a − b‖² over `dim` dimensions.
inline double squared_distance_ref(const double* a, const double* b,
                                   std::size_t dim) {
  double l0 = 0.0, l1 = 0.0, l2 = 0.0, l3 = 0.0;
  std::size_t d = 0;
  for (; d + kLanes <= dim; d += kLanes) {
    const double d0 = a[d] - b[d];
    const double d1 = a[d + 1] - b[d + 1];
    const double d2 = a[d + 2] - b[d + 2];
    const double d3 = a[d + 3] - b[d + 3];
    l0 += d0 * d0;
    l1 += d1 * d1;
    l2 += d2 * d2;
    l3 += d3 * d3;
  }
  double acc = (l0 + l2) + (l1 + l3);
  for (; d < dim; ++d) {
    const double diff = a[d] - b[d];
    acc += diff * diff;
  }
  return acc;
}

/// Canonical histogram bin of `v`: offset into [0, bins) clamped at both
/// ends, truncated toward zero (as the tiers' vector conversion is).
inline std::size_t histogram_bin_ref(double v, double lo, double bin_width,
                                     std::size_t bins) {
  double offset = (v - lo) / bin_width;
  const double top = static_cast<double>(bins - 1);
  if (!(offset > 0.0)) offset = 0.0;  // also catches NaN
  if (offset > top) offset = top;
  return static_cast<std::size_t>(static_cast<int>(offset));
}

/// Canonical bucket of `v` under ascending `splitters`: the number of
/// splitters <= v (i.e. std::upper_bound's index), evaluated as a linear
/// scan so the SIMD compare-and-count path is the same computation.
inline std::size_t bucket_of_ref(double v, const double* splitters,
                                 std::size_t nsplit) {
  std::size_t bucket = 0;
  for (std::size_t s = 0; s < nsplit; ++s) {
    if (splitters[s] <= v) ++bucket;
  }
  return bucket;
}

}  // namespace dipdc::kernels::detail
