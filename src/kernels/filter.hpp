// Dispatched point-in-rect filter kernel for module 4's serving-mode
// shard scan: each call counts one run of grid cells a window overlaps
// (modules/rangequery/serving.hpp, detail::ShardCells), while the
// simulated clock charges a brute-force scan of the whole shard.  The
// points live as two parallel coordinate arrays (structure-of-arrays:
// one contiguous stream of x, one of y), so the AVX2 path can compare
// four points per instruction without a gather.  The result is an
// integer match count, so bit-identity between the paths means "the same
// count" — guaranteed because both perform the identical IEEE
// comparisons: the closed-rectangle test
//   x >= xmin && x <= xmax && y >= ymin && y <= ymax
// with ordered (NaN-rejecting) semantics, matching spatial::
// Rect::contains exactly, including boundary points and NaN coordinates.
#pragma once

#include <cstddef>
#include <cstdint>

#include "kernels/dispatch.hpp"

namespace dipdc::kernels {

/// Number of points (xs[i], ys[i]) inside the closed rectangle
/// [xmin, xmax] x [ymin, ymax].  An invalid window (min > max, or any
/// NaN bound) matches nothing; NaN coordinates never match.
std::uint64_t count_in_rect(Isa isa, const double* xs, const double* ys,
                            std::size_t n, double xmin, double ymin,
                            double xmax, double ymax);

namespace detail {

/// Scalar reference for one point (shared by the scalar path, the AVX2
/// tail, and the tests' oracle).
inline bool in_rect_ref(double x, double y, double xmin, double ymin,
                        double xmax, double ymax) {
  return x >= xmin && x <= xmax && y >= ymin && y <= ymax;
}

std::uint64_t count_in_rect_avx2(const double* xs, const double* ys,
                                 std::size_t n, double xmin, double ymin,
                                 double xmax, double ymax);

}  // namespace detail

}  // namespace dipdc::kernels
