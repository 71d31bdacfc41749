// Dispatched distance-matrix kernels (module 2's hot loop).
//
// All entry points take the ISA resolved once per run (kernels::resolve)
// and write Euclidean distances; scalar and SIMD produce identical bits
// (see detail/canonical.hpp for the accumulation contract).  These are
// the *untraced* fast paths — the cachesim-traced loop nests stay as
// templates in modules/distmatrix/module2.hpp, built on the same
// canonical reference helpers, so tracing never perturbs the numbers.
#pragma once

#include <cstddef>

#include "kernels/dispatch.hpp"

namespace dipdc::kernels {

/// Distances of one query point `a` against points [j_begin, j_end) of
/// the n x dim array `pts`; out_row[j] = ‖a − pts_j‖ for each computed j
/// (cells outside the range are untouched).  The SIMD path blocks 4
/// partner points per pass over the 90-dim inner product, in ymm
/// registers on every SIMD host: a lone row fills only half a zmm.
void distance_row(Isa isa, const double* a, const double* pts,
                  std::size_t dim, std::size_t j_begin, std::size_t j_end,
                  double* out_row);

/// The module-2 block kernel: rows [row_begin, row_end) of the n x dim
/// dataset `all` against every point, into `out` of shape
/// (row_end - row_begin) x n.  `tile` = 0 runs the row-wise sweep;
/// otherwise partner points are visited in j-tiles of `tile` points
/// (the cache-blocked variant).  The SIMD path runs a register-blocked
/// micro-kernel inside each tile: 8 rows x 4 points in zmm registers on
/// an AVX-512 host (avx512_supported()), 4 rows x 4 points in ymm
/// registers on an AVX2-only one (detail/distance_lanes.hpp).
void distance_rows(Isa isa, const double* all, std::size_t dim,
                   std::size_t n, std::size_t row_begin, std::size_t row_end,
                   std::size_t tile, double* out);

/// Canonical ‖a − b‖² through the dispatcher (k-means++ seeding, inertia).
[[nodiscard]] double squared_distance(Isa isa, const double* a,
                                      const double* b, std::size_t dim);

namespace detail {
void distance_row_avx2(const double* a, const double* pts, std::size_t dim,
                       std::size_t j_begin, std::size_t j_end,
                       double* out_row);
void distance_rows_avx2(const double* all, std::size_t dim, std::size_t n,
                        std::size_t row_begin, std::size_t row_end,
                        std::size_t tile, double* out);
void distance_rows_avx512(const double* all, std::size_t dim, std::size_t n,
                          std::size_t row_begin, std::size_t row_end,
                          std::size_t tile, double* out);
double squared_distance_avx2(const double* a, const double* b,
                             std::size_t dim);
}  // namespace detail

}  // namespace dipdc::kernels
