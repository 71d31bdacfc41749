// Scalar implementations + ISA dispatch for the distance kernels.  This
// TU is compiled with -ffp-contract=off: the canonical mul-then-add
// sequence must not be fused into FMAs the SIMD paths don't perform.
#include "kernels/distance.hpp"

#include <algorithm>
#include <cmath>

#include "kernels/detail/canonical.hpp"

namespace dipdc::kernels {

namespace {

void distance_row_scalar(const double* a, const double* pts, std::size_t dim,
                         std::size_t j_begin, std::size_t j_end,
                         double* out_row) {
  for (std::size_t j = j_begin; j < j_end; ++j) {
    out_row[j] = std::sqrt(
        detail::squared_distance_ref(a, pts + j * dim, dim));
  }
}

void distance_rows_scalar(const double* all, std::size_t dim, std::size_t n,
                          std::size_t row_begin, std::size_t row_end,
                          std::size_t tile, double* out) {
  // Same j-tile traversal as the SIMD path; each (i, j) cell is an
  // independent canonical reduction, so traversal order only affects
  // locality, never the bits.
  const std::size_t rows = row_end - row_begin;
  const std::size_t step = tile == 0 ? (n == 0 ? 1 : n) : tile;
  for (std::size_t jt = 0; jt < n; jt += step) {
    const std::size_t jt_end = std::min(n, jt + step);
    for (std::size_t i = 0; i < rows; ++i) {
      distance_row_scalar(all + (row_begin + i) * dim, all, dim, jt, jt_end,
                          out + i * n);
    }
  }
}

}  // namespace

void distance_row(Isa isa, const double* a, const double* pts,
                  std::size_t dim, std::size_t j_begin, std::size_t j_end,
                  double* out_row) {
  if (isa == Isa::kSimd) {
    detail::distance_row_avx2(a, pts, dim, j_begin, j_end, out_row);
  } else {
    distance_row_scalar(a, pts, dim, j_begin, j_end, out_row);
  }
}

void distance_rows(Isa isa, const double* all, std::size_t dim,
                   std::size_t n, std::size_t row_begin, std::size_t row_end,
                   std::size_t tile, double* out) {
  if (isa == Isa::kSimd) {
    if (avx512_supported()) {
      detail::distance_rows_avx512(all, dim, n, row_begin, row_end, tile,
                                   out);
    } else {
      detail::distance_rows_avx2(all, dim, n, row_begin, row_end, tile,
                                 out);
    }
  } else {
    distance_rows_scalar(all, dim, n, row_begin, row_end, tile, out);
  }
}

double squared_distance(Isa isa, const double* a, const double* b,
                        std::size_t dim) {
  if (isa == Isa::kSimd) return detail::squared_distance_avx2(a, b, dim);
  return detail::squared_distance_ref(a, b, dim);
}

}  // namespace dipdc::kernels
