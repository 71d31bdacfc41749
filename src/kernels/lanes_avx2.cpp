// The AVX2 tier: the lane bodies of detail/distance_lanes.hpp and
// detail/scan_lanes.hpp at W = 4, built with -mavx2 -ffp-contract=off
// -fno-math-errno when the toolchain targets x86-64.  Otherwise the stubs
// at the bottom keep the link whole (dispatch never selects them:
// simd_supported() is false without DIPDC_KERNELS_HAVE_AVX2).
#include "kernels/distance.hpp"
#include "kernels/filter.hpp"
#include "kernels/sort.hpp"

#if defined(__AVX2__)

#include "kernels/detail/distance_lanes.hpp"
#include "kernels/detail/scan_lanes.hpp"

namespace dipdc::kernels::detail {

void distance_row_avx2(const double* a, const double* pts, std::size_t dim,
                       std::size_t j_begin, std::size_t j_end,
                       double* out_row) {
  distance_row_lanes<4>(a, pts, dim, j_begin, j_end, out_row);
}

void distance_rows_avx2(const double* all, std::size_t dim, std::size_t n,
                        std::size_t row_begin, std::size_t row_end,
                        std::size_t tile, double* out) {
  distance_rows_lanes<4>(all, dim, n, row_begin, row_end, tile, out);
}

double squared_distance_avx2(const double* a, const double* b,
                             std::size_t dim) {
  return squared_distance_lanes(a, b, dim);
}

void histogram_avx2(const double* values, std::size_t n, double lo,
                    double bin_width, std::size_t bins, std::uint64_t* hist) {
  histogram_lanes<4>(values, n, lo, bin_width, bins, hist);
}

void bucket_indices_avx2(const double* values, std::size_t n,
                         const double* splitters, std::size_t nsplit,
                         std::uint32_t* out) {
  bucket_indices_lanes<4>(values, n, splitters, nsplit, out);
}

std::uint64_t count_in_rect_avx2(const double* xs, const double* ys,
                                 std::size_t n, double xmin, double ymin,
                                 double xmax, double ymax) {
  return count_in_rect_lanes<4>(xs, ys, n, xmin, ymin, xmax, ymax);
}

}  // namespace dipdc::kernels::detail

#else  // !__AVX2__ — never-dispatched stubs so the library always links.

#include <cstdlib>

namespace dipdc::kernels::detail {

void distance_row_avx2(const double*, const double*, std::size_t,
                       std::size_t, std::size_t, double*) {
  std::abort();
}
void distance_rows_avx2(const double*, std::size_t, std::size_t,
                        std::size_t, std::size_t, std::size_t, double*) {
  std::abort();
}
double squared_distance_avx2(const double*, const double*, std::size_t) {
  std::abort();
}
void histogram_avx2(const double*, std::size_t, double, double, std::size_t,
                    std::uint64_t*) {
  std::abort();
}
void bucket_indices_avx2(const double*, std::size_t, const double*,
                         std::size_t, std::uint32_t*) {
  std::abort();
}
std::uint64_t count_in_rect_avx2(const double*, const double*, std::size_t,
                                 double, double, double, double) {
  std::abort();
}

}  // namespace dipdc::kernels::detail

#endif  // __AVX2__
