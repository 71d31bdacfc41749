// The AVX-512 tier: the lane bodies of detail/distance_lanes.hpp,
// detail/scan_lanes.hpp, detail/assign_lanes.hpp and
// detail/quantize_lanes.hpp at W = 8, built with -mavx2 -mavx512f
// -mavx512dq -ffp-contract=off -fno-math-errno when the toolchain accepts
// them.  Otherwise the stubs at the bottom keep the link whole (dispatch
// never selects them: avx512_supported() is false without
// DIPDC_KERNELS_HAVE_AVX512).  distance_row, squared_distance and
// histogram have no W = 8 form: they lost their bench_kernels rows to
// W = 4 (EXPERIMENTS.md), so every SIMD host runs lanes_avx2.cpp's.
#include "kernels/distance.hpp"
#include "kernels/filter.hpp"
#include "kernels/kmeans.hpp"
#include "kernels/quantize.hpp"
#include "kernels/sort.hpp"

#if defined(__AVX512F__) && defined(__AVX512DQ__)

#include "kernels/detail/assign_lanes.hpp"
#include "kernels/detail/distance_lanes.hpp"
#include "kernels/detail/quantize_lanes.hpp"
#include "kernels/detail/scan_lanes.hpp"

namespace dipdc::kernels::detail {

void distance_rows_avx512(const double* all, std::size_t dim, std::size_t n,
                          std::size_t row_begin, std::size_t row_end,
                          std::size_t tile, double* out) {
  distance_rows_lanes<8>(all, dim, n, row_begin, row_end, tile, out);
}

void bucket_indices_avx512(const double* values, std::size_t n,
                           const double* splitters, std::size_t nsplit,
                           std::uint32_t* out) {
  bucket_indices_lanes<8>(values, n, splitters, nsplit, out);
}

std::uint64_t count_in_rect_avx512(const double* xs, const double* ys,
                                   std::size_t n, double xmin, double ymin,
                                   double xmax, double ymax) {
  return count_in_rect_lanes<8>(xs, ys, n, xmin, ymin, xmax, ymax);
}

void assign_points_avx512(const double* points, std::size_t n,
                          std::size_t dim, const double* centroids,
                          std::size_t k, std::size_t* assignment,
                          double* sums, double* counts) {
  assign_points_lanes<8>(points, n, dim, centroids, k, assignment, sums,
                         counts);
}

static_assert(kQuantizeBlock == 4 * 8, "a block is four zmm of weights");

std::size_t quantize_weights_avx512(const double* weights, std::size_t n,
                                    double scale, std::uint64_t* out,
                                    std::uint64_t* sum) {
  return quantize_weights_lanes<8>(weights, n, scale, out, sum);
}

}  // namespace dipdc::kernels::detail

#else  // no AVX-512 — never-dispatched stubs so the library always links.

#include <cstdlib>

namespace dipdc::kernels::detail {

void distance_rows_avx512(const double*, std::size_t, std::size_t,
                          std::size_t, std::size_t, std::size_t, double*) {
  std::abort();
}
void bucket_indices_avx512(const double*, std::size_t, const double*,
                           std::size_t, std::uint32_t*) {
  std::abort();
}
std::uint64_t count_in_rect_avx512(const double*, const double*, std::size_t,
                                   double, double, double, double) {
  std::abort();
}
void assign_points_avx512(const double*, std::size_t, std::size_t,
                          const double*, std::size_t, std::size_t*, double*,
                          double*) {
  std::abort();
}
std::size_t quantize_weights_avx512(const double*, std::size_t, double,
                                    std::uint64_t*, std::uint64_t*) {
  std::abort();
}

}  // namespace dipdc::kernels::detail

#endif  // __AVX512F__ && __AVX512DQ__
