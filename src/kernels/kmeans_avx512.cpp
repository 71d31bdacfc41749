// AVX-512 k-means assignment: detail/assign_lanes.hpp's points-in-lanes
// body at W = 8, a block of 32 points in four zmm argmin chains.  Built
// with the flags distance_avx512.cpp gets (-mavx512f -mavx512dq
// -ffp-contract=off) when the toolchain accepts them; otherwise the stub
// at the bottom keeps the link whole (dispatch never selects it:
// avx512_supported() is false without DIPDC_KERNELS_HAVE_AVX512).
#include "kernels/kmeans.hpp"

#if defined(__AVX512F__) && defined(__AVX512DQ__)

#include "kernels/detail/assign_lanes.hpp"

namespace dipdc::kernels::detail {

void assign_points_avx512(const double* points, std::size_t n,
                          std::size_t dim, const double* centroids,
                          std::size_t k, std::size_t* assignment,
                          double* sums, double* counts) {
  assign_points_lanes<8>(points, n, dim, centroids, k, assignment, sums,
                         counts);
}

}  // namespace dipdc::kernels::detail

#else  // no AVX-512 — a never-dispatched stub so the library always links.

#include <cstdlib>

namespace dipdc::kernels::detail {

void assign_points_avx512(const double*, std::size_t, std::size_t,
                          const double*, std::size_t, std::size_t*, double*,
                          double*) {
  std::abort();
}

}  // namespace dipdc::kernels::detail

#endif  // __AVX512F__ && __AVX512DQ__
