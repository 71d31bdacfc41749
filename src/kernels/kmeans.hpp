// Dispatched k-means kernels (module 5's hot loops).
//
// The assignment phase — k squared-distance evaluations per point — is
// the compute-bound side of the module's compute/communication
// trade-off.  The AVX2 path transposes the centroids into blocks of 4 so
// that each vector lane is one centroid: every dim vectorizes, module
// 5's 2-D points included, and the nearest centroid is found by a
// branch-free per-lane running argmin plus one horizontal reduction.
// Scalar and SIMD are bit-identical (detail/canonical.hpp), so the
// clustering, iteration count and inertia never depend on the ISA.
#pragma once

#include <cstddef>

#include "kernels/dispatch.hpp"

namespace dipdc::kernels {

/// Assigns each of the n dim-dimensional `points` to its nearest of the
/// k `centroids` (squared Euclidean metric, ties to the lowest index —
/// evaluated in ascending centroid order with a strict '<', exactly like
/// the classic scalar loop).  When `sums`/`counts` are non-null (k x dim
/// and k, both caller-zeroed), each point is also accumulated into its
/// cluster's running sum and count — the fused assign+accumulate pass of
/// a Lloyd iteration.
void assign_points(Isa isa, const double* points, std::size_t n,
                   std::size_t dim, const double* centroids, std::size_t k,
                   std::size_t* assignment, double* sums, double* counts);

/// Nearest-centroid index of a single point (same contract).
[[nodiscard]] std::size_t nearest_centroid(Isa isa, const double* point,
                                           const double* centroids,
                                           std::size_t k, std::size_t dim);

/// Moves `centroids` to sums/counts means (empty clusters stay put) and
/// returns the maximum squared centroid movement.
[[nodiscard]] double update_centroids(Isa isa, double* centroids,
                                      const double* sums,
                                      const double* counts, std::size_t k,
                                      std::size_t dim);

namespace detail {
void assign_points_avx2(const double* points, std::size_t n,
                        std::size_t dim, const double* centroids,
                        std::size_t k, std::size_t* assignment, double* sums,
                        double* counts);
double update_centroids_avx2(double* centroids, const double* sums,
                             const double* counts, std::size_t k,
                             std::size_t dim);
}  // namespace detail

}  // namespace dipdc::kernels
