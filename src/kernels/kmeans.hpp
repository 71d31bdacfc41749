// Dispatched k-means kernels (module 5's hot loops).
//
// The assignment phase — k squared-distance evaluations per point — is
// the compute-bound side of the module's compute/communication
// trade-off.  It has two SIMD tiers under `Isa::kSimd`:
//   * AVX-512 (where avx512_supported()): points in the lanes.  Each of a
//     zmm's 8 lanes is one point running the scalar loop — canonical
//     distance, strict '<' over ascending centroids — with a vector
//     select, so no lane ever looks at another and no horizontal
//     reduction is needed (detail/assign_lanes.hpp, one body over a GCC
//     vector type; kmeans_avx512.cpp instantiates it at 8 lanes).
//   * AVX2: centroids in the lanes.  The centroids are transposed into
//     blocks of 4 so that every dim vectorizes, module 5's 2-D points
//     included, and the nearest centroid is found by a branch-free
//     per-lane running argmin plus one horizontal reduction.  The
//     points-in-lanes body at 4 lanes lost to it at 90-D and 8-D with
//     k = 16 (EXPERIMENTS.md), so this tier stays hand-written.
// Both fuse the per-cluster sum/count accumulation in point order.
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
void assign_points_avx512(const double* points, std::size_t n,
                          std::size_t dim, const double* centroids,
                          std::size_t k, std::size_t* assignment,
                          double* sums, double* counts);
double update_centroids_avx2(double* centroids, const double* sums,
                             const double* counts, std::size_t k,
                             std::size_t dim);
}  // namespace detail

}  // namespace dipdc::kernels
