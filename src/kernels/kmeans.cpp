// Scalar implementations + ISA dispatch for the k-means kernels.
// Compiled with -ffp-contract=off (see distance.cpp).
#include "kernels/kmeans.hpp"

#include <algorithm>
#include <limits>

#include "kernels/detail/canonical.hpp"

namespace dipdc::kernels {

namespace {

std::size_t nearest_scalar(const double* point, const double* centroids,
                           std::size_t k, std::size_t dim) {
  std::size_t best = 0;
  double best_d = std::numeric_limits<double>::infinity();
  for (std::size_t c = 0; c < k; ++c) {
    const double d2 =
        detail::squared_distance_ref(point, centroids + c * dim, dim);
    if (d2 < best_d) {
      best_d = d2;
      best = c;
    }
  }
  return best;
}

void assign_scalar(const double* points, std::size_t n, std::size_t dim,
                   const double* centroids, std::size_t k,
                   std::size_t* assignment, double* sums, double* counts) {
  for (std::size_t i = 0; i < n; ++i) {
    const double* pt = points + i * dim;
    const std::size_t c = nearest_scalar(pt, centroids, k, dim);
    assignment[i] = c;
    if (sums != nullptr) {
      double* sum_row = sums + c * dim;
      for (std::size_t j = 0; j < dim; ++j) sum_row[j] += pt[j];
      counts[c] += 1.0;
    }
  }
}

double update_scalar(double* centroids, const double* sums,
                     const double* counts, std::size_t k, std::size_t dim) {
  double movement = 0.0;
  for (std::size_t c = 0; c < k; ++c) {
    if (counts[c] <= 0.0) continue;
    double l0 = 0.0, l1 = 0.0, l2 = 0.0, l3 = 0.0;
    const double* sum_row = sums + c * dim;
    double* cent = centroids + c * dim;
    std::size_t d = 0;
    for (; d + detail::kLanes <= dim; d += detail::kLanes) {
      const double n0 = sum_row[d] / counts[c];
      const double n1 = sum_row[d + 1] / counts[c];
      const double n2 = sum_row[d + 2] / counts[c];
      const double n3 = sum_row[d + 3] / counts[c];
      const double d0 = n0 - cent[d];
      const double d1 = n1 - cent[d + 1];
      const double d2 = n2 - cent[d + 2];
      const double d3 = n3 - cent[d + 3];
      l0 += d0 * d0;
      l1 += d1 * d1;
      l2 += d2 * d2;
      l3 += d3 * d3;
      cent[d] = n0;
      cent[d + 1] = n1;
      cent[d + 2] = n2;
      cent[d + 3] = n3;
    }
    double d2sum = (l0 + l2) + (l1 + l3);
    for (; d < dim; ++d) {
      const double next = sum_row[d] / counts[c];
      const double diff = next - cent[d];
      d2sum += diff * diff;
      cent[d] = next;
    }
    movement = std::max(movement, d2sum);
  }
  return movement;
}

}  // namespace

void assign_points(Isa isa, const double* points, std::size_t n,
                   std::size_t dim, const double* centroids, std::size_t k,
                   std::size_t* assignment, double* sums, double* counts) {
  if (isa == Isa::kSimd) {
    if (avx512_supported()) {
      detail::assign_points_avx512(points, n, dim, centroids, k, assignment,
                                   sums, counts);
    } else {
      detail::assign_points_avx2(points, n, dim, centroids, k, assignment,
                                 sums, counts);
    }
  } else {
    assign_scalar(points, n, dim, centroids, k, assignment, sums, counts);
  }
}

std::size_t nearest_centroid(Isa isa, const double* point,
                             const double* centroids, std::size_t k,
                             std::size_t dim) {
  std::size_t out = 0;
  assign_points(isa, point, 1, dim, centroids, k, &out, nullptr, nullptr);
  return out;
}

double update_centroids(Isa isa, double* centroids, const double* sums,
                        const double* counts, std::size_t k,
                        std::size_t dim) {
  if (isa == Isa::kSimd) {
    return detail::update_centroids_avx2(centroids, sums, counts, k, dim);
  }
  return update_scalar(centroids, sums, counts, k, dim);
}

}  // namespace dipdc::kernels
