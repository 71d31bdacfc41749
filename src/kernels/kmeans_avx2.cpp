// AVX2 k-means kernels: assignment with 4 centroids in the 4 lanes (so
// every dim vectorizes, module 5's 2-D points included) and a branch-free
// argmin, and vectorized centroid updates.  Same canonical accumulation
// contract as the scalar path; see distance_avx2.cpp for TU conventions.
#include "kernels/kmeans.hpp"

#if defined(__AVX2__)

#include <algorithm>
#include <limits>
#include <vector>

#include "kernels/detail/avx2.hpp"
#include "kernels/detail/canonical.hpp"

namespace dipdc::kernels::detail {

namespace {

/// sum_row += pt, element-wise (order-free: bit-identical to scalar).
inline void add_into(double* sum_row, const double* pt, std::size_t dim) {
  std::size_t d = 0;
  for (; d + kLanes <= dim; d += kLanes) {
    _mm256_storeu_pd(sum_row + d,
                     _mm256_add_pd(_mm256_loadu_pd(sum_row + d),
                                   _mm256_loadu_pd(pt + d)));
  }
  for (; d < dim; ++d) sum_row[d] += pt[d];
}

/// Lowest-index minimum of a lane-wise running argmin: the smallest
/// distance over the lanes, and among the lanes holding it the smallest
/// centroid index — the scalar loop's first strict-'<' winner.
inline std::size_t lowest_argmin(__m256d best_d, __m256d best_i) {
  __m256d m = _mm256_min_pd(best_d, _mm256_permute2f128_pd(best_d, best_d, 1));
  m = _mm256_min_pd(m, _mm256_permute_pd(m, 0b0101));
  __m256d idx = _mm256_blendv_pd(
      _mm256_set1_pd(std::numeric_limits<double>::infinity()), best_i,
      _mm256_cmp_pd(best_d, m, _CMP_EQ_OQ));
  idx = _mm256_min_pd(idx, _mm256_permute2f128_pd(idx, idx, 1));
  idx = _mm256_min_pd(idx, _mm256_permute_pd(idx, 0b0101));
  return static_cast<std::size_t>(_mm256_cvtsd_f64(idx));
}

}  // namespace

void assign_points_avx2(const double* points, std::size_t n,
                        std::size_t dim, const double* centroids,
                        std::size_t k, std::size_t* assignment, double* sums,
                        double* counts) {
  // Centroids transposed into blocks of kLanes, dimension-major: lane q
  // of ct[(b * dim + d) * kLanes + q] is dimension d of centroid
  // b * kLanes + q.  Padding lanes of the last block hold NaN, so their
  // distance is NaN and never compares less — they cannot win.
  const std::size_t blocks = (k + kLanes - 1) / kLanes;
  std::vector<double> ct(blocks * dim * kLanes,
                         std::numeric_limits<double>::quiet_NaN());
  for (std::size_t c = 0; c < k; ++c) {
    for (std::size_t d = 0; d < dim; ++d) {
      ct[((c / kLanes) * dim + d) * kLanes + c % kLanes] =
          centroids[c * dim + d];
    }
  }
  // Split once, not per block: at dim < 4 the whole distance is the
  // tail, and a per-block `d < dim` loop doubled the 2-D pass time.
  const std::size_t tail = dim % kLanes;
  const std::size_t body = dim - tail;
  const __m256d inf = _mm256_set1_pd(std::numeric_limits<double>::infinity());
  const __m256d first_idx = _mm256_setr_pd(0.0, 1.0, 2.0, 3.0);
  const __m256d idx_step = _mm256_set1_pd(static_cast<double>(kLanes));
  for (std::size_t i = 0; i < n; ++i) {
    const double* pt = points + i * dim;
    // Per lane, the first strict-'<' minimum over centroids q, q+4, ...
    // visited in ascending order; all-+inf lanes keep index 0.
    __m256d best_d = inf;
    __m256d best_i = _mm256_setzero_pd();
    __m256d idx = first_idx;
    const double* cb = ct.data();
    for (std::size_t b = 0; b < blocks; ++b, cb += dim * kLanes) {
      // Lane = centroid, so each lane runs squared_distance_ref exactly:
      // l0..l3 over the blocked prefix, (l0+l2)+(l1+l3), sequential tail.
      __m256d l0 = _mm256_setzero_pd();
      __m256d l1 = _mm256_setzero_pd();
      __m256d l2 = _mm256_setzero_pd();
      __m256d l3 = _mm256_setzero_pd();
      for (std::size_t d = 0; d < body; d += kLanes) {
        const double* cd = cb + d * kLanes;
        l0 = accumulate_sq_diff(l0, _mm256_broadcast_sd(pt + d),
                                _mm256_loadu_pd(cd));
        l1 = accumulate_sq_diff(l1, _mm256_broadcast_sd(pt + d + 1),
                                _mm256_loadu_pd(cd + kLanes));
        l2 = accumulate_sq_diff(l2, _mm256_broadcast_sd(pt + d + 2),
                                _mm256_loadu_pd(cd + 2 * kLanes));
        l3 = accumulate_sq_diff(l3, _mm256_broadcast_sd(pt + d + 3),
                                _mm256_loadu_pd(cd + 3 * kLanes));
      }
      __m256d sq = _mm256_add_pd(_mm256_add_pd(l0, l2), _mm256_add_pd(l1, l3));
      for (std::size_t t = 0; t < tail; ++t) {
        sq = accumulate_sq_diff(sq, _mm256_broadcast_sd(pt + body + t),
                                _mm256_loadu_pd(cb + (body + t) * kLanes));
      }
      // Strict '<' over ascending blocks: ties keep the lower index.
      // vminpd(sq, best_d) is that select: a NaN sq keeps best_d.
      best_i = _mm256_blendv_pd(best_i, idx,
                                _mm256_cmp_pd(sq, best_d, _CMP_LT_OQ));
      best_d = _mm256_min_pd(sq, best_d);
      idx = _mm256_add_pd(idx, idx_step);
    }
    const std::size_t best = lowest_argmin(best_d, best_i);
    assignment[i] = best;
    if (sums != nullptr) {
      add_into(sums + best * dim, pt, dim);
      counts[best] += 1.0;
    }
  }
}

double update_centroids_avx2(double* centroids, const double* sums,
                             const double* counts, std::size_t k,
                             std::size_t dim) {
  double movement = 0.0;
  for (std::size_t c = 0; c < k; ++c) {
    if (counts[c] <= 0.0) continue;
    const __m256d cnt = _mm256_set1_pd(counts[c]);
    const double* sum_row = sums + c * dim;
    double* cent = centroids + c * dim;
    __m256d acc = _mm256_setzero_pd();
    std::size_t d = 0;
    for (; d + kLanes <= dim; d += kLanes) {
      const __m256d next = _mm256_div_pd(_mm256_loadu_pd(sum_row + d), cnt);
      acc = accumulate_sq_diff(acc, next, _mm256_loadu_pd(cent + d));
      _mm256_storeu_pd(cent + d, next);
    }
    double d2sum = reduce_lanes(acc);
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

}  // namespace dipdc::kernels::detail

#else  // !__AVX2__

#include <cstdlib>

namespace dipdc::kernels::detail {

void assign_points_avx2(const double*, std::size_t, std::size_t,
                        const double*, std::size_t, std::size_t*, double*,
                        double*) {
  std::abort();
}
double update_centroids_avx2(double*, const double*, const double*,
                             std::size_t, std::size_t) {
  std::abort();
}

}  // namespace dipdc::kernels::detail

#endif  // __AVX2__
