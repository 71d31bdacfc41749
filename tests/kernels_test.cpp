// src/kernels contract tests.
//
// The load-bearing property is *bit-equality*: the scalar fallback, the
// SIMD tiers and the canonical reference helpers must produce identical
// bits for every shape — dimensions that are not a multiple of the lane
// width, tiles larger than n, k = 1, empty row ranges — because the
// modules' determinism guarantees (checksums, iteration counts, traces)
// ride on it.  SIMD cases are skipped on hosts without AVX2, and the
// AVX-512 tier's on hosts without avx512f + avx512dq; the scalar vs.
// reference checks always run.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "kernels/detail/canonical.hpp"
#include "kernels/dispatch.hpp"
#include "kernels/distance.hpp"
#include "kernels/filter.hpp"
#include "kernels/kmeans.hpp"
#include "kernels/sort.hpp"
#include "support/rng.hpp"

namespace ker = dipdc::kernels;
using dipdc::support::Xoshiro256;

namespace {

std::vector<double> random_values(std::size_t count, std::uint64_t seed,
                                  double lo = -3.0, double hi = 3.0) {
  Xoshiro256 rng(seed);
  std::vector<double> v(count);
  for (auto& x : v) x = rng.uniform(lo, hi);
  return v;
}

bool simd_available() { return ker::simd_supported(); }

}  // namespace

// ---------------------------------------------------------------------------
// Dispatch.

TEST(KernelsDispatch, ParsePolicy) {
  EXPECT_EQ(ker::parse_policy("auto"), ker::Policy::kAuto);
  EXPECT_EQ(ker::parse_policy("scalar"), ker::Policy::kScalar);
  EXPECT_EQ(ker::parse_policy("simd"), ker::Policy::kSimd);
  EXPECT_THROW((void)ker::parse_policy("avx512"), std::exception);
  EXPECT_THROW((void)ker::parse_policy(""), std::exception);
}

TEST(KernelsDispatch, ResolveHonoursExplicitPolicy) {
  EXPECT_EQ(ker::resolve(ker::Policy::kScalar), ker::Isa::kScalar);
  if (simd_available()) {
    EXPECT_EQ(ker::resolve(ker::Policy::kSimd), ker::Isa::kSimd);
  } else {
    // Explicitly forcing an unavailable ISA is a loud error, not a
    // silent fallback.
    EXPECT_THROW((void)ker::resolve(ker::Policy::kSimd), std::exception);
  }
}

TEST(KernelsDispatch, Names) {
  EXPECT_STREQ(ker::isa_name(ker::Isa::kScalar), "scalar");
  EXPECT_STREQ(ker::isa_name(ker::Isa::kSimd), "simd");
  EXPECT_STREQ(ker::policy_name(ker::Policy::kAuto), "auto");
}

// ---------------------------------------------------------------------------
// Distance kernels.

TEST(KernelsDistance, SquaredDistanceMatchesReference) {
  // Dimensions straddling the lane width: tails of every length.
  for (const std::size_t dim : {std::size_t{1}, std::size_t{2},
                                std::size_t{3}, std::size_t{4},
                                std::size_t{5}, std::size_t{7},
                                std::size_t{8}, std::size_t{90},
                                std::size_t{91}}) {
    const auto a = random_values(dim, 100 + dim);
    const auto b = random_values(dim, 200 + dim);
    const double ref =
        ker::detail::squared_distance_ref(a.data(), b.data(), dim);
    EXPECT_EQ(ker::squared_distance(ker::Isa::kScalar, a.data(), b.data(),
                                    dim),
              ref)
        << "dim " << dim;
    if (simd_available()) {
      EXPECT_EQ(ker::squared_distance(ker::Isa::kSimd, a.data(), b.data(),
                                      dim),
                ref)
          << "dim " << dim;
    }
  }
}

TEST(KernelsDistance, DistanceRowsScalarSimdBitEqualOverRandomShapes) {
  if (!simd_available()) GTEST_SKIP() << "no AVX2 on this host";
  Xoshiro256 rng(42);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t n = 1 + rng.uniform_index(60);
    const std::size_t dim = 1 + rng.uniform_index(100);
    const std::size_t row_begin = rng.uniform_index(n + 1);
    const std::size_t row_end =
        row_begin + rng.uniform_index(n - row_begin + 1);
    // tile = 0 (row-wise), tile > n, and interior tiles all occur.
    const std::size_t tile = rng.uniform_index(n + 8);
    const auto all = random_values(n * dim, 1000 + static_cast<std::uint64_t>(trial));
    const std::size_t rows = row_end - row_begin;

    std::vector<double> out_scalar(rows * n, -1.0);
    std::vector<double> out_simd(rows * n, -2.0);
    ker::distance_rows(ker::Isa::kScalar, all.data(), dim, n, row_begin,
                       row_end, tile, out_scalar.data());
    ker::distance_rows(ker::Isa::kSimd, all.data(), dim, n, row_begin,
                       row_end, tile, out_simd.data());
    for (std::size_t i = 0; i < out_scalar.size(); ++i) {
      ASSERT_EQ(out_scalar[i], out_simd[i])
          << "trial " << trial << " n=" << n << " dim=" << dim
          << " rows=[" << row_begin << "," << row_end << ") tile=" << tile
          << " cell " << i;
    }
  }
}

TEST(KernelsDistance, DistanceRowSubrangesBitEqual) {
  if (!simd_available()) GTEST_SKIP() << "no AVX2 on this host";
  const std::size_t n = 37;
  const std::size_t dim = 13;
  const auto all = random_values(n * dim, 7);
  const auto a = random_values(dim, 8);
  Xoshiro256 rng(9);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t j_begin = rng.uniform_index(n + 1);
    const std::size_t j_end = j_begin + rng.uniform_index(n - j_begin + 1);
    std::vector<double> row_scalar(n, -1.0);
    std::vector<double> row_simd(n, -1.0);
    ker::distance_row(ker::Isa::kScalar, a.data(), all.data(), dim, j_begin,
                      j_end, row_scalar.data());
    ker::distance_row(ker::Isa::kSimd, a.data(), all.data(), dim, j_begin,
                      j_end, row_simd.data());
    EXPECT_EQ(row_scalar, row_simd)
        << "range [" << j_begin << "," << j_end << ")";
  }
  // Inverted range (module 2's symmetric path issues these for rows
  // below the current tile): a no-op, no cell may be touched.
  std::vector<double> row_scalar(n, -7.0), row_simd(n, -7.0);
  ker::distance_row(ker::Isa::kScalar, a.data(), all.data(), dim, 20, 5,
                    row_scalar.data());
  ker::distance_row(ker::Isa::kSimd, a.data(), all.data(), dim, 20, 5,
                    row_simd.data());
  EXPECT_EQ(row_scalar, std::vector<double>(n, -7.0));
  EXPECT_EQ(row_simd, std::vector<double>(n, -7.0));
}

TEST(KernelsDistance, DistanceRowsMatchesPerPairReference) {
  const std::size_t n = 19;
  const std::size_t dim = 6;
  const auto all = random_values(n * dim, 11);
  std::vector<double> out(2 * n, 0.0);
  ker::distance_rows(ker::Isa::kScalar, all.data(), dim, n, 3, 5, 4,
                     out.data());
  for (std::size_t r = 0; r < 2; ++r) {
    for (std::size_t j = 0; j < n; ++j) {
      const double ref = std::sqrt(ker::detail::squared_distance_ref(
          all.data() + (3 + r) * dim, all.data() + j * dim, dim));
      EXPECT_EQ(out[r * n + j], ref) << "row " << r << " col " << j;
    }
  }
}

namespace {

using DistanceRowsTier = void (*)(const double*, std::size_t, std::size_t,
                                  std::size_t, std::size_t, std::size_t,
                                  double*);

/// Runs one SIMD tier's block kernel directly (Isa::kSimd only reaches
/// the widest tier the host has) and compares every cell with the scalar
/// path, over shapes that reach the 8-row x 4-point AVX-512 block and
/// each of its edges: 8k + r row groups from nonzero row_begin, n and
/// tiles whose point counts leave every remainder mod 4, dims on both
/// sides of the 4-lane chunk, and dim 141, the first whose packed query
/// rows outgrow the AVX-512 tier's stack buffer.
void expect_tier_bit_equals_scalar(DistanceRowsTier tier) {
  // [row_begin, row_end): 8, 9, 15, 16 and 17 rows, then 8*3 + 5.
  const std::pair<std::size_t, std::size_t> ranges[] = {
      {0, 8}, {3, 12}, {1, 16}, {5, 21}, {2, 19}, {7, 36}};
  std::vector<std::size_t> dims;
  for (std::size_t dim = 1; dim <= 13; ++dim) dims.push_back(dim);
  for (std::size_t dim = 88; dim <= 91; ++dim) dims.push_back(dim);
  dims.push_back(141);
  for (const std::size_t dim : dims) {
    for (std::size_t n = 36; n < 40; ++n) {
      const auto all = random_values(n * dim, 7 * n + dim);
      std::vector<double> scalar(n * n);
      ker::distance_rows(ker::Isa::kScalar, all.data(), dim, n, 0, n, 0,
                         scalar.data());
      // Row-wise, interior tiles of 10 points (2 left over per tile),
      // and one tile larger than n.
      for (const std::size_t tile : {std::size_t{0}, std::size_t{10}, n + 5}) {
        for (const auto& [row_begin, row_end] : ranges) {
          std::vector<double> out((row_end - row_begin) * n, -1.0);
          tier(all.data(), dim, n, row_begin, row_end, tile, out.data());
          for (std::size_t c = 0; c < out.size(); ++c) {
            ASSERT_EQ(out[c], scalar[row_begin * n + c])
                << "dim=" << dim << " n=" << n << " tile=" << tile
                << " rows=[" << row_begin << "," << row_end << ") row "
                << row_begin + c / n << " col " << c % n;
          }
        }
      }
    }
  }
}

}  // namespace

TEST(KernelsDistance, DistanceRowsAvx2TierBitEqualsScalar) {
  if (!simd_available()) GTEST_SKIP() << "no AVX2 on this host";
  expect_tier_bit_equals_scalar(ker::detail::distance_rows_avx2);
}

TEST(KernelsDistance, DistanceRowsAvx512TierBitEqualsScalar) {
  if (!ker::avx512_supported()) {
    GTEST_SKIP() << "no AVX-512 (avx512f + avx512dq) on this host";
  }
  expect_tier_bit_equals_scalar(ker::detail::distance_rows_avx512);
}

// ---------------------------------------------------------------------------
// k-means kernels.

namespace {

using AssignTier = void (*)(const double*, std::size_t, std::size_t,
                            const double*, std::size_t, std::size_t*,
                            double*, double*);

/// Runs `tier` and the scalar path and compares assignments, sums and
/// counts bit for bit.  Shapes cross both SIMD layouts: the AVX2 kernel's
/// 4-centroid blocks (k up to 40 hits every k % 4) and the AVX-512
/// kernel's blocks of 32 points, 8 per lane group in 4 argmin chains (n =
/// 1, 15..17, 31..33, 65 and ~200, then random n).  The first 25 trials
/// force dim through 1..5 (1-3: tail only; 4: blocked prefix only; 5:
/// both); later ones also reach 90, module 2's and the bench's dim.
///
/// Exact ties must break to the lowest index: centroids 0 and k-1, 1 and
/// 5 (same lane, blocks 0 and 1 of the AVX2 kernel) and 3 and 4 (the
/// higher index in the lower lane) are duplicates, and the points that
/// sit on them are spread over lanes and chains of the 32-point block;
/// centroids 6 and 7 tie only under the canonical lane order.
/// Centroid 2 has a NaN coordinate, so its distance never wins; point n-2
/// has a +inf coordinate and the last point overflows every distance to
/// +inf, so both keep index 0.
void expect_assign_bit_equals_scalar(AssignTier tier) {
  Xoshiro256 rng(77);
  const std::size_t fixed_n[] = {1, 15, 16, 17, 31, 32, 33, 65, 203};
  const std::size_t tie_points[] = {0, 1, 2, 7, 8, 13, 16, 22, 24, 31, 40};
  for (int trial = 0; trial < 120; ++trial) {
    const auto t = static_cast<std::size_t>(trial);
    const std::size_t n = t < 3 * std::size(fixed_n)
                              ? fixed_n[t % std::size(fixed_n)]
                              : 4 + rng.uniform_index(80);
    std::size_t dim = trial < 25 ? 1 + t % 5 : 1 + rng.uniform_index(40);
    if (trial % 10 == 9) dim = 90;
    const std::size_t k = 1 + rng.uniform_index(40);  // includes k = 1
    auto pts = random_values(n * dim, 3000 + t);
    auto cents = random_values(k * dim, 4000 + t);
    const auto copy_row = [dim](const std::vector<double>& from,
                                std::size_t src, std::vector<double>& to,
                                std::size_t dst) {
      std::copy(from.begin() + static_cast<std::ptrdiff_t>(src * dim),
                from.begin() + static_cast<std::ptrdiff_t>((src + 1) * dim),
                to.begin() + static_cast<std::ptrdiff_t>(dst * dim));
    };
    if (k >= 2) copy_row(cents, 0, cents, k - 1);
    if (k >= 7) copy_row(cents, 1, cents, 5);
    if (k >= 6) copy_row(cents, 3, cents, 4);
    if (k >= 3) {
      cents[2 * dim + dim / 2] = std::numeric_limits<double>::quiet_NaN();
    }
    // Point p sits on the lower centroid of a duplicated pair.
    std::vector<std::pair<std::size_t, std::size_t>> ties;
    const std::size_t tied[] = {0, k >= 7 ? 1u : 0u, k >= 6 ? 3u : 0u};
    for (std::size_t i = 0; i < std::size(tie_points); ++i) {
      const std::size_t p = tie_points[i];
      if (p + 2 >= n) continue;  // the last two points are spoken for
      ties.emplace_back(p, tied[i % 3]);
      copy_row(cents, tied[i % 3], pts, p);
    }
    // Centroid 7 mirrors centroid 6, shrunk toward the origin, with dims
    // 4j and 4j + 2 swapped: the canonical (l0+l2)+(l1+l3) gives a point
    // at the origin equal distances to both, other lane orders often do
    // not.  One such point sits in each chain.
    if (k >= 9 && dim >= 4) {
      for (std::size_t d = 0; d < dim; ++d) cents[6 * dim + d] *= 1e-3;
      copy_row(cents, 6, cents, 7);
      for (std::size_t d = 0; d + 4 <= dim; d += 4) {
        std::swap(cents[7 * dim + d], cents[7 * dim + d + 2]);
      }
      for (const std::size_t p : {3u, 12u, 20u, 29u}) {
        if (p + 2 >= n) continue;
        std::fill_n(pts.begin() + static_cast<std::ptrdiff_t>(p * dim), dim,
                    0.0);
        ties.emplace_back(p, 6);
      }
    }
    if (n >= 3) pts[(n - 2) * dim] = std::numeric_limits<double>::infinity();
    std::fill(pts.end() - static_cast<std::ptrdiff_t>(dim), pts.end(),
              1e300);

    std::vector<std::size_t> assign_scalar(n), assign_simd(n);
    std::vector<double> sums_scalar(k * dim, 0.0), sums_simd(k * dim, 0.0);
    std::vector<double> counts_scalar(k, 0.0), counts_simd(k, 0.0);
    ker::assign_points(ker::Isa::kScalar, pts.data(), n, dim, cents.data(),
                       k, assign_scalar.data(), sums_scalar.data(),
                       counts_scalar.data());
    tier(pts.data(), n, dim, cents.data(), k, assign_simd.data(),
         sums_simd.data(), counts_simd.data());
    const auto shape = [&] {
      return "trial " + std::to_string(trial) + " n=" + std::to_string(n) +
             " dim=" + std::to_string(dim) + " k=" + std::to_string(k);
    };
    ASSERT_EQ(assign_scalar, assign_simd) << shape();
    for (const auto& [p, c] : ties) {
      ASSERT_EQ(assign_simd[p], c) << shape() << " point " << p;
    }
    if (n >= 3) {
      ASSERT_EQ(assign_simd[n - 2], 0u) << shape();
    }
    ASSERT_EQ(assign_simd[n - 1], 0u) << shape();
    if (k >= 3) {
      ASSERT_EQ(std::count(assign_simd.begin(), assign_simd.end(), 2u), 0)
          << shape();
    }
    ASSERT_EQ(sums_scalar, sums_simd) << shape();
    ASSERT_EQ(counts_scalar, counts_simd) << shape();
  }
}

}  // namespace

TEST(KernelsKmeans, AssignScalarSimdBitEqualOverRandomShapes) {
  if (!simd_available()) GTEST_SKIP() << "no AVX2 on this host";
  expect_assign_bit_equals_scalar(
      [](const double* points, std::size_t n, std::size_t dim,
         const double* centroids, std::size_t k, std::size_t* assignment,
         double* sums, double* counts) {
        ker::assign_points(ker::Isa::kSimd, points, n, dim, centroids, k,
                           assignment, sums, counts);
      });
}

TEST(KernelsKmeans, AssignAvx2TierBitEqualsScalar) {
  if (!simd_available()) GTEST_SKIP() << "no AVX2 on this host";
  expect_assign_bit_equals_scalar(ker::detail::assign_points_avx2);
}

TEST(KernelsKmeans, AssignAvx512TierBitEqualsScalar) {
  if (!ker::avx512_supported()) {
    GTEST_SKIP() << "no AVX-512 (avx512f + avx512dq) on this host";
  }
  expect_assign_bit_equals_scalar(ker::detail::assign_points_avx512);
}

TEST(KernelsKmeans, AssignWithoutAccumulatorsAndNearestCentroidAgree) {
  const std::size_t n = 23;
  const std::size_t dim = 7;
  const std::size_t k = 5;
  const auto pts = random_values(n * dim, 31);
  const auto cents = random_values(k * dim, 32);
  for (const auto isa : {ker::Isa::kScalar, ker::Isa::kSimd}) {
    if (isa == ker::Isa::kSimd && !simd_available()) continue;
    std::vector<std::size_t> assignment(n);
    ker::assign_points(isa, pts.data(), n, dim, cents.data(), k,
                       assignment.data(), nullptr, nullptr);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(assignment[i],
                ker::nearest_centroid(isa, pts.data() + i * dim,
                                      cents.data(), k, dim))
          << "point " << i;
    }
  }
}

TEST(KernelsKmeans, UpdateCentroidsBitEqualAndEmptyClustersStayPut) {
  if (!simd_available()) GTEST_SKIP() << "no AVX2 on this host";
  Xoshiro256 rng(55);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t k = 1 + rng.uniform_index(8);
    const std::size_t dim = 1 + rng.uniform_index(30);
    const auto sums = random_values(k * dim, 5000 + static_cast<std::uint64_t>(trial));
    std::vector<double> counts(k);
    for (auto& c : counts) {
      c = rng.uniform() < 0.3 ? 0.0 : std::floor(rng.uniform(1.0, 20.0));
    }
    auto cents_scalar = random_values(k * dim, 6000 + static_cast<std::uint64_t>(trial));
    auto cents_simd = cents_scalar;
    const auto before = cents_scalar;

    const double mv_scalar =
        ker::update_centroids(ker::Isa::kScalar, cents_scalar.data(),
                              sums.data(), counts.data(), k, dim);
    const double mv_simd =
        ker::update_centroids(ker::Isa::kSimd, cents_simd.data(),
                              sums.data(), counts.data(), k, dim);
    ASSERT_EQ(cents_scalar, cents_simd) << "trial " << trial;
    ASSERT_EQ(mv_scalar, mv_simd) << "trial " << trial;
    for (std::size_t c = 0; c < k; ++c) {
      if (counts[c] != 0.0) continue;
      for (std::size_t j = 0; j < dim; ++j) {
        EXPECT_EQ(cents_scalar[c * dim + j], before[c * dim + j]);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Sort kernels.

TEST(KernelsSort, HistogramMatchesReferenceIncludingOutOfRangeAndNaN) {
  const std::size_t bins = 16;
  const double lo = 0.0;
  const double width = 0.5;
  auto values = random_values(503, 61, -2.0, 10.0);  // spills both ends
  values.push_back(lo);                              // exactly lo -> bin 0
  values.push_back(lo + width * static_cast<double>(bins));  // above top
  values.push_back(std::numeric_limits<double>::quiet_NaN());

  std::vector<std::uint64_t> ref(bins, 0);
  for (const double v : values) {
    ++ref[ker::detail::histogram_bin_ref(v, lo, width, bins)];
  }
  for (const auto isa : {ker::Isa::kScalar, ker::Isa::kSimd}) {
    if (isa == ker::Isa::kSimd && !simd_available()) continue;
    std::vector<std::uint64_t> hist(bins, 0);
    ker::histogram(isa, values.data(), values.size(), lo, width, bins,
                   hist.data());
    EXPECT_EQ(hist, ref) << ker::isa_name(isa);
  }
}

TEST(KernelsSort, BucketIndicesMatchesReferenceOnSplitterCollisions) {
  // Splitter values occur verbatim in the input: v == splitter must land
  // in the bucket *after* the splitter (upper_bound semantics) on every
  // path.  NaN compares false with every splitter -> bucket 0.
  std::vector<double> splitters = {1.0, 2.0, 2.0, 5.0};  // repeated too
  auto values = random_values(257, 71, 0.0, 6.0);
  values.insert(values.end(), {1.0, 2.0, 5.0, 0.0, 6.0,
                               std::numeric_limits<double>::quiet_NaN()});

  std::vector<std::uint32_t> ref(values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    ref[i] = static_cast<std::uint32_t>(ker::detail::bucket_of_ref(
        values[i], splitters.data(), splitters.size()));
  }
  for (const auto isa : {ker::Isa::kScalar, ker::Isa::kSimd}) {
    if (isa == ker::Isa::kSimd && !simd_available()) continue;
    std::vector<std::uint32_t> out(values.size(), 999);
    ker::bucket_indices(isa, values.data(), values.size(), splitters.data(),
                        splitters.size(), out.data());
    EXPECT_EQ(out, ref) << ker::isa_name(isa);
  }
}

TEST(KernelsSort, ScalarSimdBitEqualOverRandomShapes) {
  if (!simd_available()) GTEST_SKIP() << "no AVX2 on this host";
  Xoshiro256 rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = rng.uniform_index(200);  // includes n = 0
    const std::size_t bins = 1 + rng.uniform_index(64);
    const std::size_t nsplit = rng.uniform_index(12);
    const auto values = random_values(n, 7000 + static_cast<std::uint64_t>(trial), -1.0, 9.0);
    std::vector<double> splitters(nsplit);
    for (std::size_t s = 0; s < nsplit; ++s) {
      splitters[s] = static_cast<double>(s) * 8.0 /
                     static_cast<double>(nsplit + 1);
    }

    std::vector<std::uint64_t> h_scalar(bins, 0), h_simd(bins, 0);
    ker::histogram(ker::Isa::kScalar, values.data(), n, -1.0, 10.0 / static_cast<double>(bins),
                   bins, h_scalar.data());
    ker::histogram(ker::Isa::kSimd, values.data(), n, -1.0, 10.0 / static_cast<double>(bins),
                   bins, h_simd.data());
    ASSERT_EQ(h_scalar, h_simd) << "trial " << trial;

    std::vector<std::uint32_t> b_scalar(n), b_simd(n);
    ker::bucket_indices(ker::Isa::kScalar, values.data(), n,
                        splitters.data(), nsplit, b_scalar.data());
    ker::bucket_indices(ker::Isa::kSimd, values.data(), n, splitters.data(),
                        nsplit, b_simd.data());
    ASSERT_EQ(b_scalar, b_simd) << "trial " << trial;
  }
}

namespace {

// sort_keys' oracle: std::sort under the same order-preserving image,
// written independently of the kernel.
std::uint64_t image_ref(double x) {
  const auto u = std::bit_cast<std::uint64_t>(x);
  return (u >> 63) != 0 ? ~u : (u | (std::uint64_t{1} << 63));
}

std::vector<std::uint64_t> bits_of(const std::vector<double>& v) {
  std::vector<std::uint64_t> out(v.size());
  std::transform(v.begin(), v.end(), out.begin(),
                 [](double x) { return std::bit_cast<std::uint64_t>(x); });
  return out;
}

void expect_sorts_like_oracle(std::vector<double> v, const char* what) {
  auto want = v;
  std::sort(want.begin(), want.end(), [](double a, double b) {
    return image_ref(a) < image_ref(b);
  });
  ker::sort_keys(v.data(), v.size());
  EXPECT_EQ(bits_of(v), bits_of(want)) << what << ", n = " << v.size();
}

// Keys 1.0 + bits as bit patterns: positive, so their images order like
// `bits`.  With bits = (digit << 8) + low and at least two digits present,
// a range of more than kSortKeysScratch keys is distributed on `digit` by
// its first block level.
double key_with_bits(std::uint64_t bits) {
  return std::bit_cast<double>(std::bit_cast<std::uint64_t>(1.0) + bits);
}

/// `count` keys of each (digit, count) bucket, low bits random, shuffled.
/// Bucket b occupies the sorted positions after every lower digit's keys,
/// so the counts place each bucket's bounds against the 64-key block grid.
std::vector<double> keys_in_buckets(
    const std::vector<std::pair<std::uint64_t, std::size_t>>& buckets,
    std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<double> v;
  for (const auto& [digit, count] : buckets) {
    for (std::size_t i = 0; i < count; ++i) {
      v.push_back(key_with_bits((digit << 8) + rng.uniform_index(256)));
    }
  }
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.uniform_index(i)]);
  }
  return v;
}

}  // namespace

TEST(KernelsSort, SortKeysMatchesImageOrderOracle) {
  const double inf = std::numeric_limits<double>::infinity();
  const double denorm = std::numeric_limits<double>::denorm_min();
  const std::vector<double> specials = {
      -0.0, 0.0, inf, -inf, denorm, -denorm, 1e-310, -1e-310,
      std::numeric_limits<double>::min(), -std::numeric_limits<double>::max(),
      -1.0, 1.0};
  for (const std::size_t n :
       {std::size_t{0}, std::size_t{1}, std::size_t{2},
        ker::kSortKeysFinisher - 1, ker::kSortKeysFinisher,
        ker::kSortKeysFinisher + 1, ker::kSortKeysScratch - 1,
        ker::kSortKeysScratch, ker::kSortKeysScratch + 1,
        std::size_t{100000}}) {
    const auto seed = 8000 + static_cast<std::uint64_t>(n);
    const auto uniform = random_values(n, seed);
    expect_sorts_like_oracle(uniform, "uniform");

    auto sorted = uniform;
    std::sort(sorted.begin(), sorted.end());
    expect_sorts_like_oracle(sorted, "already sorted");
    std::reverse(sorted.begin(), sorted.end());
    expect_sorts_like_oracle(sorted, "reverse sorted");

    expect_sorts_like_oracle(std::vector<double>(n, 2.5), "all equal");

    Xoshiro256 rng(seed + 1);
    std::vector<double> dups(n), edge(n), expo(n), near(n);
    for (std::size_t i = 0; i < n; ++i) {
      dups[i] = static_cast<double>(rng.uniform_index(5)) - 2.0;
      // Within 70000 ulps of +-1: only the lowest three digits differ.
      near[i] = std::bit_cast<double>(
          std::bit_cast<std::uint64_t>(rng.uniform() < 0.5 ? 1.0 : -1.0) +
          rng.uniform_index(70000));
      edge[i] = specials[rng.uniform_index(specials.size())] *
                (rng.uniform() < 0.5 ? 1.0 : rng.uniform(0.5, 2.0));
      expo[i] = std::min(rng.exponential(1.0), 9.999);
    }
    expect_sorts_like_oracle(dups, "heavy duplicates");
    expect_sorts_like_oracle(edge, "negatives, zeros, infinities, denormals");
    expect_sorts_like_oracle(expo, "capped exponential");
    expect_sorts_like_oracle(near, "keys a few ulps apart");
  }
}

TEST(KernelsSort, SortKeysFinishesACrowdedSmallRange) {
  // kSortKeysScratch keys that differ only in their low 10 bits, so the
  // scratch path's first digit is bits 2..9.  Half take one of the 64
  // offsets 4j: each of their digit buckets holds ~128 copies of one key
  // (a recursion that finds every key equal).  Three eighths are uniform
  // in [512, 1024): ~48 keys over 4 offsets per bucket, which recurses once
  // more on the last 2 bits.  The rest are uniform in [256, 512): ~32 keys
  // per bucket, mostly left to the final insertion pass.
  const std::size_t n = ker::kSortKeysScratch;
  const auto one = std::bit_cast<std::uint64_t>(1.0);
  Xoshiro256 rng(8102);
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t group = i % 8;
    const std::uint64_t low = group < 4   ? 4 * rng.uniform_index(64)
                              : group < 7 ? 512 + rng.uniform_index(512)
                                          : 256 + rng.uniform_index(256);
    v[i] = std::bit_cast<double>(one + low);
  }
  expect_sorts_like_oracle(v, "crowded small range");
}

// Ranges of more than kSortKeysScratch keys are distributed in 64-key
// blocks: each bucket's blocks fill the block-aligned slots from its first
// slot boundary, its unaligned head and tail are filled afterwards, and a
// slot running past the end of the range goes through an overflow block.
// The tests below place bucket bounds against that grid.
constexpr std::size_t kBlockKeys = ker::kSortKeysScratch / 256;

TEST(KernelsSortBlocks, RangeSizesAroundTheBlockGrid) {
  for (const std::size_t n :
       {ker::kSortKeysScratch + 1, ker::kSortKeysScratch + kBlockKeys - 1,
        ker::kSortKeysScratch + kBlockKeys + 1, 500 * kBlockKeys + 1,
        500 * kBlockKeys + kBlockKeys - 1, 1001 * kBlockKeys + 1,
        1001 * kBlockKeys + kBlockKeys - 1}) {
    const auto seed = 8200 + static_cast<std::uint64_t>(n);
    expect_sorts_like_oracle(random_values(n, seed), "uniform");
    Xoshiro256 rng(seed);
    std::vector<double> bucketed(n);
    for (auto& x : bucketed) {
      x = key_with_bits((rng.uniform_index(37) << 8) + rng.uniform_index(3));
    }
    expect_sorts_like_oracle(bucketed, "37 digits, few keys each");
  }
}

TEST(KernelsSortBlocks, BucketSmallerThanABlockBetweenTwoLargeOnes) {
  // Bucket 11 starts at 10000, 48 keys short of a slot boundary, and ends
  // before it: it owns no slot, and its keys come from its buffer alone.
  expect_sorts_like_oracle(
      keys_in_buckets({{10, 10000}, {11, 5}, {12, 10000}}, 8210),
      "5-key bucket at 10000");
  expect_sorts_like_oracle(
      keys_in_buckets({{10, 10000}, {11, 63}, {12, 10000}}, 8211),
      "63-key bucket at 10000");
  // Here bucket 11 straddles the boundary at 10048 without a full block.
  expect_sorts_like_oracle(
      keys_in_buckets({{10, 10000}, {11, 60}, {12, 10000}}, 8212),
      "60-key bucket across a slot boundary");
}

TEST(KernelsSortBlocks, LastBlockRunsPastTheArrayEnd) {
  // The last bucket starts at 10000 and holds 100 blocks and 10 keys: its
  // slots start at 10048, so its last block's slot ends at 16448, past
  // n = 16410, and is written to the overflow block.
  expect_sorts_like_oracle(
      keys_in_buckets({{0, 10000}, {255, 100 * kBlockKeys + 10}}, 8220),
      "highest bucket overflows");
  // The same slot, and the 48 keys it holds past the bucket's end (16400)
  // are the whole of two small buckets after it.
  expect_sorts_like_oracle(
      keys_in_buckets({{0, 10000}, {100, 100 * kBlockKeys}, {101, 3},
                       {102, 7}},
                      8221),
      "overflow spilling over two small buckets");
}

TEST(KernelsSortBlocks, AllKeysButOneInOneBucket) {
  const std::size_t n = 40000;
  expect_sorts_like_oracle(keys_in_buckets({{7, n - 1}, {200, 1}}, 8230),
                           "one key above");
  expect_sorts_like_oracle(keys_in_buckets({{7, 1}, {200, n - 1}}, 8231),
                           "one key below");
  expect_sorts_like_oracle(
      keys_in_buckets({{0, 1}, {1, n - 2}, {255, 1}}, 8232),
      "one key at each end");
}

TEST(KernelsSortBlocks, BlocksSpillIntoTheNextBucketsHead) {
  // Bucket 4 runs [100, 12905) with 200 blocks and 5 keys: its slots start
  // at 128, so its last block fills [12800, 12928) and 23 of its keys sit
  // in bucket 5's head until the clean-up moves them.
  expect_sorts_like_oracle(
      keys_in_buckets({{3, 100}, {4, 200 * kBlockKeys + 5}, {5, 10000}},
                      8240),
      "spill into one head");
  // The same spill covers buckets 5 and 6 and the head of bucket 7.
  expect_sorts_like_oracle(
      keys_in_buckets({{3, 100}, {4, 200 * kBlockKeys + 5}, {5, 3},
                       {6, 7}, {7, 10000}},
                      8241),
      "spill over two small buckets into a third head");
}

TEST(KernelsSortBlocks, TwoBlockLevelsBeforeTheFinisher) {
  // Bits 16..23 split 100000 keys into two buckets of 50000, which the
  // second level splits on bits 8..15 into buckets the finisher sorts.
  const std::size_t n = 100000;
  Xoshiro256 rng(8250);
  std::vector<double> spread(n), shared(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t top = (1 + i % 2) << 16;
    spread[i] = key_with_bits(top + (rng.uniform_index(256) << 8) +
                              rng.uniform_index(256));
    // Every key shares bits 8..15, so the second level puts all of each
    // bucket in one sub-bucket and the third splits it on bits 0..7.
    shared[i] = key_with_bits(top + (9 << 8) + rng.uniform_index(256));
  }
  expect_sorts_like_oracle(spread, "second level splits");
  expect_sorts_like_oracle(shared, "second level shared, third splits");
}

TEST(KernelsSortBlocks, RandomShapes) {
  Xoshiro256 rng(8260);
  for (int trial = 0; trial < 100; ++trial) {
    const std::size_t n =
        ker::kSortKeysScratch + 1 +
        rng.uniform_index(200000 - ker::kSortKeysScratch);
    std::vector<double> v(n);
    switch (trial % 4) {
      case 0: {  // a uniform range of random width
        const double lo = rng.uniform(-10.0, 10.0);
        const double hi = lo + std::ldexp(1.0, static_cast<int>(
                                                   rng.uniform_index(20)) -
                                                   10);
        for (auto& x : v) x = rng.uniform(lo, hi);
        break;
      }
      case 1: {  // up to 256 digits with uneven counts
        const std::uint64_t digits = 1 + rng.uniform_index(256);
        const unsigned low_bits = static_cast<unsigned>(rng.uniform_index(9));
        for (auto& x : v) {
          const auto d = static_cast<std::uint64_t>(
              static_cast<double>(digits) * rng.uniform() * rng.uniform());
          x = key_with_bits((d << 8) +
                            (rng.uniform_index(std::uint64_t{1} << low_bits)));
        }
        break;
      }
      case 2:
        for (auto& x : v) x = std::min(rng.exponential(1.0), 9.999);
        break;
      default: {  // few distinct values
        const std::uint64_t distinct = 1 + rng.uniform_index(1000);
        for (auto& x : v) {
          x = static_cast<double>(rng.uniform_index(distinct)) - 500.0;
        }
      }
    }
    expect_sorts_like_oracle(v, "random shape");
  }
}

TEST(KernelsSort, SortKeysEqualsStdSortWhereStdSortIsDetermined) {
  // Without NaN and without both zeros, operator< is a strict weak order
  // whose equal keys are equal bits, so std::sort's output is unique.
  Xoshiro256 rng(8101);
  std::vector<double> v(200000);
  for (auto& x : v) x = rng.uniform() < 0.1 ? -rng.exponential(3.0)
                                            : rng.uniform(0.0, 1e6);
  auto want = v;
  std::sort(want.begin(), want.end());
  ker::sort_keys(v.data(), v.size());
  EXPECT_EQ(bits_of(v), bits_of(want));
}

TEST(KernelsSort, SortKeysPinsSignedZerosAndNaNs) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double neg_nan = -nan;
  const double neg_denorm = -std::numeric_limits<double>::denorm_min();
  // A NaN payload survives the round trip through the image.
  const double payload_nan =
      std::bit_cast<double>(std::uint64_t{0x7ff8000000000123});
  std::vector<double> v = {1.0,  nan, 0.0,     -inf, payload_nan,
                           -0.0, inf, neg_nan, -1.0, 0.0,
                           -0.0, 2.0, neg_denorm};
  ker::sort_keys(v.data(), v.size());
  const std::vector<double> want = {neg_nan, -inf, -1.0, neg_denorm,
                                    -0.0,    -0.0, 0.0,  0.0,
                                    1.0,     2.0,  inf,  nan,
                                    payload_nan};
  EXPECT_EQ(bits_of(v), bits_of(want));
}

TEST(KernelsFilter, MatchesReferenceIncludingBoundaries) {
  // Boundary-inclusive points (closed rectangle), points just outside,
  // NaN coordinates, and a degenerate zero-area window.
  const std::vector<double> xs = {1.0, 2.0, 3.0, 1.0, 3.0, 0.999, 3.001,
                                  std::numeric_limits<double>::quiet_NaN(),
                                  2.0};
  const std::vector<double> ys = {1.0, 2.0, 3.0, 3.0, 1.0, 2.0, 2.0, 2.0,
                                  std::numeric_limits<double>::quiet_NaN()};
  for (const auto isa : {ker::Isa::kScalar, ker::Isa::kSimd}) {
    if (isa == ker::Isa::kSimd && !simd_available()) continue;
    // [1,3]x[1,3]: the five corner/edge/inside points match, the
    // just-outside and NaN points do not.
    EXPECT_EQ(ker::count_in_rect(isa, xs.data(), ys.data(), xs.size(), 1.0,
                                 1.0, 3.0, 3.0),
              5u)
        << ker::isa_name(isa);
    // Zero-area window: only the exact point matches.
    EXPECT_EQ(ker::count_in_rect(isa, xs.data(), ys.data(), xs.size(), 2.0,
                                 2.0, 2.0, 2.0),
              1u)
        << ker::isa_name(isa);
    // Inverted (min > max) window matches nothing.
    EXPECT_EQ(ker::count_in_rect(isa, xs.data(), ys.data(), xs.size(), 3.0,
                                 3.0, 1.0, 1.0),
              0u)
        << ker::isa_name(isa);
    // NaN bound matches nothing.
    EXPECT_EQ(ker::count_in_rect(
                  isa, xs.data(), ys.data(), xs.size(),
                  std::numeric_limits<double>::quiet_NaN(), 1.0, 3.0, 3.0),
              0u)
        << ker::isa_name(isa);
  }
}

TEST(KernelsFilter, ScalarSimdBitEqualOverRandomShapes) {
  if (!simd_available()) GTEST_SKIP() << "no AVX2 on this host";
  Xoshiro256 rng(123);
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t n = rng.uniform_index(300);  // includes n = 0
    auto xs = random_values(n, 5000 + static_cast<std::uint64_t>(trial),
                            0.0, 100.0);
    auto ys = random_values(n, 6000 + static_cast<std::uint64_t>(trial),
                            0.0, 100.0);
    if (n > 4) {
      xs[n / 2] = std::numeric_limits<double>::quiet_NaN();
      ys[n / 3] = std::numeric_limits<double>::infinity();
    }
    const double x0 = rng.uniform(0.0, 100.0);
    const double y0 = rng.uniform(0.0, 100.0);
    const double w = rng.uniform(-5.0, 40.0);  // negative = inverted rect
    std::uint64_t ref = 0;
    for (std::size_t i = 0; i < n; ++i) {
      ref += ker::detail::in_rect_ref(xs[i], ys[i], x0, y0, x0 + w, y0 + w)
                 ? 1u
                 : 0u;
    }
    EXPECT_EQ(ker::count_in_rect(ker::Isa::kScalar, xs.data(), ys.data(), n,
                                 x0, y0, x0 + w, y0 + w),
              ref)
        << "trial " << trial;
    EXPECT_EQ(ker::count_in_rect(ker::Isa::kSimd, xs.data(), ys.data(), n,
                                 x0, y0, x0 + w, y0 + w),
              ref)
        << "trial " << trial;
  }
}
