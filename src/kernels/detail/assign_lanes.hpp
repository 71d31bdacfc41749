// k-means assignment with points in the lanes, written once over a GCC
// vector type of W doubles.  A tier is one instantiation in a TU built
// with that tier's -m flags and -ffp-contract=off: lanes_avx512.cpp, at
// W = 8.  (At W = 4 under -mavx2 it lost to kmeans_avx2.cpp; see
// kmeans.hpp.)
//
// Each lane holds one point and runs the scalar loop of kmeans.cpp
// exactly: for every centroid in ascending order, the canonical distance
// of detail/canonical.hpp (lane accumulators l0..l3 over the blocked
// prefix, (l0+l2)+(l1+l3), the dim % 4 tail folded in sequentially),
// then a strict '<' against the lane's running minimum, taken with a
// vector select.  A lane never looks at another lane, so there is no
// horizontal reduction, and a NaN distance never wins, as in the scalar
// loop.  The fused sum/count accumulation stays scalar and in point
// order, so sums and counts are bit-identical too.
//
// A block is 4·W points in four *named* argmin chains: four independent
// select chains keep the FP pipes busy at module 5's 2-D shape, where a
// distance is only a handful of operations (arrays of accumulators and
// one wider "virtual" vector were tried: both spilled to the stack and
// ran 2-6x slower).  Each block is first transposed into a
// dimension-major scratch, W x W tiles at a time with a shuffle network
// (a scalar transpose was a quarter of the 90-D, k = 16 pass); the
// padding lanes of a short last block are zero-filled and their results
// never stored.
//
// Everything here has internal linkage, and the body calls no library
// function (std::index_sequence is only a type), as lanes.hpp requires.
#pragma once

#include <cstddef>
#include <cstring>
#include <utility>

#include "kernels/detail/lanes.hpp"

namespace dipdc::kernels::detail {
namespace {

/// One step of the transpose network: a[Hi] b[Hi] a[Hi+1] b[Hi+1] ...,
/// the first (Hi = 0) or second (Hi = W/2) halves of a and b interleaved.
template <std::size_t W, std::size_t Hi, std::size_t... P>
inline typename Lanes<W>::type zip(typename Lanes<W>::type a,
                                   typename Lanes<W>::type b,
                                   std::index_sequence<P...>) {
  return __builtin_shufflevector(a, b, (P % 2 * W + Hi + P / 2)...);
}

/// Transposes W points x W dims, read as rows `row_stride` doubles apart,
/// into W lane vectors `col_stride` doubles apart.  log2(W) stages, each
/// zipping row i with row i + W/2, transpose any power-of-two W.
template <std::size_t W>
inline void transpose_tile(const double* rows, std::size_t row_stride,
                           double* cols, std::size_t col_stride) {
  using V = typename Lanes<W>::type;
  constexpr auto lanes = std::make_index_sequence<W>{};
  V m[W] = {};
  for (std::size_t i = 0; i < W; ++i) {
    m[i] = load_lanes<W>(rows + i * row_stride);
  }
  for (std::size_t stage = 1; stage < W; stage *= 2) {
    V z[W] = {};
    for (std::size_t i = 0; i < W / 2; ++i) {
      z[2 * i] = zip<W, 0>(m[i], m[i + W / 2], lanes);
      z[2 * i + 1] = zip<W, W / 2>(m[i], m[i + W / 2], lanes);
    }
    for (std::size_t i = 0; i < W; ++i) m[i] = z[i];
  }
  for (std::size_t i = 0; i < W; ++i) {
    store_lanes<W>(cols + i * col_stride, m[i]);
  }
}

/// Canonical squared distance from the W points of one chain to the
/// centroid `cent`.  `col` is the chain's first column in the block's
/// dimension-major scratch, whose rows are `stride` doubles apart.
template <std::size_t W, std::size_t Tail, bool Blocked>
inline typename Lanes<W>::type lane_distance(const double* col,
                                             std::size_t stride,
                                             const double* cent,
                                             std::size_t body) {
  using V = typename Lanes<W>::type;
  V l0 = {}, l1 = {}, l2 = {}, l3 = {};
  for (std::size_t d = 0; Blocked && d < body; d += 4) {
    const double* x = col + d * stride;
    const V d0 = load_lanes<W>(x) - cent[d];
    const V d1 = load_lanes<W>(x + stride) - cent[d + 1];
    const V d2 = load_lanes<W>(x + 2 * stride) - cent[d + 2];
    const V d3 = load_lanes<W>(x + 3 * stride) - cent[d + 3];
    l0 += d0 * d0;
    l1 += d1 * d1;
    l2 += d2 * d2;
    l3 += d3 * d3;
  }
  V acc = (l0 + l2) + (l1 + l3);
  for (std::size_t t = 0; t < Tail; ++t) {
    const V diff = load_lanes<W>(col + (body + t) * stride) - cent[body + t];
    acc += diff * diff;
  }
  return acc;
}

/// Nearest centroid of each of the 4·W points of one transposed block,
/// written to `best` (as doubles: exact for any k below 2^53).
template <std::size_t W, std::size_t Tail, bool Blocked>
void assign_block(const double* block, std::size_t dim,
                  const double* centroids, std::size_t k, double* best) {
  using V = typename Lanes<W>::type;
  const std::size_t stride = 4 * W;
  const std::size_t body = dim - Tail;
  const double inf = __builtin_inf();
  V bd0 = V{} + inf, bd1 = bd0, bd2 = bd0, bd3 = bd0;
  V bi0 = {}, bi1 = {}, bi2 = {}, bi3 = {};
  const double* cent = centroids;
  for (std::size_t c = 0; c < k; ++c, cent += dim) {
    const V idx = V{} + static_cast<double>(c);
    const V s0 = lane_distance<W, Tail, Blocked>(block, stride, cent, body);
    const V s1 =
        lane_distance<W, Tail, Blocked>(block + W, stride, cent, body);
    const V s2 =
        lane_distance<W, Tail, Blocked>(block + 2 * W, stride, cent, body);
    const V s3 =
        lane_distance<W, Tail, Blocked>(block + 3 * W, stride, cent, body);
    const auto m0 = s0 < bd0;
    const auto m1 = s1 < bd1;
    const auto m2 = s2 < bd2;
    const auto m3 = s3 < bd3;
    bd0 = m0 ? s0 : bd0;
    bd1 = m1 ? s1 : bd1;
    bd2 = m2 ? s2 : bd2;
    bd3 = m3 ? s3 : bd3;
    bi0 = m0 ? idx : bi0;
    bi1 = m1 ? idx : bi1;
    bi2 = m2 ? idx : bi2;
    bi3 = m3 ? idx : bi3;
  }
  std::memcpy(best, &bi0, sizeof bi0);
  std::memcpy(best + W, &bi1, sizeof bi1);
  std::memcpy(best + 2 * W, &bi2, sizeof bi2);
  std::memcpy(best + 3 * W, &bi3, sizeof bi3);
}

/// The whole pass for one dim shape: dim % 4 == Tail, and dim < 4 unless
/// Blocked.  Both are template arguments, so a 2-D pass (transpose,
/// distances and accumulation) is straight-line code.
template <std::size_t W, std::size_t Tail, bool Blocked>
void assign_pass(const double* points, std::size_t n, std::size_t dim,
                 const double* centroids, std::size_t k,
                 std::size_t* assignment, double* sums, double* counts,
                 double* block) {
  constexpr std::size_t kBlock = 4 * W;
  const std::size_t dims = Blocked ? dim : Tail;
  double best[kBlock] = {};
  for (std::size_t base = 0; base < n; base += kBlock) {
    const std::size_t np = n - base < kBlock ? n - base : kBlock;
    // block[d * kBlock + j] is dimension d of point base + j.  A whole
    // block moves its first dims in W x W tiles, the rest one at a time.
    const double* pt = points + base * dims;
    std::size_t tiled = 0;
    if (np == kBlock) {
      for (; tiled + W <= dims; tiled += W) {
        for (std::size_t g = 0; g < 4; ++g) {
          transpose_tile<W>(pt + g * W * dims + tiled, dims,
                            block + tiled * kBlock + g * W, kBlock);
        }
      }
    }
    for (std::size_t j = 0; j < np; ++j, pt += dims) {
      for (std::size_t d = tiled; d < dims; ++d) {
        block[d * kBlock + j] = pt[d];
      }
    }
    for (std::size_t j = np; j < kBlock; ++j) {
      for (std::size_t d = 0; d < dims; ++d) block[d * kBlock + j] = 0.0;
    }
    assign_block<W, Tail, Blocked>(block, dims, centroids, k, best);
    pt = points + base * dims;
    for (std::size_t j = 0; j < np; ++j, pt += dims) {
      const auto c = static_cast<std::size_t>(best[j]);
      assignment[base + j] = c;
      if (sums != nullptr) {
        double* sum_row = sums + c * dims;
        for (std::size_t d = 0; d < dims; ++d) sum_row[d] += pt[d];
        counts[c] += 1.0;
      }
    }
  }
}

/// kernels::assign_points' contract with points in the lanes.
template <std::size_t W>
void assign_points_lanes(const double* points, std::size_t n,
                         std::size_t dim, const double* centroids,
                         std::size_t k, std::size_t* assignment,
                         double* sums, double* counts) {
  using Pass = void (*)(const double*, std::size_t, std::size_t,
                        const double*, std::size_t, std::size_t*, double*,
                        double*, double*);
  // Indexed by dim for dim < 4, else by 4 + dim % 4.
  constexpr Pass kPasses[] = {
      assign_pass<W, 0, false>, assign_pass<W, 1, false>,
      assign_pass<W, 2, false>, assign_pass<W, 3, false>,
      assign_pass<W, 0, true>,  assign_pass<W, 1, true>,
      assign_pass<W, 2, true>,  assign_pass<W, 3, true>};
  const BlockScratch scratch(dim * 4 * W);
  kPasses[dim < 4 ? dim : 4 + dim % 4](points, n, dim, centroids, k,
                                       assignment, sums, counts,
                                       scratch.data());
}

}  // namespace
}  // namespace dipdc::kernels::detail
