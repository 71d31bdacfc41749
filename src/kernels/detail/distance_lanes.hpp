// Module 2's distance kernels, written once over the lane types of
// detail/lanes.hpp: lanes_avx2.cpp instantiates them at W = 4 and
// lanes_avx512.cpp at W = 8.
//
// Every (row, point) pair keeps the canonical 4-lane accumulator of
// detail/canonical.hpp in one group of 4 lanes: a row vector packs W/4
// query rows side by side, and each partner point's 4-dimension chunk is
// broadcast to every group.  The block body runs R row vectors against 4
// points (at R = 4, 16 accumulators: 8 rows x 4 points in zmm at W = 8,
// 4 x 4 in ymm at W = 4), reduces each accumulator as (l0+l2)+(l1+l3) in
// two shuffle stages that leave point q in lane q of every group, folds
// the dim % 4 tail in on those reduced lanes, and takes the roots a
// vector at a time (vsqrtpd is correctly rounded, as std::sqrt is).  So
// every path returns the scalar path's bits.  A group short of rows is
// padded with copies of its last row, whose results are dropped;
// distance_row runs the body at R = 1.  Points left over from groups of 4
// run squared_distance_lanes.
#pragma once

#include <cstddef>
#include <cstring>
#include <utility>

#include "kernels/detail/lanes.hpp"

namespace dipdc::kernels::detail {
namespace {

/// Canonical ‖a − b‖²: one pair fills only 4 lanes, so every tier runs
/// it at W = 4.
inline double squared_distance_lanes(const double* a, const double* b,
                                     std::size_t dim) {
  Lanes<4>::type acc = {};
  std::size_t d = 0;
  for (; d + 4 <= dim; d += 4) {
    const auto diff = load_lanes<4>(a + d) - load_lanes<4>(b + d);
    acc += diff * diff;
  }
  double sum = (acc[0] + acc[2]) + (acc[1] + acc[3]);
  for (; d < dim; ++d) {
    const double diff = a[d] - b[d];
    sum += diff * diff;
  }
  return sum;
}

/// One reduction stage: lane 4g + i of the result is lane
/// 4g + A·(i % 2) + B of x for i < 2, of y for i >= 2.
template <std::size_t W, std::size_t A, std::size_t B, std::size_t... P>
inline typename Lanes<W>::type merge(typename Lanes<W>::type x,
                                     typename Lanes<W>::type y,
                                     std::index_sequence<P...>) {
  return __builtin_shufflevector(
      x, y, (P % 4 / 2 * W + P / 4 * 4 + A * (P % 2) + B)...);
}

/// Lane 4g + q is (l0+l2)+(l1+l3) of group g of acc[q].
template <std::size_t W>
inline typename Lanes<W>::type reduce4(
    const typename Lanes<W>::type (&acc)[4]) {
  constexpr auto lanes = std::make_index_sequence<W>{};
  // Per group: [(l0+l2), (l1+l3)] of acc[0] then of acc[1]; and of 2, 3.
  const auto s01 = merge<W, 1, 0>(acc[0], acc[1], lanes) +
                   merge<W, 1, 2>(acc[0], acc[1], lanes);
  const auto s23 = merge<W, 1, 0>(acc[2], acc[3], lanes) +
                   merge<W, 1, 2>(acc[2], acc[3], lanes);
  return merge<W, 2, 0>(s01, s23, lanes) + merge<W, 2, 1>(s01, s23, lanes);
}

/// Packs rows[0, count) (rows `dim` apart, count <= R·W/4) for
/// block<W, R>: chunk c holds R row vectors of W doubles, group g of
/// vector p being row p·W/4 + g.  The dim / 4 whole chunks hold dims
/// 4c..4c+3, the dim % 4 tail chunks one dimension 4 times each.  Rows
/// past `count` repeat the last one.
template <std::size_t W, std::size_t R>
inline void pack_rows(const double* rows, std::size_t count,
                      std::size_t dim, double* packed) {
  const std::size_t whole = dim / 4;
  for (std::size_t r = 0; r < R * W / 4; ++r) {
    const double* src = rows + (r < count ? r : count - 1) * dim;
    double* dst = packed + 4 * r;
    for (std::size_t c = 0; c < whole; ++c) {
      std::memcpy(dst + c * R * W, src + 4 * c, 4 * sizeof(double));
    }
    for (std::size_t t = 0; t < dim % 4; ++t) {
      double* lane = dst + (whole + t) * R * W;
      for (std::size_t q = 0; q < 4; ++q) lane[q] = src[4 * whole + t];
    }
  }
}

/// Squared distances of the R·W/4 packed rows to the points b[0..3]:
/// lane 4g + q of out[p] pairs row p·W/4 + g with point q.
template <std::size_t W, std::size_t R>
inline void block(const double* packed, const double* const (&b)[4],
                  std::size_t dim, typename Lanes<W>::type (&out)[R]) {
  using V = typename Lanes<W>::type;
  V acc[R][4] = {};
  const std::size_t whole = dim / 4;
  const double* a = packed;
  for (std::size_t c = 0; c < whole; ++c, a += R * W) {
    const V bv[4] = {broadcast4<W>(b[0] + 4 * c), broadcast4<W>(b[1] + 4 * c),
                     broadcast4<W>(b[2] + 4 * c), broadcast4<W>(b[3] + 4 * c)};
    for (std::size_t p = 0; p < R; ++p) {
      const V av = load_lanes<W>(a + p * W);
      for (std::size_t q = 0; q < 4; ++q) {
        const V diff = av - bv[q];
        acc[p][q] += diff * diff;
      }
    }
  }
  for (std::size_t p = 0; p < R; ++p) out[p] = reduce4<W>(acc[p]);
  for (std::size_t d = 4 * whole; d < dim; ++d, a += R * W) {
    const double tail[4] = {b[0][d], b[1][d], b[2][d], b[3][d]};
    const V bv = broadcast4<W>(tail);
    for (std::size_t p = 0; p < R; ++p) {
      const V diff = load_lanes<W>(a + p * W) - bv;
      out[p] += diff * diff;
    }
  }
}

/// Distances of rows[0, count) (`dim` apart, packed by pack_rows<W, R>)
/// to points [j_begin, j_end) of `pts`; row r's go to out + r·n.
template <std::size_t W, std::size_t R>
void distance_span(const double* rows, std::size_t count,
                   const double* packed, const double* pts, std::size_t dim,
                   std::size_t j_begin, std::size_t j_end, double* out,
                   std::size_t n) {
  std::size_t j = j_begin;
  for (; j + 4 <= j_end; j += 4) {
    const double* b = pts + j * dim;
    typename Lanes<W>::type sq[R];
    block<W, R>(packed, {b, b + dim, b + 2 * dim, b + 3 * dim}, dim, sq);
    for (std::size_t p = 0; p < R; ++p) {
      double lanes[W];
      store_lanes<W>(lanes, sqrt_lanes<W>(sq[p]));
      for (std::size_t g = 0; g < W / 4 && p * W / 4 + g < count; ++g) {
        std::memcpy(out + (p * W / 4 + g) * n + j, lanes + 4 * g,
                    4 * sizeof(double));
      }
    }
  }
  for (; j < j_end; ++j) {
    for (std::size_t r = 0; r < count; ++r) {
      out[r * n + j] = __builtin_sqrt(
          squared_distance_lanes(rows + r * dim, pts + j * dim, dim));
    }
  }
}

/// kernels::distance_row's contract; an empty or inverted range is a
/// no-op (module 2's symmetric path issues them).
template <std::size_t W>
void distance_row_lanes(const double* a, const double* pts, std::size_t dim,
                        std::size_t j_begin, std::size_t j_end,
                        double* out_row) {
  if (j_begin >= j_end) return;
  const BlockScratch packed((dim / 4 + dim % 4) * W);
  pack_rows<W, 1>(a, 1, dim, packed.data());
  distance_span<W, 1>(a, 1, packed.data(), pts, dim, j_begin, j_end,
                      out_row, 0);
}

/// kernels::distance_rows' contract: groups of W rows (R = 4 row
/// vectors, the last group padded) against each j-tile.
template <std::size_t W>
void distance_rows_lanes(const double* all, std::size_t dim, std::size_t n,
                         std::size_t row_begin, std::size_t row_end,
                         std::size_t tile, double* out) {
  const std::size_t rows = row_end - row_begin;
  const BlockScratch packed((dim / 4 + dim % 4) * 4 * W);
  const std::size_t step = tile == 0 ? (n == 0 ? 1 : n) : tile;
  for (std::size_t jt = 0; jt < n; jt += step) {
    const std::size_t jt_end = n - jt < step ? n : jt + step;
    for (std::size_t i = 0; i < rows; i += W) {
      const double* group = all + (row_begin + i) * dim;
      const std::size_t count = rows - i < W ? rows - i : W;
      pack_rows<W, 4>(group, count, dim, packed.data());
      distance_span<W, 4>(group, count, packed.data(), all, dim, jt, jt_end,
                          out + i * n, n);
    }
  }
}

}  // namespace
}  // namespace dipdc::kernels::detail
