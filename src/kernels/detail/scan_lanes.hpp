// Module 3's histogram pass and splitter scan and module 4's range filter,
// written once over the lane types of detail/lanes.hpp: lanes_avx2.cpp
// instantiates them at W = 4 and lanes_avx512.cpp at W = 8.  Each lane
// runs the scalar reference on one element (histogram_bin_ref and
// bucket_of_ref of detail/canonical.hpp, in_rect_ref of filter.hpp) with
// the same IEEE operations: ordered compares, which are false for a NaN
// operand as the scalar `<=`, `>=` and `>` are, and a truncating
// conversion.  So the integer results are the scalar path's for every
// input, NaN and infinite values, keys equal to a splitter and
// degenerate windows included.  The last n % W elements run as one more
// vector, padded, with only their lanes kept.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>

#include "kernels/detail/lanes.hpp"

namespace dipdc::kernels::detail {
namespace {

/// p[0, count) in the first lanes, `pad` in the rest.
template <std::size_t W>
inline typename Lanes<W>::type load_partial(const double* p,
                                            std::size_t count, double pad) {
  typename Lanes<W>::type v = {};
  for (std::size_t l = 0; l < W; ++l) v[l] = l < count ? p[l] : pad;
  return v;
}

/// kernels::histogram's contract.
template <std::size_t W>
void histogram_lanes(const double* values, std::size_t n, double lo,
                     double bin_width, std::size_t bins,
                     std::uint64_t* hist) {
  using V = typename Lanes<W>::type;
  const V top = V{} + static_cast<double>(bins - 1);
  const auto count = [&](V v, std::size_t m) {
    V offset = (v - lo) / bin_width;
    offset = offset > 0.0 ? offset : V{};  // also catches NaN
    offset = offset > top ? top : offset;
    const auto bin = __builtin_convertvector(offset, typename Lanes<W>::ints);
    for (std::size_t l = 0; l < m; ++l) {
      ++hist[static_cast<unsigned>(bin[l])];
    }
  };
  std::size_t i = 0;
  for (; i + W <= n; i += W) count(load_lanes<W>(values + i), W);
  if (i < n) count(load_partial<W>(values + i, n - i, 0.0), n - i);
}

/// kernels::bucket_indices' contract: per lane, minus the sum of the
/// -1 masks of splitter <= v.
template <std::size_t W>
void bucket_indices_lanes(const double* values, std::size_t n,
                          const double* splitters, std::size_t nsplit,
                          std::uint32_t* out) {
  using V = typename Lanes<W>::type;
  const auto classify = [&](V v, std::size_t i, std::size_t m) {
    decltype(v < v) below = {};
    for (std::size_t s = 0; s < nsplit; ++s) below -= v >= splitters[s];
    // Modulo 2^32, as the scalar path's cast.
    const auto b = __builtin_convertvector(below, typename Lanes<W>::ints);
    if (m == W) {
      std::memcpy(out + i, &b, sizeof b);
    } else {
      for (std::size_t l = 0; l < m; ++l) {
        out[i + l] = static_cast<std::uint32_t>(b[l]);
      }
    }
  };
  std::size_t i = 0;
  for (; i + W <= n; i += W) classify(load_lanes<W>(values + i), i, W);
  if (i < n) classify(load_partial<W>(values + i, n - i, 0.0), i, n - i);
}

/// kernels::count_in_rect's contract.  Padding lanes are NaN, which no
/// window contains.
template <std::size_t W>
std::uint64_t count_in_rect_lanes(const double* xs, const double* ys,
                                  std::size_t n, double xmin, double ymin,
                                  double xmax, double ymax) {
  using V = typename Lanes<W>::type;
  decltype(V{} < V{}) inside = {};  // minus the matches, per lane
  const auto count = [&](V x, V y) {
    inside += (x >= xmin) & (x <= xmax) & (y >= ymin) & (y <= ymax);
  };
  std::size_t i = 0;
  for (; i + W <= n; i += W) {
    count(load_lanes<W>(xs + i), load_lanes<W>(ys + i));
  }
  if (i < n) {
    count(load_partial<W>(xs + i, n - i, __builtin_nan("")),
          load_partial<W>(ys + i, n - i, __builtin_nan("")));
  }
  std::uint64_t matches = 0;
  for (std::size_t l = 0; l < W; ++l) {
    matches -= static_cast<std::uint64_t>(inside[l]);
  }
  return matches;
}

}  // namespace
}  // namespace dipdc::kernels::detail
