// The quantized weight sum of kernels/quantize.hpp, written once over the
// lane types of detail/lanes.hpp.  A tier is one instantiation:
// quantize_avx512.cpp, at W = 8.
//
// Inside (1, 2^52), kernels::quantize_weight's inline llround is
// floor(s + 0.5) for s = w * scale: 0.5 is a whole number of ulps of s
// there, so s + 0.5 is exact, or (when it enters the next binade) a tie
// that cannot round up onto a whole number.  The truncating conversion of
// a positive double is its floor, so a lane computes the term with one
// multiply, one add and one conversion.
//
// A block is 4·W weights in four named vectors.  When any lane of a block
// is at or below 1, at or above 2^52, or NaN, the body stops in front of
// it, and the dispatcher (quantize.cpp) runs the scalar form over that
// block.  So no lane ever converts a value it would quantize differently.
// The terms are summed as unsigned 64-bit lanes: addition modulo 2^64 does
// not depend on its order, so the sum is the scalar loop's to the bit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <utility>

#include "kernels/detail/lanes.hpp"

namespace dipdc::kernels::detail {
namespace {

/// -1 in each lane of `s` that lies in (1, 2^52), else 0 (NaN too).
template <std::size_t W>
inline auto in_range(typename Lanes<W>::type s) {
  return (s > 1.0) & (s < 0x1p52);
}

/// The AND of a mask's W lanes, folded in halves: log2(W) shuffles.
template <std::size_t W, class Mask>
inline long long and_lanes(Mask m) {
  if constexpr (W == 1) {
    return m[0];
  } else {
    const auto halves = [m]<std::size_t... I>(std::index_sequence<I...>) {
      return __builtin_shufflevector(m, m, I...) &
             __builtin_shufflevector(m, m, (W / 2 + I)...);
    };
    return and_lanes<W / 2>(halves(std::make_index_sequence<W / 2>{}));
  }
}

/// detail::quantize_weights_avx512's contract at W lanes.
template <std::size_t W>
std::size_t quantize_weights_lanes(const double* weights, std::size_t n,
                                   double scale, std::uint64_t* out,
                                   std::uint64_t* sum) {
  using V = typename Lanes<W>::type;
  using U = typename Lanes<W>::words;
  constexpr std::size_t kBlock = 4 * W;
  U acc = {};
  std::size_t i = 0;
  for (; i + kBlock <= n; i += kBlock) {
    const double* w = weights + i;
    const V s0 = load_lanes<W>(w) * scale;
    const V s1 = load_lanes<W>(w + W) * scale;
    const V s2 = load_lanes<W>(w + 2 * W) * scale;
    const V s3 = load_lanes<W>(w + 3 * W) * scale;
    const auto in = (in_range<W>(s0) & in_range<W>(s1)) &
                    (in_range<W>(s2) & in_range<W>(s3));
    if (and_lanes<W>(in) == 0) break;
    const U q0 = __builtin_convertvector(s0 + 0.5, U);
    const U q1 = __builtin_convertvector(s1 + 0.5, U);
    const U q2 = __builtin_convertvector(s2 + 0.5, U);
    const U q3 = __builtin_convertvector(s3 + 0.5, U);
    acc += (q0 + q1) + (q2 + q3);
    if (out != nullptr) {
      std::memcpy(out + i, &q0, sizeof q0);
      std::memcpy(out + i + W, &q1, sizeof q1);
      std::memcpy(out + i + 2 * W, &q2, sizeof q2);
      std::memcpy(out + i + 3 * W, &q3, sizeof q3);
    }
  }
  std::uint64_t total = 0;
  for (std::size_t l = 0; l < W; ++l) total += acc[l];
  *sum += total;
  return i;
}

}  // namespace
}  // namespace dipdc::kernels::detail
