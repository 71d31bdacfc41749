// Dispatched weight quantization (the elastic container's rebalance).
//
// A container rebalance decides from the quantized weight sum of every
// rank's part, so each call quantizes every local weight: O(n) on the
// host even when only p words go on the wire.  `quantize_weights` is that
// pass.  Its `Isa::kSimd` tier is detail/quantize_lanes.hpp at W = 8
// (quantize_avx512.cpp), where avx512_supported(); without AVX-512 it runs
// the scalar loop, because AVX2 has no double -> 64-bit integer
// conversion.  Every tier returns the same bits as the scalar loop.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>

#include "kernels/dispatch.hpp"

namespace dipdc::kernels {

/// quantize_weight's fixed scale: a unit weight quantizes to 1024.
inline constexpr double kWeightScale = 1024.0;

/// Quantizes one measured (double) weight for the integer cut rule:
/// max(1, llround(w * scale)).  The floor of 1 keeps prefix sums strictly
/// increasing (zero-weight elements still need an owner) and the fixed
/// scale keeps quantization independent of the weight distribution.
/// Below 2^52 llround is computed inline (a rebalance quantizes every
/// local element): truncate, then round up when the fraction, which is
/// exact there, is at least one half.  From 2^52 up (every double is
/// whole) and for NaN, std::llround decides.
inline std::uint64_t quantize_weight(double weight,
                                     double scale = kWeightScale) {
  const double scaled = weight * scale;
  if (scaled <= 1.0) return 1;
  if (scaled < 0x1p52) {
    const auto whole = static_cast<std::uint64_t>(scaled);
    return whole + (scaled - static_cast<double>(whole) >= 0.5 ? 1 : 0);
  }
  return static_cast<std::uint64_t>(std::llround(scaled));
}

/// Σ quantize_weight(weights[i], scale) over the n weights, as a 64-bit
/// unsigned sum (modulo 2^64, like the scalar loop's).  When `out` is
/// non-null, each term is also stored in out[i].
std::uint64_t quantize_weights(Isa isa, const double* weights, std::size_t n,
                               double scale, std::uint64_t* out);

namespace detail {
/// Weights per block of the SIMD tier: a block with a lane outside
/// (1, 2^52) takes the scalar form as a whole.
inline constexpr std::size_t kQuantizeBlock = 32;

/// Quantizes whole blocks from the front of `weights` while every lane
/// lies in (1, 2^52); adds their terms to *sum (and stores them in out,
/// when non-null) and returns how many weights it consumed.  It stops at
/// the first block with a lane outside that range, or when fewer than
/// kQuantizeBlock weights remain.
std::size_t quantize_weights_avx512(const double* weights, std::size_t n,
                                    double scale, std::uint64_t* out,
                                    std::uint64_t* sum);
}  // namespace detail

}  // namespace dipdc::kernels
