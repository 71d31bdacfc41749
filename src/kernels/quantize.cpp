// Scalar weight quantization + ISA dispatch.  Compiled with
// -ffp-contract=off (see distance.cpp).
#include "kernels/quantize.hpp"

#include <algorithm>

namespace dipdc::kernels {

namespace {

std::uint64_t quantize_scalar(const double* weights, std::size_t n,
                              double scale, std::uint64_t* out) {
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t q = quantize_weight(weights[i], scale);
    sum += q;
    if (out != nullptr) out[i] = q;
  }
  return sum;
}

}  // namespace

std::uint64_t quantize_weights(Isa isa, const double* weights, std::size_t n,
                               double scale, std::uint64_t* out) {
  if (isa != Isa::kSimd || !avx512_supported()) {
    return quantize_scalar(weights, n, scale, out);
  }
  // The lanes stop in front of a block they cannot quantize exactly, and
  // at the short tail; the scalar form takes that block and they resume.
  std::uint64_t sum = 0;
  std::size_t i = 0;
  while (i < n) {
    i += detail::quantize_weights_avx512(weights + i, n - i, scale,
                                         out != nullptr ? out + i : nullptr,
                                         &sum);
    const std::size_t end = std::min(n, i + detail::kQuantizeBlock);
    sum += quantize_scalar(weights + i, end - i, scale,
                           out != nullptr ? out + i : nullptr);
    i = end;
  }
  return sum;
}

}  // namespace dipdc::kernels
