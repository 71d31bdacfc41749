// AVX-512 weight quantization: detail/quantize_lanes.hpp at W = 8, four
// zmm per block of 32 weights.  Built with the flags kmeans_avx512.cpp
// gets; otherwise the stub at the bottom keeps the link whole (dispatch
// never selects it: avx512_supported() is false without
// DIPDC_KERNELS_HAVE_AVX512).
#include "kernels/quantize.hpp"

#if defined(__AVX512F__) && defined(__AVX512DQ__)

#include "kernels/detail/quantize_lanes.hpp"

namespace dipdc::kernels::detail {

static_assert(kQuantizeBlock == 4 * 8, "a block is four zmm of weights");

std::size_t quantize_weights_avx512(const double* weights, std::size_t n,
                                    double scale, std::uint64_t* out,
                                    std::uint64_t* sum) {
  return quantize_weights_lanes<8>(weights, n, scale, out, sum);
}

}  // namespace dipdc::kernels::detail

#else  // no AVX-512 — a never-dispatched stub so the library always links.

#include <cstdlib>

namespace dipdc::kernels::detail {

std::size_t quantize_weights_avx512(const double*, std::size_t, double,
                                    std::uint64_t*, std::uint64_t*) {
  std::abort();
}

}  // namespace dipdc::kernels::detail

#endif  // __AVX512F__ && __AVX512DQ__
