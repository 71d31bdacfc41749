// Scalar implementation + ISA dispatch for the point-in-rect filter.
// Counting is pure integer accumulation, so there is no floating-point
// association to canonicalize — the contract is just "the same four
// ordered comparisons per point" (see filter.hpp).
#include "kernels/filter.hpp"

namespace dipdc::kernels {

std::uint64_t count_in_rect(Isa isa, const double* xs, const double* ys,
                            std::size_t n, double xmin, double ymin,
                            double xmax, double ymax) {
  if (isa == Isa::kSimd) {
    return (avx512_supported() ? detail::count_in_rect_avx512
                               : detail::count_in_rect_avx2)(
        xs, ys, n, xmin, ymin, xmax, ymax);
  }
  std::uint64_t matches = 0;
  for (std::size_t i = 0; i < n; ++i) {
    matches += detail::in_rect_ref(xs[i], ys[i], xmin, ymin, xmax, ymax)
                   ? 1u
                   : 0u;
  }
  return matches;
}

}  // namespace dipdc::kernels
