// GCC/Clang vector types of W lanes, shared by the kernels written once
// over a lane count (assign_lanes.hpp, quantize_lanes.hpp).  A tier is one
// instantiation in a TU built with that tier's -m flags and
// -ffp-contract=off.
//
// Everything here, and in the kernels built on it, has internal linkage
// and calls no library function (a fixed-size std::memcpy is a builtin):
// an out-of-line copy built with the AVX-512 TU's flags must never be the
// one the linker keeps for a TU built without them.
#pragma once

#include <cstddef>
#include <cstring>

namespace dipdc::kernels::detail {
namespace {

/// W doubles (`type`) and W unsigned 64-bit words (`words`).  Struct
/// member typedefs, because GCC drops the vector_size attribute on an
/// alias template.
template <std::size_t W>
struct Lanes {
  typedef double type __attribute__((vector_size(W * sizeof(double))));
  typedef unsigned long long words
      __attribute__((vector_size(W * sizeof(unsigned long long))));
};

template <std::size_t W>
inline typename Lanes<W>::type load_lanes(const double* p) {
  typename Lanes<W>::type v = {};
  std::memcpy(&v, p, sizeof v);
  return v;
}

template <std::size_t W>
inline void store_lanes(double* p, typename Lanes<W>::type v) {
  std::memcpy(p, &v, sizeof v);
}

}  // namespace
}  // namespace dipdc::kernels::detail
