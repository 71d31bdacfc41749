// GCC/Clang vector types of W lanes, shared by the kernels written once
// over a lane count (assign_lanes.hpp, distance_lanes.hpp,
// quantize_lanes.hpp, scan_lanes.hpp).  A tier is one instantiation in a
// TU built with that tier's -m flags, -ffp-contract=off and
// -fno-math-errno: lanes_avx2.cpp at W = 4 and lanes_avx512.cpp at W = 8.
//
// Everything here, and in the kernels built on it, has internal linkage
// and calls no library function (a fixed-size std::memcpy is a builtin,
// and __builtin_sqrt is one instruction without errno): an out-of-line
// copy built with the AVX-512 TU's flags must never be the one the linker
// keeps for a TU built without them.  The kernels_tier_linkage test checks
// the objects for such copies.
#pragma once

#include <immintrin.h>

#include <cstddef>
#include <cstring>
#include <new>

namespace dipdc::kernels::detail {
namespace {

/// W doubles (`type`), W unsigned 64-bit words (`words`) and W 32-bit
/// ints (`ints`).  Struct member typedefs, because GCC drops the
/// vector_size attribute on an alias template.
template <std::size_t W>
struct Lanes {
  typedef double type __attribute__((vector_size(W * sizeof(double))));
  typedef unsigned long long words
      __attribute__((vector_size(W * sizeof(unsigned long long))));
  typedef int ints __attribute__((vector_size(W * sizeof(int))));
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

/// p[0..3] in every group of 4 lanes.  W = 8 is built only under
/// AVX-512, where GCC 12 does not fold the shuffle form into a
/// memory-operand vbroadcastf64x4 (about 6% of module 2's block kernel),
/// hence the one intrinsic.  GCC 12's header builds its "undefined"
/// pass-through operand from a self-initialised variable, which trips
/// -Wmaybe-uninitialized once inlined, so that warning is off here.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
template <std::size_t W>
inline typename Lanes<W>::type broadcast4(const double* p) {
  if constexpr (W == 4) {
    return load_lanes<4>(p);
  } else {
    return _mm512_broadcast_f64x4(load_lanes<4>(p));
  }
}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

/// A correctly rounded root per lane (vsqrtpd under -fno-math-errno).
template <std::size_t W>
inline typename Lanes<W>::type sqrt_lanes(typename Lanes<W>::type v) {
  for (std::size_t l = 0; l < W; ++l) v[l] = __builtin_sqrt(v[l]);
  return v;
}

/// `doubles` doubles of scratch, 64-byte aligned so that every lane
/// vector sits in one cache line.
class BlockScratch {
 public:
  explicit BlockScratch(std::size_t doubles)
      : data_(static_cast<double*>(::operator new(doubles * sizeof(double),
                                                  std::align_val_t{64}))) {}
  BlockScratch(const BlockScratch&) = delete;
  BlockScratch& operator=(const BlockScratch&) = delete;
  ~BlockScratch() { ::operator delete(data_, std::align_val_t{64}); }
  [[nodiscard]] double* data() const { return data_; }

 private:
  double* data_;
};

}  // namespace
}  // namespace dipdc::kernels::detail
