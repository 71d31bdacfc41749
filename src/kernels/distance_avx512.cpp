// AVX-512 distance block kernel.  Compiled with -mavx512f -mavx512dq
// -ffp-contract=off when the toolchain accepts those flags; otherwise the
// stub at the bottom keeps the link whole (dispatch never selects it:
// avx512_supported() is false without DIPDC_KERNELS_HAVE_AVX512).
//
// Same canonical scheme as the scalar and AVX2 paths
// (kernels/detail/canonical.hpp): every (row, point) pair keeps its own
// 4-lane accumulator, steps with explicit sub/mul/add, reduces as
// (l0+l2)+(l1+l3), then folds the dim % 4 tail in sequentially.  The
// wider register only holds two rows' 4-lane blocks side by side, so all
// three paths return the same bits.
//
// This TU uses nothing but intrinsics and raw pointers: an inline
// function or template from a shared header, compiled here with AVX-512
// enabled, could be the copy the linker keeps for every TU, and would
// then fault on a host without AVX-512.
#include "kernels/distance.hpp"

#if defined(__AVX512F__) && defined(__AVX512DQ__)

#include <immintrin.h>

#include <new>

// GCC 12's AVX-512 headers build the "undefined" pass-through operand of
// broadcasts and shuffles from a self-initialised variable, which trips
// -Wmaybe-uninitialized (an error under -Werror) once inlined here.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

namespace dipdc::kernels::detail {

namespace {

/// Rows per micro-kernel group (two per zmm, four zmm row pairs).
constexpr std::size_t kGroupRows = 8;
/// Doubles of one packed 4-dimension chunk: 4 row pairs x 8 lanes.
constexpr std::size_t kChunkDoubles = 32;
/// Packed groups up to this size (dim <= 128) live on the stack.
constexpr std::size_t kStackDoubles = (128 / 4 + 3) * kChunkDoubles;

/// One group's 8 query rows, pair-interleaved: chunk c holds, for each
/// row pair p, the 8 doubles [row 2p dims 4c..4c+3 | row 2p+1 dims
/// 4c..4c+3].  After the dim / 4 whole chunks come dim % 4 tail chunks,
/// one per tail dimension t, holding [row 2p dim t x4 | row 2p+1 dim t
/// x4] so the tail can run on the same lanes as the reduced results.
class PackedRows {
 public:
  explicit PackedRows(std::size_t dim)
      : chunks_(dim / 4 + dim % 4),
        heap_(chunks_ * kChunkDoubles > kStackDoubles
                  ? static_cast<double*>(::operator new(
                        chunks_ * kChunkDoubles * sizeof(double),
                        std::align_val_t{64}))
                  : nullptr) {}
  PackedRows(const PackedRows&) = delete;
  PackedRows& operator=(const PackedRows&) = delete;
  ~PackedRows() {
    if (heap_ != nullptr) ::operator delete(heap_, std::align_val_t{64});
  }

  [[nodiscard]] const double* data() const {
    return heap_ != nullptr ? heap_ : stack_;
  }

  /// Copies the 8 consecutive rows starting at `rows` into the layout.
  void pack(const double* rows, std::size_t dim) {
    double* dst = heap_ != nullptr ? heap_ : stack_;
    const std::size_t whole = dim / 4 * 4;
    for (std::size_t r = 0; r < kGroupRows; ++r) {
      const double* src = rows + r * dim;
      // Row r is row pair r / 2, half r % 2 of each chunk.
      double* lane = dst + (r / 2) * 8 + (r % 2) * 4;
      for (std::size_t d = 0; d < whole; d += 4) {
        _mm256_storeu_pd(lane + d / 4 * kChunkDoubles,
                         _mm256_loadu_pd(src + d));
      }
      for (std::size_t d = whole; d < dim; ++d) {
        _mm256_storeu_pd(lane + (d / 4 + d % 4) * kChunkDoubles,
                         _mm256_set1_pd(src[d]));
      }
    }
  }

 private:
  std::size_t chunks_;
  double* heap_;
  alignas(64) double stack_[kStackDoubles];
};

inline __m512d accumulate_sq_diff(__m512d acc, __m512d a, __m512d b) {
  const __m512d diff = _mm512_sub_pd(a, b);
  return _mm512_add_pd(acc, _mm512_mul_pd(diff, diff));
}

/// Reduces one row pair's 4 accumulators (one per partner point; lanes
/// 0-3 row 2p, lanes 4-7 row 2p+1) to [r(2p, b0..b3) | r(2p+1, b0..b3)],
/// each lane the canonical (l0+l2)+(l1+l3) of its accumulator.
inline __m512d reduce_pair(__m512d a0, __m512d a1, __m512d a2, __m512d a3) {
  // 128-bit slots of acc j: [A l0 l1 | A l2 l3 | B l0 l1 | B l2 l3] (A =
  // row 2p, B = row 2p+1).  Adding slots 0+1 and 2+3 gives per row
  // (l0+l2, l1+l3); s01 = [A(b0) | B(b0) | A(b1) | B(b1)], s23 likewise.
  const __m512d s01 =
      _mm512_add_pd(_mm512_shuffle_f64x2(a0, a1, _MM_SHUFFLE(2, 0, 2, 0)),
                    _mm512_shuffle_f64x2(a0, a1, _MM_SHUFFLE(3, 1, 3, 1)));
  const __m512d s23 =
      _mm512_add_pd(_mm512_shuffle_f64x2(a2, a3, _MM_SHUFFLE(2, 0, 2, 0)),
                    _mm512_shuffle_f64x2(a2, a3, _MM_SHUFFLE(3, 1, 3, 1)));
  // (l0+l2) + (l1+l3): v = [A0, A2, B0, B2, A1, A3, B1, B3].
  const __m512d v = _mm512_add_pd(_mm512_unpacklo_pd(s01, s23),
                                  _mm512_unpackhi_pd(s01, s23));
  return _mm512_permutexvar_pd(_mm512_set_epi64(7, 3, 6, 2, 5, 1, 4, 0), v);
}

/// 8-row x 4-point micro-kernel: 16 accumulators (row pair x point), the
/// 4 broadcast partner chunks and the row-pair operand take 21 of the 32
/// zmm registers.  Each partner chunk is read in place and broadcast to
/// both halves.  Writes the 32 distances, roots included, to
/// out[r * n + 0..3] for group row r.
inline void rows8_x4(const double* packed, const double* b0,
                     const double* b1, const double* b2, const double* b3,
                     std::size_t dim, std::size_t n, double* out) {
  __m512d acc[4][4];
  for (auto& pair : acc) {
    for (auto& a : pair) a = _mm512_setzero_pd();
  }
  const std::size_t whole = dim / 4;
  const double* a = packed;
  for (std::size_t c = 0; c < whole; ++c, a += kChunkDoubles) {
    const std::size_t d = c * 4;
    const __m512d bv0 = _mm512_broadcast_f64x4(_mm256_loadu_pd(b0 + d));
    const __m512d bv1 = _mm512_broadcast_f64x4(_mm256_loadu_pd(b1 + d));
    const __m512d bv2 = _mm512_broadcast_f64x4(_mm256_loadu_pd(b2 + d));
    const __m512d bv3 = _mm512_broadcast_f64x4(_mm256_loadu_pd(b3 + d));
    for (std::size_t p = 0; p < 4; ++p) {
      const __m512d av = _mm512_load_pd(a + p * 8);
      acc[p][0] = accumulate_sq_diff(acc[p][0], av, bv0);
      acc[p][1] = accumulate_sq_diff(acc[p][1], av, bv1);
      acc[p][2] = accumulate_sq_diff(acc[p][2], av, bv2);
      acc[p][3] = accumulate_sq_diff(acc[p][3], av, bv3);
    }
  }
  __m512d result[4];
  for (std::size_t p = 0; p < 4; ++p) {
    result[p] = reduce_pair(acc[p][0], acc[p][1], acc[p][2], acc[p][3]);
  }
  // Tail dimensions, in order, on the reduced lanes: lane q of each half
  // pairs its row with point q.
  for (std::size_t d = whole * 4; d < dim; ++d, a += kChunkDoubles) {
    const __m512d bv = _mm512_broadcast_f64x4(
        _mm256_set_pd(b3[d], b2[d], b1[d], b0[d]));
    for (std::size_t p = 0; p < 4; ++p) {
      result[p] =
          accumulate_sq_diff(result[p], _mm512_load_pd(a + p * 8), bv);
    }
  }
  for (std::size_t p = 0; p < 4; ++p) {
    const __m512d root = _mm512_sqrt_pd(result[p]);
    _mm256_storeu_pd(out + 2 * p * n, _mm512_castpd512_pd256(root));
    _mm256_storeu_pd(out + (2 * p + 1) * n, _mm512_extractf64x4_pd(root, 1));
  }
}

}  // namespace

void distance_rows_avx512(const double* all, std::size_t dim, std::size_t n,
                          std::size_t row_begin, std::size_t row_end,
                          std::size_t tile, double* out) {
  const std::size_t rows = row_end - row_begin;
  const std::size_t grouped = rows / kGroupRows * kGroupRows;
  if (grouped > 0) {
    PackedRows packed(dim);
    const std::size_t step = tile == 0 ? (n == 0 ? 1 : n) : tile;
    for (std::size_t jt = 0; jt < n; jt += step) {
      const std::size_t jt_end = n - jt < step ? n : jt + step;
      for (std::size_t i = 0; i < grouped; i += kGroupRows) {
        const double* group = all + (row_begin + i) * dim;
        double* o = out + i * n;
        packed.pack(group, dim);
        std::size_t j = jt;
        for (; j + 4 <= jt_end; j += 4) {
          const double* b = all + j * dim;
          rows8_x4(packed.data(), b, b + dim, b + 2 * dim, b + 3 * dim, dim,
                   n, o + j);
        }
        if (j < jt_end) {
          for (std::size_t r = 0; r < kGroupRows; ++r) {
            distance_row_avx2(group + r * dim, all, dim, j, jt_end,
                              o + r * n);
          }
        }
      }
    }
  }
  if (grouped < rows) {
    distance_rows_avx2(all, dim, n, row_begin + grouped, row_end, tile,
                       out + grouped * n);
  }
}

}  // namespace dipdc::kernels::detail

#else  // no AVX-512 — a never-dispatched stub so the library always links.

#include <cstdlib>

namespace dipdc::kernels::detail {

void distance_rows_avx512(const double*, std::size_t, std::size_t,
                          std::size_t, std::size_t, std::size_t, double*) {
  std::abort();
}

}  // namespace dipdc::kernels::detail

#endif  // __AVX512F__ && __AVX512DQ__
