// Kernels for module 3: the rank-0 histogram pass and the per-element
// bucket classification (splitter scan), both dispatched, plus the local
// key sort, which is scalar only.
//
// The two dispatched kernels produce integers, so bit-identity here means
// "the same bins and buckets" — guaranteed because the offset arithmetic
// and the comparisons are the identical IEEE operations in both paths (see
// detail/canonical.hpp for the scalar reference).  sort_keys produces the
// keys themselves, permuted; it does no arithmetic at all.
#pragma once

#include <cstddef>
#include <cstdint>

#include "kernels/dispatch.hpp"

namespace dipdc::kernels {

/// Increments hist[bin(v)] for every value: bin = clamp((v - lo) /
/// bin_width, 0, bins - 1) truncated toward zero.  `hist` has `bins`
/// entries and is NOT cleared first (callers can accumulate).
void histogram(Isa isa, const double* values, std::size_t n, double lo,
               double bin_width, std::size_t bins, std::uint64_t* hist);

/// out[i] = number of splitters <= values[i] (std::upper_bound's index
/// over the ascending `splitters`): the destination bucket/rank of each
/// element.  Requires nsplit < 2^32.
void bucket_indices(Isa isa, const double* values, std::size_t n,
                    const double* splitters, std::size_t nsplit,
                    std::uint32_t* out);

/// Buckets of at most this many keys are finished by insertion sort
/// instead of another radix pass.
inline constexpr std::size_t kSortKeysFinisher = 32;

/// Ranges of at most this many keys are sorted through a scratch buffer
/// instead of in place (128 KiB of images); larger ones use the same
/// scratch as their 256 bucket buffers of 64 keys.
inline constexpr std::size_t kSortKeysScratch = 16384;

/// Sorts v[0, n) ascending in place, allocating nothing proportional to n:
/// its one allocation is a scratch of min(n, kSortKeysScratch) images.
/// Each key is mapped to its order-preserving 64-bit image (sign bit set
/// for non-negative keys, all bits flipped for negative ones), and the
/// images are MSD radix sorted.  Ranges of more than kSortKeysScratch keys
/// take 8 bits at a time by an in-place block distribution: the scratch
/// serves as 256 bucket buffers of 64 keys, full buffers are flushed as
/// blocks, the blocks are permuted into their buckets, and each bucket's
/// unaligned ends are filled from its buffer.  A range of at most
/// kSortKeysScratch keys is scattered once through the scratch on the
/// highest bits where its keys differ, its big buckets are recursed into
/// the same way, and one insertion pass finishes it.  The images are then
/// mapped back.  The result is the total order of those images, which
/// agrees with operator< wherever operator< is a strict weak order, so it
/// is bit-identical to std::sort's for every input without NaN and
/// without both zeros.  Where std::sort leaves the order
/// unspecified it is fixed here: -0.0 sorts before +0.0, NaNs with the
/// sign bit set sort before -inf, and NaNs without it sort after +inf.
void sort_keys(double* v, std::size_t n);

namespace detail {
void histogram_avx2(const double* values, std::size_t n, double lo,
                    double bin_width, std::size_t bins, std::uint64_t* hist);
void bucket_indices_avx2(const double* values, std::size_t n,
                         const double* splitters, std::size_t nsplit,
                         std::uint32_t* out);
}  // namespace detail

}  // namespace dipdc::kernels
