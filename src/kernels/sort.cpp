// Scalar implementations + ISA dispatch for the sort-module kernels, and
// the scalar key sort.  Compiled with -ffp-contract=off (see distance.cpp)
// — moot for the integer results here, but the whole library keeps one
// contract.
#include "kernels/sort.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <memory>

#include "kernels/detail/canonical.hpp"

namespace dipdc::kernels {

namespace {

constexpr std::uint64_t kSignBit = std::uint64_t{1} << 63;
constexpr unsigned kDigitBits = 8;
constexpr std::size_t kRadix = std::size_t{1} << kDigitBits;

/// The order-preserving image of a key: unsigned comparison of images is
/// the IEEE total order of the keys.
std::uint64_t key_image(double x) {
  const auto u = std::bit_cast<std::uint64_t>(x);
  return (u & kSignBit) != 0 ? ~u : (u | kSignBit);
}

double image_key(std::uint64_t k) {
  return std::bit_cast<double>((k & kSignBit) != 0 ? (k & ~kSignBit) : ~k);
}

// Between the two mappings the array holds images, some of which are NaN
// bit patterns as doubles; they are only ever moved through these two, never
// used as floating-point operands.
std::uint64_t load(const double* v, std::size_t i) {
  return std::bit_cast<std::uint64_t>(v[i]);
}

void store(double* v, std::size_t i, std::uint64_t k) {
  v[i] = std::bit_cast<double>(k);
}

void insertion_sort(double* v, std::size_t n) {
  for (std::size_t i = 1; i < n; ++i) {
    const std::uint64_t k = load(v, i);
    std::size_t j = i;
    for (; j > 0 && load(v, j - 1) > k; --j) store(v, j, load(v, j - 1));
    store(v, j, k);
  }
}

/// Sorts the images in v[0, n), n <= kSortKeysScratch, through scratch[0, n):
/// one counting scatter on the highest bits where the keys differ, a copy
/// back, recursion into the buckets too big for insertion sort, and one
/// insertion pass over the whole range, which finishes the small buckets
/// (it moves no key out of its bucket, and a sorted one costs a compare per
/// key).
void small_sort(double* v, std::size_t n, std::uint64_t* scratch) {
  if (n <= kSortKeysFinisher) {
    insertion_sort(v, n);
    return;
  }
  const std::uint64_t k0 = load(v, 0);
  std::uint64_t diff = 0;
  for (std::size_t i = 1; i < n; ++i) diff |= load(v, i) ^ k0;
  if (diff == 0) return;  // every key is equal
  // A digit of about log2(n) bits leaves a few keys per bucket; more bits
  // would only lengthen the bucket loops.
  const auto width = static_cast<unsigned>(std::bit_width(diff));
  const unsigned bits = std::min(
      {kDigitBits, static_cast<unsigned>(std::bit_width(n)) - 1, width});
  const unsigned shift = width - bits;
  const std::size_t mask = (std::size_t{1} << bits) - 1;
  const auto digit = [shift, mask](std::uint64_t k) {
    return static_cast<std::size_t>(k >> shift) & mask;
  };
  // next[b] becomes the number of keys whose digit is below b (bucket b's
  // first slot); the scatter advances it to where bucket b ends.
  std::size_t next[kRadix + 1] = {};
  for (std::size_t i = 0; i < n; ++i) ++next[digit(load(v, i)) + 1];
  for (std::size_t b = 1; b <= mask; ++b) next[b] += next[b - 1];
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t k = load(v, i);
    scratch[next[digit(k)]++] = k;
  }
  std::memcpy(v, scratch, n * sizeof(double));
  // At shift 0 the digit holds every bit that differs: each bucket is one
  // key repeated.
  if (shift > 0) {
    std::size_t begin = 0;
    for (std::size_t b = 0; b <= mask; ++b) {
      if (next[b] - begin > kSortKeysFinisher) {
        small_sort(v + begin, next[b] - begin, scratch);
      }
      begin = next[b];
    }
  }
  insertion_sort(v, n);
}

/// MSD radix sort of the images in v[0, n) on the digit at `shift` and
/// below; every higher digit is equal across the range.  Ranges that fit
/// the scratch go to small_sort instead.
void radix_sort(double* v, std::size_t n, unsigned shift,
                std::uint64_t* scratch) {
  if (n <= kSortKeysScratch) {
    small_sort(v, n, scratch);
    return;
  }
  const auto digit = [shift](std::uint64_t k) {
    return static_cast<std::size_t>(k >> shift) & (kRadix - 1);
  };
  // head[] counts the keys of each digit, then becomes each bucket's next
  // unplaced slot.  Each level takes 8 more bits, and a range stays on this
  // path only while it holds more than kSortKeysScratch keys.
  std::size_t head[kRadix] = {};
  for (std::size_t i = 0; i < n; ++i) ++head[digit(load(v, i))];
  // A digit every key shares sorts nothing: go straight to the next one.
  if (head[digit(load(v, 0))] == n) {
    if (shift > 0) radix_sort(v, n, shift - kDigitBits, scratch);
    return;
  }
  std::size_t end[kRadix];
  std::size_t sum = 0;
  for (std::size_t b = 0; b < kRadix; ++b) {
    const std::size_t count = head[b];
    head[b] = sum;
    sum += count;
    end[b] = sum;
  }
  // American flag permutation: take the first unplaced key of bucket b and
  // swap it along the cycle of the buckets it belongs to until a key of
  // bucket b comes back to fill the hole.
  for (std::size_t b = 0; b < kRadix; ++b) {
    for (; head[b] < end[b]; ++head[b]) {
      std::uint64_t k = load(v, head[b]);
      std::size_t d = digit(k);
      if (d == b) continue;  // already in place
      do {
        const std::uint64_t displaced = load(v, head[d]);
        store(v, head[d]++, k);
        k = displaced;
        d = digit(k);
      } while (d != b);
      store(v, head[b], k);
    }
  }
  if (shift == 0) return;
  std::size_t begin = 0;
  for (std::size_t b = 0; b < kRadix; ++b) {
    if (end[b] - begin > 1) {
      radix_sort(v + begin, end[b] - begin, shift - kDigitBits, scratch);
    }
    begin = end[b];
  }
}

}  // namespace

void sort_keys(double* v, std::size_t n) {
  if (n < 2) return;
  std::uint64_t lo = ~std::uint64_t{0};
  std::uint64_t hi = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t k = key_image(v[i]);
    store(v, i, k);
    lo = std::min(lo, k);
    hi = std::max(hi, k);
  }
  // Every digit above the highest bit where the extremes differ is shared.
  if (lo != hi) {
    const auto scratch = std::make_unique_for_overwrite<std::uint64_t[]>(
        std::min(n, kSortKeysScratch));
    const auto top = static_cast<unsigned>(std::bit_width(lo ^ hi)) - 1;
    radix_sort(v, n, top / kDigitBits * kDigitBits, scratch.get());
  }
  for (std::size_t i = 0; i < n; ++i) v[i] = image_key(load(v, i));
}

void histogram(Isa isa, const double* values, std::size_t n, double lo,
               double bin_width, std::size_t bins, std::uint64_t* hist) {
  if (isa == Isa::kSimd) {
    detail::histogram_avx2(values, n, lo, bin_width, bins, hist);
    return;
  }
  for (std::size_t i = 0; i < n; ++i) {
    ++hist[detail::histogram_bin_ref(values[i], lo, bin_width, bins)];
  }
}

void bucket_indices(Isa isa, const double* values, std::size_t n,
                    const double* splitters, std::size_t nsplit,
                    std::uint32_t* out) {
  if (isa == Isa::kSimd) {
    detail::bucket_indices_avx2(values, n, splitters, nsplit, out);
    return;
  }
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::uint32_t>(
        detail::bucket_of_ref(values[i], splitters, nsplit));
  }
}

}  // namespace dipdc::kernels
