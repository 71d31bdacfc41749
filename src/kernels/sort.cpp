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

/// A range of more than kSortKeysScratch keys is distributed in blocks of
/// this many keys, one buffer per bucket: the buffers are the scratch.
constexpr std::size_t kBlock = kSortKeysScratch / kRadix;
static_assert(kBlock * kRadix == kSortKeysScratch);

std::size_t align_up(std::size_t i) {
  return (i + kBlock - 1) / kBlock * kBlock;
}

void copy_block(void* to, const void* from) {
  std::memcpy(to, from, kBlock * sizeof(double));
}

/// Steps 1 and 2 of a block level.  Classify: stream v[0, n) through one
/// kBlock-key buffer per bucket, flushing each full buffer as a block to
/// the front of v, behind the read position; each bucket's remainder stays
/// in its buffer.  Permute: move every block into its bucket's run of
/// kBlock-aligned slots, which start at the first slot boundary inside the
/// bucket.  A slot that runs past n is written to `overflow` instead.
/// Bucket b's keys belong in v[bound[b], bound[b + 1]).
void classify_and_permute(double* v, std::size_t n, unsigned shift,
                          std::uint64_t* buffers, double* overflow,
                          std::size_t* bound) {
  const auto digit = [shift](std::uint64_t k) {
    return static_cast<std::size_t>(k >> shift) & (kRadix - 1);
  };
  // count[b]'s low bits are bucket b's buffer fill.
  std::size_t count[kRadix] = {};
  std::size_t flushed = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t k = load(v, i);
    const std::size_t b = digit(k);
    std::uint64_t* buffer = buffers + b * kBlock;
    buffer[count[b] % kBlock] = k;
    if (++count[b] % kBlock == 0) {
      copy_block(v + flushed, buffer);
      flushed += kBlock;
    }
  }

  // Slots [write[b], read[b]) still hold blocks not yet looked at; slots
  // from max(write[b], read[b]) to bucket b+1's first slot are free.
  std::size_t write[kRadix] = {};
  std::size_t read[kRadix] = {};
  std::size_t sum = 0;
  for (std::size_t b = 0; b < kRadix; ++b) {
    bound[b] = sum;
    sum += count[b];
    write[b] = align_up(bound[b]);
    read[b] = std::max(write[b], std::min(align_up(sum), flushed));
  }
  bound[kRadix] = n;

  // Each bucket in turn hands its last unread block to the slot where that
  // block belongs.  An unread block found there is carried on in the other
  // swap block, until a block lands in a free slot.
  const auto skip_placed = [&](std::size_t b) {
    while (write[b] < read[b] && digit(load(v, write[b])) == b) {
      write[b] += kBlock;
    }
  };
  std::uint64_t swap[2][kBlock] = {};
  for (std::size_t p = 0; p < kRadix; ++p) {
    for (skip_placed(p); write[p] < read[p]; skip_placed(p)) {
      read[p] -= kBlock;
      copy_block(swap[0], v + read[p]);
      for (std::size_t held = 0;; held ^= 1) {
        const std::size_t b = digit(swap[held][0]);
        skip_placed(b);
        const std::size_t slot = write[b];
        write[b] += kBlock;
        if (slot >= read[b]) {
          copy_block(slot + kBlock <= n ? v + slot : overflow, swap[held]);
          break;
        }
        copy_block(swap[held ^ 1], v + slot);
        copy_block(v + slot, swap[held]);
      }
    }
  }
}

/// Step 3 of a block level: bucket b's blocks fill the aligned slots from
/// its first slot boundary, so its unaligned head (before that boundary)
/// and tail (after its last block) are still empty, and its last block may
/// spill past the bucket's end into the next bucket's head.  In bucket
/// order, each bucket takes its spilled keys back before the next bucket
/// writes its head, and fills head and tail from them and its buffer.
void fill_heads_and_tails(double* v, std::size_t n, const std::size_t* bound,
                          const std::uint64_t* buffers,
                          const double* overflow) {
  for (std::size_t b = 0; b < kRadix; ++b) {
    const std::size_t begin = bound[b];
    const std::size_t end = bound[b + 1];
    const std::size_t first_slot = align_up(begin);
    const std::size_t fill = (end - begin) % kBlock;
    const std::size_t placed = first_slot + (end - begin - fill);
    const std::uint64_t* buffer = buffers + b * kBlock;
    // A bucket with no blocks has placed == first_slot, which may lie past
    // its end; one with blocks starts its first block before its end.
    const std::size_t spill = placed > std::max(first_slot, end)
                                  ? placed - end : 0;
    if (spill > 0) {
      const double* spilled = v + end;
      if (placed > n) {
        // The last block went to the overflow block: its first keys belong
        // in the bucket's last slot, the rest are the spill.
        const std::size_t slot = placed - kBlock;
        std::memcpy(v + slot, overflow, (end - slot) * sizeof(double));
        spilled = overflow + (end - slot);
      }
      // The tail is empty: the head is all there is to fill.
      std::memcpy(v + begin, spilled, spill * sizeof(double));
      std::memcpy(v + begin + spill, buffer, fill * sizeof(double));
      continue;
    }
    const std::size_t head = std::min(first_slot, end) - begin;
    std::memcpy(v + begin, buffer, head * sizeof(double));
    if (fill > head) {
      std::memcpy(v + placed, buffer + head, (fill - head) * sizeof(double));
    }
  }
}

/// MSD radix sort of the images in v[0, n) on the digit at `shift` and
/// below; every higher digit is equal across the range.  Ranges that fit
/// the scratch go to small_sort; a larger one is distributed on its digit
/// by one block level (IPS4o's in-place block distribution, with the
/// scratch as the bucket buffers) and each bucket is recursed into.
void radix_sort(double* v, std::size_t n, unsigned shift,
                std::uint64_t* scratch) {
  if (n <= kSortKeysScratch) {
    small_sort(v, n, scratch);
    return;
  }
  double overflow[kBlock] = {};
  std::size_t bound[kRadix + 1] = {};
  classify_and_permute(v, n, shift, scratch, overflow, bound);
  fill_heads_and_tails(v, n, bound, scratch, overflow);
  if (shift == 0) return;
  for (std::size_t b = 0; b < kRadix; ++b) {
    const std::size_t begin = bound[b];
    const std::size_t size = bound[b + 1] - begin;
    if (size > 1) radix_sort(v + begin, size, shift - kDigitBits, scratch);
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
