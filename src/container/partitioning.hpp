// Range-based, owner-computes partitioning of a 1-D index space.
//
// A Partitioning over `total` elements and `parts` owners is a monotone cut
// vector: part r owns the contiguous global range [begin(r), end(r)).
// Weight-driven cuts are computed with pure integer arithmetic over
// quantized per-element weights, so every rank that holds the same weight
// vector derives bit-identical cuts — there is no distributed agreement
// problem and no float-associativity hazard (the laik partitioner idea,
// made deterministic).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "kernels/quantize.hpp"

namespace dipdc::container {

class Partitioning {
 public:
  Partitioning() = default;

  /// Equal-count block partitioning (the classic startup layout): part r
  /// owns total/parts elements, the first total%parts parts one extra.
  static Partitioning block(std::size_t total, int parts);

  /// Weight-driven cuts over `weights` (one entry per global element, all
  /// entries >= 1): cut r is the smallest index i with
  ///   prefix(i) * parts >= r * total_weight
  /// — the deterministic integer analogue of "each part gets 1/parts of
  /// the total weight".  Cuts are non-decreasing because weights are
  /// strictly positive.
  static Partitioning from_weights(std::span<const std::uint64_t> weights,
                                   int parts);

  /// Explicit cut vector (size parts+1, monotone, cuts[0]==0).
  static Partitioning from_cuts(std::vector<std::size_t> cuts);

  [[nodiscard]] std::size_t total() const {
    return cuts_.empty() ? 0 : cuts_.back();
  }
  [[nodiscard]] int parts() const {
    return cuts_.empty() ? 0 : static_cast<int>(cuts_.size()) - 1;
  }
  [[nodiscard]] std::size_t begin(int part) const {
    return cuts_[static_cast<std::size_t>(part)];
  }
  [[nodiscard]] std::size_t end(int part) const {
    return cuts_[static_cast<std::size_t>(part) + 1];
  }
  [[nodiscard]] std::size_t count(int part) const {
    return end(part) - begin(part);
  }
  /// Owner of global element `index` (binary search over the cuts).
  [[nodiscard]] int owner(std::size_t index) const;

  /// max part weight / mean part weight under `weights` (1.0 = balanced).
  [[nodiscard]] double imbalance(
      std::span<const std::uint64_t> weights) const;
  /// max part count / mean part count (unit-weight imbalance).
  [[nodiscard]] double count_imbalance() const;
  /// max / mean over per-part weight sums; 1.0 when there is no weight.
  /// The one imbalance formula: imbalance() and count_imbalance() sum
  /// their parts and call it, and a container rebalance feeds it the p
  /// allgathered part sums, so both derive the same double.
  static double imbalance_of_sums(std::span<const std::uint64_t> part_sums);

  [[nodiscard]] const std::vector<std::size_t>& cuts() const { return cuts_; }

  bool operator==(const Partitioning&) const = default;

 private:
  explicit Partitioning(std::vector<std::size_t> cuts)
      : cuts_(std::move(cuts)) {}

  std::vector<std::size_t> cuts_;  // size parts+1; cuts_[0] == 0
};

/// The cut rule's weight quantization, max(1, llround(w * scale)); it
/// lives with its dispatched vector form in kernels/quantize.hpp.
using kernels::quantize_weight;

/// quantize_weight() over a whole weight vector, on the `isa` tier of
/// kernels::quantize_weights (every tier gives the same bits).
std::vector<std::uint64_t> quantize_weights(
    std::span<const double> weights, double scale = kernels::kWeightScale,
    kernels::Isa isa = kernels::Isa::kScalar);

}  // namespace dipdc::container
