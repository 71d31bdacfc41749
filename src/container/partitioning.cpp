#include "container/partitioning.hpp"

#include <algorithm>
#include <numeric>

#include "support/error.hpp"

namespace dipdc::container {

Partitioning Partitioning::block(std::size_t total, int parts) {
  DIPDC_REQUIRE(parts > 0, "partitioning needs at least one part");
  std::vector<std::size_t> cuts(static_cast<std::size_t>(parts) + 1, 0);
  const std::size_t base = total / static_cast<std::size_t>(parts);
  const std::size_t extra = total % static_cast<std::size_t>(parts);
  for (int r = 0; r < parts; ++r) {
    cuts[static_cast<std::size_t>(r) + 1] =
        cuts[static_cast<std::size_t>(r)] + base +
        (static_cast<std::size_t>(r) < extra ? 1 : 0);
  }
  return Partitioning(std::move(cuts));
}

Partitioning Partitioning::from_weights(std::span<const std::uint64_t> weights,
                                        int parts) {
  DIPDC_REQUIRE(parts > 0, "partitioning needs at least one part");
  const std::size_t n = weights.size();
  // prefix[i] = sum of weights[0..i); 128-bit products below keep the cut
  // rule exact even for large weight totals.
  std::vector<std::uint64_t> prefix(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    DIPDC_REQUIRE(weights[i] >= 1, "element weights must be >= 1");
    prefix[i + 1] = prefix[i] + weights[i];
  }
  const std::uint64_t total_w = prefix[n];
  std::vector<std::size_t> cuts(static_cast<std::size_t>(parts) + 1, 0);
  cuts[static_cast<std::size_t>(parts)] = n;
  const auto p128 = static_cast<unsigned __int128>(parts);
  for (int r = 1; r < parts; ++r) {
    const unsigned __int128 target =
        static_cast<unsigned __int128>(r) * total_w;
    // Smallest i with prefix[i] * parts >= r * total_w.
    const auto it = std::lower_bound(
        prefix.begin(), prefix.end(), target,
        [p128](std::uint64_t pre, const unsigned __int128& t) {
          return static_cast<unsigned __int128>(pre) * p128 < t;
        });
    cuts[static_cast<std::size_t>(r)] =
        static_cast<std::size_t>(it - prefix.begin());
  }
  return Partitioning(std::move(cuts));
}

Partitioning Partitioning::from_cuts(std::vector<std::size_t> cuts) {
  DIPDC_REQUIRE(cuts.size() >= 2 && cuts.front() == 0,
                "cut vector must start at 0 and name at least one part");
  for (std::size_t i = 1; i < cuts.size(); ++i) {
    DIPDC_REQUIRE(cuts[i - 1] <= cuts[i], "cut vector must be monotone");
  }
  return Partitioning(std::move(cuts));
}

int Partitioning::owner(std::size_t index) const {
  DIPDC_REQUIRE(index < total(), "element index outside the partitioning");
  // The owner is the last part whose begin() <= index.
  const auto it = std::upper_bound(cuts_.begin(), cuts_.end(), index);
  return static_cast<int>(it - cuts_.begin()) - 1;
}

double Partitioning::imbalance(std::span<const std::uint64_t> weights) const {
  DIPDC_REQUIRE(weights.size() == total(),
                "imbalance needs one weight per element");
  std::vector<std::uint64_t> sums(static_cast<std::size_t>(parts()));
  for (int r = 0; r < parts(); ++r) {
    sums[static_cast<std::size_t>(r)] =
        std::accumulate(weights.begin() + static_cast<std::ptrdiff_t>(begin(r)),
                        weights.begin() + static_cast<std::ptrdiff_t>(end(r)),
                        std::uint64_t{0});
  }
  return imbalance_of_sums(sums);
}

double Partitioning::count_imbalance() const {
  std::vector<std::uint64_t> counts(static_cast<std::size_t>(parts()));
  for (int r = 0; r < parts(); ++r) {
    counts[static_cast<std::size_t>(r)] = count(r);
  }
  return imbalance_of_sums(counts);
}

double Partitioning::imbalance_of_sums(
    std::span<const std::uint64_t> part_sums) {
  std::uint64_t total_w = 0;
  std::uint64_t max_w = 0;
  for (const std::uint64_t w : part_sums) {
    total_w += w;
    max_w = std::max(max_w, w);
  }
  if (total_w == 0) return 1.0;
  const double mean = static_cast<double>(total_w) /
                      static_cast<double>(part_sums.size());
  return static_cast<double>(max_w) / mean;
}

std::vector<std::uint64_t> quantize_weights(std::span<const double> weights,
                                            double scale, kernels::Isa isa) {
  std::vector<std::uint64_t> q(weights.size());
  kernels::quantize_weights(isa, weights.data(), weights.size(), scale,
                            q.data());
  return q;
}

}  // namespace dipdc::container
