// Property suite for the elastic container: weight-driven cuts conserve
// every element bit-exactly through arbitrary partition transitions, the
// cut rule is a deterministic pure function of the weights, and
// threshold-gated rebalancing converges (no ping-pong at the boundary).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <numeric>
#include <optional>
#include <random>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "container/container.hpp"
#include "container/partitioning.hpp"
#include "kernels/dispatch.hpp"
#include "minimpi/comm.hpp"
#include "minimpi/error.hpp"
#include "minimpi/ops.hpp"
#include "minimpi/runtime.hpp"

namespace mpi = dipdc::minimpi;
using dipdc::container::Container;
using dipdc::container::Partitioning;
using dipdc::container::quantize_weight;
using dipdc::container::quantize_weights;

namespace {

/// Deterministic element payload: a pure function of the global index, so
/// every rank can predict any slab without communication.
std::uint64_t element_value(std::size_t global_index) {
  return 0x9e3779b97f4a7c15ULL * (global_index + 1) ^ 0xc0ffee;
}

/// Deterministic per-element weight for a given round — identical on every
/// rank, varied enough to force real cut movement between rounds.
double weight_value(std::size_t global_index, int round) {
  const std::uint64_t h =
      (global_index + 1) * 2654435761ULL + static_cast<std::uint64_t>(round) * 97;
  return 1.0 + static_cast<double>(h % 1024) / 16.0;
}

std::vector<std::uint64_t> block_slab(std::size_t total, int parts, int rank) {
  const Partitioning part = Partitioning::block(total, parts);
  std::vector<std::uint64_t> slab(part.count(rank));
  for (std::size_t i = 0; i < slab.size(); ++i) {
    slab[i] = element_value(part.begin(rank) + i);
  }
  return slab;
}

/// Gathers the container's global array on every rank, in cut order.
std::vector<std::uint64_t> gather_global(mpi::Comm& comm,
                                         const Container<std::uint64_t>& c) {
  const Partitioning& part = c.partitioning();
  const int p = comm.size();
  std::vector<std::size_t> counts(static_cast<std::size_t>(p));
  std::vector<std::size_t> displs(static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) {
    counts[static_cast<std::size_t>(r)] = part.count(r) * c.stride();
    displs[static_cast<std::size_t>(r)] = part.begin(r) * c.stride();
  }
  std::vector<std::uint64_t> global(part.total() * c.stride());
  comm.allgatherv(std::span<const std::uint64_t>(c.local()), counts, displs,
                  std::span<std::uint64_t>(global));
  return global;
}

/// Every rank's quantized weights in global order (the oracle's view).
std::vector<std::uint64_t> gather_quantized_weights(
    mpi::Comm& comm, const Container<std::uint64_t>& c) {
  const Partitioning& part = c.partitioning();
  const int p = comm.size();
  std::vector<std::size_t> counts(static_cast<std::size_t>(p));
  std::vector<std::size_t> displs(static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) {
    counts[static_cast<std::size_t>(r)] = part.count(r);
    displs[static_cast<std::size_t>(r)] = part.begin(r);
  }
  const std::vector<std::uint64_t> mine = quantize_weights(c.weights());
  std::vector<std::uint64_t> global(part.total());
  comm.allgatherv(std::span<const std::uint64_t>(mine), counts, displs,
                  std::span<std::uint64_t>(global));
  return global;
}

void set_round_weights(Container<std::uint64_t>& c, int round) {
  std::vector<double> w(c.count());
  for (std::size_t i = 0; i < w.size(); ++i) {
    w[i] = weight_value(c.global_begin() + i, round);
  }
  c.set_weights(w);
}

}  // namespace

// ---- Partitioning ---------------------------------------------------------

TEST(Partitioning, BlockCoversEveryElementExactlyOnce) {
  for (const std::size_t total : {0UL, 1UL, 7UL, 64UL, 97UL}) {
    for (int parts = 1; parts <= 9; ++parts) {
      const Partitioning part = Partitioning::block(total, parts);
      EXPECT_EQ(part.total(), total);
      EXPECT_EQ(part.parts(), parts);
      std::size_t covered = 0;
      for (int r = 0; r < parts; ++r) {
        EXPECT_EQ(part.begin(r), covered);
        covered += part.count(r);
      }
      EXPECT_EQ(covered, total);
    }
  }
}

TEST(Partitioning, WeightCutsAreMonotoneAndConserve) {
  for (const std::size_t n : {1UL, 3UL, 50UL, 257UL}) {
    for (int parts = 1; parts <= 8; ++parts) {
      std::vector<std::uint64_t> w(n);
      for (std::size_t i = 0; i < n; ++i) {
        w[i] = 1 + ((i + 1) * 2654435761ULL) % 5000;
      }
      const Partitioning part = Partitioning::from_weights(w, parts);
      EXPECT_EQ(part.total(), n);
      const auto& cuts = part.cuts();
      ASSERT_EQ(cuts.size(), static_cast<std::size_t>(parts) + 1);
      EXPECT_EQ(cuts.front(), 0u);
      EXPECT_EQ(cuts.back(), n);
      for (std::size_t i = 1; i < cuts.size(); ++i) {
        EXPECT_LE(cuts[i - 1], cuts[i]);
      }
    }
  }
}

TEST(Partitioning, WeightCutsAreDeterministic) {
  std::vector<std::uint64_t> w(301);
  for (std::size_t i = 0; i < w.size(); ++i) {
    w[i] = 1 + (i * 48271) % 9973;
  }
  const Partitioning a = Partitioning::from_weights(w, 7);
  const Partitioning b = Partitioning::from_weights(w, 7);
  EXPECT_EQ(a, b);
}

TEST(Partitioning, OwnerMatchesTheRanges) {
  std::vector<std::uint64_t> w(120, 1);
  w[3] = 10'000;  // a hot element skews the cuts
  const Partitioning part = Partitioning::from_weights(w, 5);
  for (std::size_t g = 0; g < part.total(); ++g) {
    const int r = part.owner(g);
    EXPECT_GE(g, part.begin(r));
    EXPECT_LT(g, part.end(r));
  }
}

TEST(Partitioning, HeavyPrefixShrinksTheFirstPart) {
  // The first quarter of the elements carries almost all the weight, so
  // the first part must own far fewer elements than the block layout.
  const std::size_t n = 400;
  std::vector<std::uint64_t> w(n, 1);
  for (std::size_t i = 0; i < n / 4; ++i) w[i] = 1000;
  const Partitioning part = Partitioning::from_weights(w, 4);
  EXPECT_LT(part.count(0), n / 4);
  EXPECT_LT(part.imbalance(w), 1.10);
}

TEST(Partitioning, ImbalanceIsTheFormulaOverPartSums) {
  std::vector<std::uint64_t> w(90);
  for (std::size_t i = 0; i < w.size(); ++i) w[i] = 1 + (i * 7919) % 131;
  const Partitioning part = Partitioning::block(w.size(), 4);
  std::vector<std::uint64_t> sums(4);
  for (int r = 0; r < 4; ++r) {
    for (std::size_t i = part.begin(r); i < part.end(r); ++i) {
      sums[static_cast<std::size_t>(r)] += w[i];
    }
  }
  EXPECT_EQ(part.imbalance(w), Partitioning::imbalance_of_sums(sums));
  EXPECT_EQ(Partitioning::imbalance_of_sums(std::vector<std::uint64_t>{
                0, 0, 0}),
            1.0);
  EXPECT_EQ(Partitioning::block(10, 4).count_imbalance(), 3.0 / 2.5);
}

TEST(Partitioning, QuantizeFloorsAtOne) {
  const std::vector<double> w = {0.0, 1e-9, 0.5, 1.0, 2.5};
  const std::vector<std::uint64_t> q = quantize_weights(w, 1024.0);
  EXPECT_EQ(q[0], 1u);
  EXPECT_EQ(q[1], 1u);
  EXPECT_EQ(q[2], 512u);
  EXPECT_EQ(q[3], 1024u);
  EXPECT_EQ(q[4], 2560u);
}

TEST(Partitioning, QuantizeEqualsTheLlroundForm) {
  const auto llround_form = [](double weight, double scale) {
    const double scaled = weight * scale;
    return scaled <= 1.0 ? std::uint64_t{1}
                         : static_cast<std::uint64_t>(std::llround(scaled));
  };
  const auto expect_same = [&](double weight, double scale) {
    ASSERT_EQ(quantize_weight(weight, scale), llround_form(weight, scale))
        << "weight " << weight << " scale " << scale;
  };
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double two52 = 0x1p52;
  const std::vector<double> edges = {
      // halves, and the doubles on either side of them
      1.5, 2.5, 3.5, 1023.5, 1e15 + 0.5, 0.49999999999999994 + 1.0,
      std::nextafter(2.5, 0.0), std::nextafter(2.5, 3.0), 4503599627370495.5,
      // at or below 1
      1.0, std::nextafter(1.0, 2.0), std::nextafter(1.0, 0.0), 0.5, 0.0,
      -0.0, -1.0, -2.5, -kInf,
      // the 2^52 boundary
      two52, std::nextafter(two52, 0.0), std::nextafter(two52, kInf),
      two52 + 2.0, 0x1p62, 0x1p63,
      // not finite
      std::numeric_limits<double>::quiet_NaN(), kInf};
  for (const double w : edges) {
    expect_same(w, 1.0);
    expect_same(w, 1024.0);
  }
  std::mt19937_64 gen(2024);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (int i = 0; i < 20'000'000; ++i) {
    const std::uint64_t bits = gen();
    // Uniform over [0, 2^53), halves of whole numbers, and weights as the
    // container sees them; every eighth draw is an arbitrary bit pattern
    // (any exponent, NaN and infinities included).
    double w = 0.0;
    switch (bits & 7) {
      case 0: w = std::bit_cast<double>(gen()); break;
      case 1: w = static_cast<double>(bits >> 12) + 0.5; break;
      case 2: w = unit(gen) * 0x1p53; break;
      default: w = unit(gen) * 4.0; break;
    }
    expect_same(w, 1024.0);
  }
}

// ---- Container transitions --------------------------------------------------

TEST(Container, RepartitionConservesElementsBitExactly) {
  for (int p = 2; p <= 8; ++p) {
    for (const std::size_t total : {5UL, 97UL}) {
      mpi::run(p, [&](mpi::Comm& comm) {
        Container<std::uint64_t> c = Container<std::uint64_t>::from_local(
            comm, total, 1, block_slab(total, comm.size(), comm.rank()));
        std::vector<std::uint64_t> expected(total);
        for (std::size_t g = 0; g < total; ++g) expected[g] = element_value(g);
        for (int round = 0; round < 4; ++round) {
          set_round_weights(c, round);
          c.repartition();
          EXPECT_EQ(c.count(), c.partitioning().count(comm.rank()));
          EXPECT_EQ(c.local().size(), c.count());
          EXPECT_EQ(gather_global(comm, c), expected)
              << "p=" << p << " total=" << total << " round=" << round;
        }
      });
    }
  }
}

TEST(Container, StrideMovesWholeElements) {
  const std::size_t total = 41;
  const std::size_t stride = 3;
  mpi::run(5, [&](mpi::Comm& comm) {
    const Partitioning part = Partitioning::block(total, comm.size());
    std::vector<std::uint64_t> slab(part.count(comm.rank()) * stride);
    for (std::size_t i = 0; i < part.count(comm.rank()); ++i) {
      for (std::size_t k = 0; k < stride; ++k) {
        slab[i * stride + k] =
            element_value((part.begin(comm.rank()) + i) * stride + k);
      }
    }
    Container<std::uint64_t> c =
        Container<std::uint64_t>::from_local(comm, total, stride, slab);
    set_round_weights(c, 1);
    c.repartition();
    // Every element's `stride` values stayed together and in order.
    std::vector<std::uint64_t> global = gather_global(comm, c);
    ASSERT_EQ(global.size(), total * stride);
    for (std::size_t v = 0; v < global.size(); ++v) {
      EXPECT_EQ(global[v], element_value(v));
    }
  });
}

TEST(Container, TransitionsAreDeterministicForAFixedSeed) {
  // Two identical runs must produce identical cut sequences and identical
  // final slabs on every rank.
  const std::size_t total = 83;
  auto run_once = [&](std::vector<std::vector<std::size_t>>& cut_log,
                      std::vector<std::uint64_t>& final_global) {
    mpi::run(6, [&](mpi::Comm& comm) {
      Container<std::uint64_t> c = Container<std::uint64_t>::from_local(
          comm, total, 1, block_slab(total, comm.size(), comm.rank()));
      for (int round = 0; round < 5; ++round) {
        set_round_weights(c, round);
        c.repartition();
        if (comm.rank() == 0) cut_log.push_back(c.partitioning().cuts());
      }
      if (comm.rank() == 0) final_global = gather_global(comm, c);
      if (comm.rank() != 0) (void)gather_global(comm, c);
    });
  };
  std::vector<std::vector<std::size_t>> cuts_a, cuts_b;
  std::vector<std::uint64_t> global_a, global_b;
  run_once(cuts_a, global_a);
  run_once(cuts_b, global_b);
  EXPECT_EQ(cuts_a, cuts_b);
  EXPECT_EQ(global_a, global_b);
}

TEST(Container, RebalanceAtThresholdDoesNotPingPong) {
  mpi::run(4, [&](mpi::Comm& comm) {
    const std::size_t total = 64;
    Container<std::uint64_t> c = Container<std::uint64_t>::from_local(
        comm, total, 1, block_slab(total, comm.size(), comm.rank()));
    set_round_weights(c, 2);
    // Whatever the first call decides, repeating it with unchanged weights
    // must be a no-op: the cut rule is a pure function of the weights.
    (void)c.rebalance(1.05);
    const std::uint64_t moves_after_first = c.stats().repartitions;
    for (int i = 0; i < 5; ++i) {
      EXPECT_FALSE(c.rebalance(1.05));
    }
    EXPECT_EQ(c.stats().repartitions, moves_after_first);
    EXPECT_GE(c.stats().rebalance_noops, 5u);
  });
}

TEST(Container, RebalanceBelowThresholdIsANoOp) {
  mpi::run(4, [&](mpi::Comm& comm) {
    const std::size_t total = 64;  // divides evenly: imbalance exactly 1.0
    Container<std::uint64_t> c = Container<std::uint64_t>::from_local(
        comm, total, 1, block_slab(total, comm.size(), comm.rank()));
    EXPECT_FALSE(c.rebalance(1.25));  // unit weights, perfectly balanced
    EXPECT_EQ(c.stats().repartitions, 0u);
  });
}

TEST(Container, WeightSkewShiftsElementsAwayFromTheHeavyRank) {
  mpi::run(4, [&](mpi::Comm& comm) {
    const std::size_t total = 128;
    Container<std::uint64_t> c = Container<std::uint64_t>::from_local(
        comm, total, 1, block_slab(total, comm.size(), comm.rank()));
    // Rank 0's elements are 100x heavier than everyone else's.
    std::vector<double> w(c.count(), comm.rank() == 0 ? 100.0 : 1.0);
    c.set_weights(w);
    EXPECT_TRUE(c.repartition());
    EXPECT_LT(c.partitioning().count(0), total / 4);
  });
}

TEST(Container, AdoptRebuildsCutsFromTheNewCounts) {
  mpi::run(3, [&](mpi::Comm& comm) {
    const std::size_t total = 30;
    Container<std::uint64_t> c = Container<std::uint64_t>::from_local(
        comm, total, 1, block_slab(total, comm.size(), comm.rank()));
    // Simulate an owner-computes exchange: rank 0 ends up with 20 elements,
    // rank 1 with 10, rank 2 with none — contiguous global ranges.
    const std::size_t counts[3] = {20, 10, 0};
    const std::size_t begins[3] = {0, 20, 30};
    const int me = comm.rank();
    std::vector<std::uint64_t> mine(counts[me]);
    for (std::size_t i = 0; i < mine.size(); ++i) {
      mine[i] = element_value(begins[me] + i);
    }
    c.adopt(mine);
    EXPECT_EQ(c.partitioning().count(0), 20u);
    EXPECT_EQ(c.partitioning().count(2), 0u);
    // Unit weights after adopt: a rebalance levels the counts again.
    EXPECT_TRUE(c.rebalance(1.05));
    EXPECT_EQ(c.count(), 10u);
    std::vector<std::uint64_t> global = gather_global(comm, c);
    for (std::size_t g = 0; g < total; ++g) {
      EXPECT_EQ(global[g], element_value(g));
    }
  });
}

TEST(Container, ScatterRoundTripsTheSource) {
  mpi::run(5, [&](mpi::Comm& comm) {
    const std::size_t total = 23;
    std::vector<std::uint64_t> source;
    if (comm.rank() == 0) {
      source.resize(total);
      for (std::size_t g = 0; g < total; ++g) source[g] = element_value(g);
    }
    Container<std::uint64_t> c =
        Container<std::uint64_t>::scatter(comm, source, total, 1);
    EXPECT_EQ(c.count(), c.partitioning().count(comm.rank()));
    std::vector<std::uint64_t> global = gather_global(comm, c);
    for (std::size_t g = 0; g < total; ++g) {
      EXPECT_EQ(global[g], element_value(g));
    }
  });
}

TEST(Container, CheckpointsAreCheapNoOpsForCorrectness) {
  // Checkpointing must not perturb the data or the partitioning.
  mpi::run(4, [&](mpi::Comm& comm) {
    const std::size_t total = 40;
    Container<std::uint64_t> c = Container<std::uint64_t>::from_local(
        comm, total, 1, block_slab(total, comm.size(), comm.rank()));
    const std::vector<std::uint64_t> before = c.local();
    const std::uint64_t blob_word = 0xfeedface;
    c.checkpoint(std::as_bytes(std::span<const std::uint64_t>(&blob_word, 1)));
    EXPECT_EQ(c.local(), before);
    set_round_weights(c, 0);
    c.repartition();
    c.checkpoint(std::as_bytes(std::span<const std::uint64_t>(&blob_word, 1)));
    EXPECT_EQ(c.stats().checkpoints, 2u);
  });
}

TEST(Container, CheckpointSendsTheLayoutOnlyWhenItChanged) {
  // A checkpoint always sends its header and the state segment (weights |
  // blob).  The layout segment (cuts | data) follows only when the buddy
  // does not hold the current one: on the first checkpoint, after a
  // repartition that moved data, and after any call to the mutable
  // local().  Reads through the const view and no-op rebalances keep it
  // off the wire.
  constexpr std::uint64_t kHeader = 6 * sizeof(std::uint64_t);
  const std::size_t total = 90;
  const std::size_t stride = 3;
  for (int p = 2; p <= 5; ++p) {
    mpi::run(p, [&](mpi::Comm& comm) {
      const Partitioning block = Partitioning::block(total, comm.size());
      std::vector<std::uint64_t> slab(block.count(comm.rank()) * stride);
      for (std::size_t i = 0; i < slab.size(); ++i) {
        slab[i] = element_value(block.begin(comm.rank()) * stride + i);
      }
      Container<std::uint64_t> c =
          Container<std::uint64_t>::from_local(comm, total, stride, slab);
      const std::uint64_t blob_word = 0xfeedface;
      auto checkpoint_bytes = [&] {
        const std::uint64_t before = comm.stats().transport_bytes_sent;
        c.checkpoint(
            std::as_bytes(std::span<const std::uint64_t>(&blob_word, 1)));
        return comm.stats().transport_bytes_sent - before;
      };
      auto state = [&] {
        return c.count() * sizeof(double) + sizeof(blob_word);
      };
      auto layout = [&] {
        return (static_cast<std::size_t>(comm.size()) + 1) *
                   sizeof(std::size_t) +
               c.count() * stride * sizeof(std::uint64_t);
      };
      const std::string at = "p=" + std::to_string(p) + " rank " +
                             std::to_string(comm.rank());

      EXPECT_EQ(checkpoint_bytes(), kHeader + layout() + state()) << at;
      set_round_weights(c, 0);
      EXPECT_EQ(std::as_const(c).local().size(), c.count() * stride);
      EXPECT_EQ(checkpoint_bytes(), kHeader + state()) << at;
      EXPECT_FALSE(c.rebalance(1e9));
      EXPECT_EQ(checkpoint_bytes(), kHeader + state()) << at;

      // A ramp moves every interior cut.
      std::vector<double> ramp(c.count());
      for (std::size_t i = 0; i < ramp.size(); ++i) {
        ramp[i] = 1.0 + static_cast<double>(c.global_begin() + i);
      }
      c.set_weights(ramp);
      ASSERT_TRUE(c.repartition()) << at;
      EXPECT_EQ(checkpoint_bytes(), kHeader + layout() + state()) << at;
      EXPECT_EQ(checkpoint_bytes(), kHeader + state()) << at;

      (void)c.local();  // a write, as far as the container can tell
      EXPECT_EQ(checkpoint_bytes(), kHeader + layout() + state()) << at;
      EXPECT_EQ(checkpoint_bytes(), kHeader + state()) << at;
    });
  }
}

TEST(Container, RebalanceMatchesTheAllWeightsOracle) {
  // The rebalance decision uses only the p part sums; an oracle that sees
  // every weight (Partitioning::imbalance + from_weights) must agree on
  // both the returned bool and the resulting cuts.
  int moved = 0;
  int kept = 0;
  for (int p = 2; p <= 8; ++p) {
    for (const double threshold : {1.01, 1.25, 2.0}) {
      for (std::uint64_t seed = 0; seed < 4; ++seed) {
        mpi::run(p, [&](mpi::Comm& comm) {
          const std::size_t total = 150;
          Container<std::uint64_t> c = Container<std::uint64_t>::from_local(
              comm, total, 1, block_slab(total, comm.size(), comm.rank()));
          for (int round = 0; round < 3; ++round) {
            // The profile is a pure function of (seed, round, global
            // index): a skew exponent and a hot stretch that vary with the
            // seed, so some calls cross the threshold and some do not.
            std::vector<double> w(c.count());
            for (std::size_t i = 0; i < w.size(); ++i) {
              const std::size_t g = c.global_begin() + i;
              std::mt19937_64 rng(seed * 1000003 + g * 31 +
                                  static_cast<std::uint64_t>(round));
              const double u = std::uniform_real_distribution<>(0, 1)(rng);
              const double hot = (g + 17 * seed) % total < 12 * seed ? 3 : 1;
              w[i] = hot * (0.5 + u * static_cast<double>(seed % 3));
            }
            c.set_weights(w);
            const std::vector<std::uint64_t> q =
                gather_quantized_weights(comm, c);
            const Partitioning before = c.partitioning();
            Partitioning expected = before;
            if (before.imbalance(q) > threshold) {
              expected = Partitioning::from_weights(q, comm.size());
            }
            const bool expect_move = !(expected == before);
            EXPECT_EQ(c.rebalance(threshold), expect_move)
                << "p=" << p << " t=" << threshold << " seed=" << seed
                << " round=" << round;
            EXPECT_EQ(c.partitioning().cuts(), expected.cuts());
            if (comm.rank() == 0) (expect_move ? moved : kept) += 1;
          }
        });
      }
    }
  }
  // The grid exercises both outcomes.
  EXPECT_GT(moved, 0);
  EXPECT_GT(kept, 0);
}

TEST(Container, RebalanceIsTheSameOnEveryKernelTier) {
  // The part sums and per-element weights a rebalance quantizes come from
  // kernels::quantize_weights; its tiers give the same bits, so every
  // decision, cut and counter must be the same under kScalar and kSimd.
  // A few weights are at or below the floor (0, 0.5/1024) or far above
  // 2^52 / 1024, so the SIMD tier's scalar blocks run too.
  struct Log {
    std::vector<int> moved;
    std::vector<std::vector<std::size_t>> cuts;
    std::vector<std::uint64_t> counters;
  };
  const auto run_on = [](dipdc::kernels::Isa isa, int p) {
    Log log;
    mpi::run(p, [&](mpi::Comm& comm) {
      const std::size_t total = 300 + 37 * static_cast<std::size_t>(p);
      Container<std::uint64_t> c = Container<std::uint64_t>::from_local(
          comm, total, 1, block_slab(total, comm.size(), comm.rank()));
      c.set_kernel(isa);
      for (int round = 0; round < 12; ++round) {
        std::vector<double> w(c.count());
        for (std::size_t i = 0; i < w.size(); ++i) {
          const std::size_t g = c.global_begin() + i;
          const std::uint64_t h = (g + 1) * 2654435761ULL +
                                  static_cast<std::uint64_t>(round) * 97;
          w[i] = (g < total / 3 && round % 3 == 0 ? 6.0 : 1.0) +
                 static_cast<double>(h % 64) / 32.0;
          // Sparse edge values in the first third; elsewhere every block
          // of the SIMD tier is in range.  A weight above 2^52 / 1024
          // outweighs all others together, so only one round has one.
          if (g < total / 3 && g % 37 == 0) {
            w[i] = (g / 37 + static_cast<std::size_t>(round)) % 2 == 0
                       ? 0.0
                       : 0.5 / 1024.0;
          }
          if (round == 5 && g == total / 2) w[i] = 0x1p50 * 3.0;
        }
        c.set_weights(w);
        const bool moved = round % 4 == 3
                               ? c.repartition()
                               : c.rebalance(1.05 + 0.1 * (round % 3));
        if (comm.rank() == 0) {
          log.moved.push_back(moved ? 1 : 0);
          log.cuts.push_back(c.partitioning().cuts());
        }
      }
      const dipdc::container::ContainerStats& st = c.stats();
      const std::vector<std::uint64_t> mine = {st.repartitions,
                                               st.rebalance_noops,
                                               st.elements_moved};
      std::vector<std::uint64_t> all(mine.size() *
                                     static_cast<std::size_t>(comm.size()));
      comm.allgather(std::span<const std::uint64_t>(mine),
                     std::span<std::uint64_t>(all));
      if (comm.rank() == 0) log.counters = all;
    });
    return log;
  };
  if (!dipdc::kernels::simd_supported()) {
    GTEST_SKIP() << "no SIMD tier on this host";
  }
  int moved = 0;
  int kept = 0;
  for (int p = 2; p <= 5; ++p) {
    const Log scalar = run_on(dipdc::kernels::Isa::kScalar, p);
    const Log simd = run_on(dipdc::kernels::Isa::kSimd, p);
    EXPECT_EQ(scalar.moved, simd.moved) << "p=" << p;
    EXPECT_EQ(scalar.cuts, simd.cuts) << "p=" << p;
    EXPECT_EQ(scalar.counters, simd.counters) << "p=" << p;
    for (const int m : scalar.moved) (m != 0 ? moved : kept) += 1;
  }
  // The rounds exercise both outcomes.
  EXPECT_GT(moved, 0);
  EXPECT_GT(kept, 0);
}

TEST(Container, NoOpRebalanceSendsOnlyPartSums) {
  // A rebalance that keeps the cuts costs O(p) bytes on the wire, not
  // the 8 bytes per element an allgatherv of every weight would.
  for (int p = 2; p <= 8; ++p) {
    mpi::run(p, [&](mpi::Comm& comm) {
      const std::size_t total = 1000 * static_cast<std::size_t>(p);
      Container<std::uint64_t> c = Container<std::uint64_t>::from_local(
          comm, total, 1, block_slab(total, comm.size(), comm.rank()));
      const std::uint64_t before = comm.stats().transport_bytes_sent;
      EXPECT_FALSE(c.rebalance(1.25));
      const std::uint64_t sent = comm.stats().transport_bytes_sent - before;
      EXPECT_LT(sent, 64u * static_cast<std::uint64_t>(p)) << "p=" << p;
    });
  }
}

TEST(Container, RecoveryIsBitExactAfterCheckpointsOfChangingSize) {
  // Snapshot buffers are recycled from generation to generation.  Every
  // round re-cuts the container (so each rank's slab shrinks or grows),
  // rewrites the payload and checkpoints a blob of a different size; a
  // kill after the last checkpoint must restore exactly that generation.
  const std::size_t total = 97;
  const std::size_t stride = 3;
  const int rounds = 5;
  auto value = [](std::size_t v, int round) {
    return element_value(v) + static_cast<std::uint64_t>(round) * 0x1000193;
  };
  auto blob_for = [](int round) {
    std::vector<std::uint64_t> words(static_cast<std::size_t>(round * 5 % 7) +
                                     1);
    for (std::size_t i = 0; i < words.size(); ++i) {
      words[i] = 0xb10b0000ULL + static_cast<std::uint64_t>(round) * 64 + i;
    }
    return words;
  };
  std::vector<std::uint64_t> expected(total * stride);
  for (std::size_t v = 0; v < expected.size(); ++v) {
    expected[v] = value(v, rounds - 1);
  }
  const std::vector<std::uint64_t> expected_blob = blob_for(rounds - 1);

  // The checkpointed loop.  Its closing barrier is the point after which
  // every rank has provably finished the last checkpoint.
  std::vector<char> count_changed(4);  // char, not bool: ranks write at once
  auto body = [&](mpi::Comm& comm, Container<std::uint64_t>& c) {
    c.checkpoint({});
    const std::size_t first_count = c.count();
    for (int round = 0; round < rounds; ++round) {
      // A ramp that flips direction every round moves every cut.
      std::vector<double> w(c.count());
      for (std::size_t i = 0; i < w.size(); ++i) {
        const double x = static_cast<double>(c.global_begin() + i) /
                         static_cast<double>(total);
        w[i] = 1.0 + 4.0 * (round % 2 == 0 ? x : 1.0 - x);
      }
      c.set_weights(w);
      c.repartition();
      for (std::size_t i = 0; i < c.local().size(); ++i) {
        c.local()[i] = value(c.global_begin() * stride + i, round);
      }
      const std::vector<std::uint64_t> blob = blob_for(round);
      c.checkpoint(std::as_bytes(std::span<const std::uint64_t>(blob)));
      if (c.count() != first_count) {
        count_changed[static_cast<std::size_t>(comm.rank())] = 1;
      }
    }
    comm.barrier();
  };
  auto make = [&](mpi::Comm& comm) {
    const Partitioning part = Partitioning::block(total, comm.size());
    std::vector<std::uint64_t> slab(part.count(comm.rank()) * stride);
    for (std::size_t i = 0; i < slab.size(); ++i) {
      slab[i] = element_value(part.begin(comm.rank()) * stride + i);
    }
    return Container<std::uint64_t>::from_local(comm, total, stride, slab);
  };

  std::uint64_t calls_before_kill = 0;
  mpi::run(4, [&](mpi::Comm& comm) {
    Container<std::uint64_t> c = make(comm);
    body(comm, c);
    if (comm.rank() == 0) {
      for (const std::uint64_t n : comm.stats().calls) calls_before_kill += n;
    }
  });
  for (int r = 0; r < 4; ++r) {
    EXPECT_EQ(count_changed[static_cast<std::size_t>(r)], 1) << "rank " << r;
  }

  for (int victim = 0; victim < 4; ++victim) {
    mpi::RuntimeOptions opts;
    opts.faults.kill_rank = victim;
    opts.faults.kill_at_call = calls_before_kill + 1;
    bool recovered = false;
    mpi::run(
        4,
        [&](mpi::Comm& comm) {
          Container<std::uint64_t> c = make(comm);
          std::optional<mpi::Comm> shrunk;
          mpi::Comm* cur = &comm;
          std::vector<std::byte> blob;
          try {
            body(comm, c);
            (void)comm.allreduce_value(1, mpi::ops::Sum{});  // the kill
          } catch (const mpi::RankFailedError&) {
            if (comm.failed_rank() == comm.world_rank()) throw;
            shrunk.emplace(comm.shrink());
            cur = &*shrunk;
            blob = c.recover(*cur);
            if (cur->rank() == 0) recovered = true;
          }
          ASSERT_EQ(cur->size(), 3);
          EXPECT_EQ(gather_global(*cur, c), expected) << "victim " << victim;
          const auto words = std::span<const std::uint64_t>(
              reinterpret_cast<const std::uint64_t*>(blob.data()),
              blob.size() / sizeof(std::uint64_t));
          EXPECT_EQ(std::vector<std::uint64_t>(words.begin(), words.end()),
                    expected_blob)
              << "victim " << victim;
        },
        opts);
    EXPECT_TRUE(recovered) << "victim " << victim;
  }
}
