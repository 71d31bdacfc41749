// Module 4 serving mode: deterministic workload generation, admission
// accounting, an independent match-count oracle, and bit-identity of the
// whole serving run across transport backends and kernel ISAs.
#include "modules/rangequery/serving.hpp"

#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "container/partitioning.hpp"
#include "index/geometry.hpp"
#include "kernels/filter.hpp"
#include "kernels/dispatch.hpp"
#include "support/rng.hpp"
#include "run_forced.hpp"

namespace m4 = dipdc::modules::rangequery;
namespace sp = dipdc::spatial;
namespace mpi = dipdc::minimpi;
namespace kn = dipdc::kernels;
using dipdc::testing::all_backends;
using dipdc::testing::forced;
using dipdc::testing::other_backends;
using dipdc::testing::run_forced;

namespace {

/// The fields that define a serving run's observable outcome; two runs
/// agreeing on all of them (including the simulated-time-derived ones,
/// exactly) are the same run.
void expect_same_result(const m4::ServeResult& a, const m4::ServeResult& b) {
  EXPECT_EQ(a.offered, b.offered);
  EXPECT_EQ(a.admitted, b.admitted);
  EXPECT_EQ(a.rejected, b.rejected);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.batches, b.batches);
  EXPECT_EQ(a.total_matches, b.total_matches);
  EXPECT_EQ(a.entries_checked, b.entries_checked);
  EXPECT_EQ(a.makespan, b.makespan);          // bit-identical sim time
  EXPECT_EQ(a.p50_latency, b.p50_latency);
  EXPECT_EQ(a.p99_latency, b.p99_latency);
  EXPECT_EQ(a.latency_us.count, b.latency_us.count);
  EXPECT_EQ(a.latency_us.sum, b.latency_us.sum);
  EXPECT_EQ(a.latency_us.buckets, b.latency_us.buckets);
}

m4::ServeConfig small_config() {
  m4::ServeConfig cfg;
  cfg.n_points = 4000;
  cfg.qps = 2000.0;
  cfg.duration = 0.25;
  cfg.batch = 8;
  return cfg;
}

/// small_config under the zipf mix on a 24 x 24 grid: the windows cover
/// at most 2 x 2 of the 576 cells, so the shard scan skips most cells.
m4::ServeConfig zipf_grid24_config() {
  m4::ServeConfig cfg = small_config();
  cfg.mix = m4::Mix::kZipf;
  cfg.grid = 24;
  return cfg;
}

/// The ISAs this host can run: scalar, plus simd where AVX2 exists.
std::vector<kn::Isa> host_isas() {
  std::vector<kn::Isa> isas = {kn::Isa::kScalar};
  if (kn::simd_supported()) isas.push_back(kn::Isa::kSimd);
  return isas;
}

}  // namespace

TEST(ServingStream, SameSeedSameStream) {
  m4::ServeConfig cfg;
  for (const m4::Mix mix :
       {m4::Mix::kUniform, m4::Mix::kHotspot, m4::Mix::kZipf}) {
    cfg.mix = mix;
    m4::QueryStream a(cfg, 8);
    m4::QueryStream b(cfg, 8);
    for (int i = 0; i < 500; ++i) {
      const sp::Rect ra = a.next();
      const sp::Rect rb = b.next();
      EXPECT_EQ(ra, rb) << m4::mix_name(mix) << " query " << i;
    }
  }
}

TEST(ServingStream, DifferentSeedsDiverge) {
  m4::ServeConfig a_cfg;
  m4::ServeConfig b_cfg;
  b_cfg.seed = a_cfg.seed + 7;
  m4::QueryStream a(a_cfg, 8);
  m4::QueryStream b(b_cfg, 8);
  int diffs = 0;
  for (int i = 0; i < 100; ++i) {
    if (!(a.next() == b.next())) ++diffs;
  }
  EXPECT_GT(diffs, 90);
}

TEST(ServingStream, WindowsStayInsideExtent) {
  m4::ServeConfig cfg;
  cfg.extent = 100.0;
  cfg.side = 8.0;
  for (const m4::Mix mix :
       {m4::Mix::kUniform, m4::Mix::kHotspot, m4::Mix::kZipf}) {
    cfg.mix = mix;
    m4::QueryStream stream(cfg, 8);
    for (int i = 0; i < 1000; ++i) {
      const sp::Rect r = stream.next();
      EXPECT_TRUE(r.valid());
      EXPECT_GE(r.xmin, 0.0);
      EXPECT_GE(r.ymin, 0.0);
      EXPECT_LE(r.xmax, cfg.extent);
      EXPECT_LE(r.ymax, cfg.extent);
      EXPECT_NEAR(r.xmax - r.xmin, cfg.side, 1e-9);
    }
  }
}

TEST(ServingStream, HotspotConcentrates) {
  m4::ServeConfig cfg;
  cfg.mix = m4::Mix::kHotspot;
  cfg.hot_fraction = 0.9;
  // The hot box is 10% of the extent per side (1% by area): 90% of
  // window corners landing inside a region the uniform mix would hit
  // ~1% of the time is only explainable by the hot box.
  m4::QueryStream stream(cfg, 8);
  sp::Rect bounds = sp::Rect::empty();
  std::vector<sp::Rect> windows;
  for (int i = 0; i < 2000; ++i) windows.push_back(stream.next());
  // Find the densest cluster: the median corner is inside the hot box.
  std::vector<double> x;
  std::vector<double> y;
  for (const sp::Rect& w : windows) {
    x.push_back(w.xmin);
    y.push_back(w.ymin);
  }
  std::sort(x.begin(), x.end());
  std::sort(y.begin(), y.end());
  const double mx = x[x.size() / 2];
  const double my = y[y.size() / 2];
  const double hot_side = cfg.hot_extent_fraction * cfg.extent;
  int inside = 0;
  for (const sp::Rect& w : windows) {
    if (std::abs(w.xmin - mx) <= hot_side &&
        std::abs(w.ymin - my) <= hot_side) {
      ++inside;
    }
  }
  EXPECT_GT(inside, 2000 * 8 / 10);
  (void)bounds;
}

TEST(ServingGrid, DefaultSideCoversShards) {
  EXPECT_EQ(m4::default_grid_side(1), 2);
  EXPECT_EQ(m4::default_grid_side(4), 4);
  EXPECT_EQ(m4::default_grid_side(7), 6);
  for (int shards = 1; shards <= 64; ++shards) {
    const int g = m4::default_grid_side(shards);
    EXPECT_GE(g * g, 4 * shards);
    EXPECT_LT((g - 1) * (g - 1), 4 * shards);
  }
}

TEST(ServingParse, MixNamesRoundTrip) {
  for (const m4::Mix mix :
       {m4::Mix::kUniform, m4::Mix::kHotspot, m4::Mix::kZipf}) {
    EXPECT_EQ(m4::parse_mix(m4::mix_name(mix)), mix);
  }
  EXPECT_THROW((void)m4::parse_mix("bogus"),
               dipdc::support::PreconditionError);
}

// With no rejections (offered rate far below capacity), every generated
// query is answered, so total_matches must equal a serial brute-force
// count over the identical point set and query stream.
TEST(Serving, MatchesSerialOracle) {
  for (const m4::ServeConfig& cfg : {small_config(), zipf_grid24_config()}) {
    const auto r = run_forced(4, forced(mpi::BackendKind::kThreads),
                              [&](mpi::Comm& comm) {
                                return m4::serve(comm, cfg);
                              });
    ASSERT_EQ(r.rejected, 0u);
    ASSERT_EQ(r.completed, r.offered);

    // Serial oracle: same point stream, same query stream, Rect::contains.
    dipdc::support::Xoshiro256 rng(cfg.seed);
    std::vector<sp::Point2> points(cfg.n_points);
    for (auto& p : points) {
      p.x = rng.uniform(0.0, cfg.extent);
      p.y = rng.uniform(0.0, cfg.extent);
    }
    m4::QueryStream stream(cfg, r.grid_side);
    const auto offered = static_cast<std::uint64_t>(
        std::llround(cfg.qps * cfg.duration));
    std::uint64_t expected = 0;
    for (std::uint64_t q = 0; q < offered; ++q) {
      const sp::Rect w = stream.next();
      for (const sp::Point2& p : points) {
        if (w.contains(p)) ++expected;
      }
    }
    EXPECT_EQ(r.offered, offered) << m4::mix_name(cfg.mix);
    EXPECT_EQ(r.total_matches, expected) << m4::mix_name(cfg.mix);
  }
}

// The simulated clock charges the brute-force shard scan (every routed
// query against every point of its shard), whatever the host scans.
// These values were recorded from the whole-shard scan; a change that
// charged the cells actually scanned would move every one of them.
TEST(Serving, PinnedZipfGrid24Outcome) {
  const m4::ServeConfig cfg = zipf_grid24_config();
  const auto r = run_forced(4, forced(mpi::BackendKind::kThreads),
                            [&](mpi::Comm& comm) {
                              return m4::serve(comm, cfg);
                            });
  EXPECT_EQ(r.offered, 500u);
  EXPECT_EQ(r.rejected, 0u);
  EXPECT_EQ(r.batches, 63u);
  EXPECT_EQ(r.total_matches, 3163u);
  EXPECT_EQ(r.entries_checked, 706094u);
  EXPECT_EQ(r.shard_imbalance, 1.5668239639481429);
  EXPECT_EQ(r.makespan, 0.25000995200000004);
  EXPECT_EQ(r.p50_latency, 0.0015196159999999999);
  EXPECT_EQ(r.p99_latency, 0.0034771411623656175);
  decltype(r.latency_us.buckets) buckets{};
  buckets[4] = 50;
  buckets[5] = 13;
  buckets[9] = 8;
  buckets[10] = 118;
  buckets[11] = 125;
  buckets[12] = 186;
  EXPECT_EQ(r.latency_us.buckets, buckets);
}

TEST(Serving, OverloadRejectsButAnswersAdmitted) {
  m4::ServeConfig cfg = small_config();
  cfg.qps = 5e6;  // far past capacity
  cfg.duration = 0.002;
  cfg.queue_cap = 32;
  cfg.batch = 8;
  const auto r = run_forced(4, forced(mpi::BackendKind::kThreads),
                            [&](mpi::Comm& comm) {
                              return m4::serve(comm, cfg);
                            });
  EXPECT_GT(r.rejected, 0u);
  EXPECT_EQ(r.admitted + r.rejected, r.offered);
  EXPECT_EQ(r.completed, r.admitted);  // admitted work always finishes
  EXPECT_EQ(r.latency_us.count, r.completed);
}

// The serving loop's whole observable outcome — admission counts, match
// totals, latency histogram, simulated makespan — is bit-identical on
// every transport backend.
TEST(Serving, BitIdenticalAcrossBackends) {
  for (const m4::Mix mix :
       {m4::Mix::kUniform, m4::Mix::kHotspot, m4::Mix::kZipf}) {
    m4::ServeConfig cfg = small_config();
    cfg.mix = mix;
    const auto baseline =
        run_forced(4, forced(mpi::BackendKind::kThreads),
                   [&](mpi::Comm& comm) { return m4::serve(comm, cfg); });
    EXPECT_GT(baseline.total_matches, 0u);
    for (const mpi::BackendKind kind : other_backends()) {
      const auto other =
          run_forced(4, forced(kind),
                     [&](mpi::Comm& comm) { return m4::serve(comm, cfg); });
      expect_same_result(baseline, other);
    }
  }
}

// Kernel ISA is a performance knob, never a results knob: the scalar and
// SIMD filter paths produce the same counts, so the whole run agrees.
TEST(Serving, KernelIsaDoesNotChangeResults) {
  m4::ServeConfig cfg = small_config();
  cfg.kernel = kn::Policy::kScalar;
  const auto scalar =
      run_forced(4, forced(mpi::BackendKind::kThreads),
                 [&](mpi::Comm& comm) { return m4::serve(comm, cfg); });
  if (!kn::simd_supported()) GTEST_SKIP() << "no AVX2 on this host";
  cfg.kernel = kn::Policy::kSimd;
  const auto simd =
      run_forced(4, forced(mpi::BackendKind::kThreads),
                 [&](mpi::Comm& comm) { return m4::serve(comm, cfg); });
  expect_same_result(scalar, simd);
}

TEST(Serving, PipelineDepthPreservesAnswers) {
  // Deeper pipelining changes timing (that is its point) but must not
  // change which queries are answered or what they match.
  m4::ServeConfig cfg = small_config();
  cfg.pipeline = 1;
  const auto serial =
      run_forced(4, forced(mpi::BackendKind::kThreads),
                 [&](mpi::Comm& comm) { return m4::serve(comm, cfg); });
  cfg.pipeline = 4;
  const auto piped =
      run_forced(4, forced(mpi::BackendKind::kThreads),
                 [&](mpi::Comm& comm) { return m4::serve(comm, cfg); });
  ASSERT_EQ(serial.rejected, 0u);
  ASSERT_EQ(piped.rejected, 0u);
  EXPECT_EQ(serial.total_matches, piped.total_matches);
  EXPECT_EQ(serial.completed, piped.completed);
}

TEST(Serving, RequiresDriverAndShard) {
  EXPECT_THROW(
      run_forced(1, forced(mpi::BackendKind::kThreads),
                 [&](mpi::Comm& comm) {
                   return m4::serve(comm, m4::ServeConfig{});
                 }),
      dipdc::support::PreconditionError);
}

// ---- The bucketed shard scan (detail::ShardCells) --------------------------

namespace {

/// Counts of a ShardCells shard checked against the brute-force oracle:
/// count_in_rect over every point whose cell lies in [c0, c1).
void expect_cells_match_brute_force(double extent, int g, std::size_t c0,
                                    std::size_t c1,
                                    const std::vector<sp::Point2>& points,
                                    const std::vector<sp::Rect>& windows) {
  const double cell_side = extent / static_cast<double>(g);
  std::vector<double> xs;
  std::vector<double> ys;
  for (const sp::Point2& p : points) {
    const std::size_t c = m4::detail::cell_coord(p.y, cell_side, g) *
                              static_cast<std::size_t>(g) +
                          m4::detail::cell_coord(p.x, cell_side, g);
    if (c < c0 || c >= c1) continue;
    xs.push_back(p.x);
    ys.push_back(p.y);
  }
  const m4::detail::ShardCells shard(cell_side, g, c0, c1, [&](auto&& keep) {
    for (const sp::Point2& p : points) keep(p.x, p.y);
  });
  ASSERT_EQ(shard.size(), xs.size());
  for (const kn::Isa isa : host_isas()) {
    for (const sp::Rect& w : windows) {
      const std::uint64_t want = kn::count_in_rect(
          isa, xs.data(), ys.data(), xs.size(), w.xmin, w.ymin, w.xmax, w.ymax);
      EXPECT_EQ(shard.count(isa, w), want)
          << "g=" << g << " cells [" << c0 << ", " << c1 << ") window ["
          << w.xmin << ", " << w.xmax << "] x [" << w.ymin << ", " << w.ymax
          << "] isa " << kn::isa_name(isa);
    }
  }
}

/// Coordinates on and just beside every cell boundary k * extent / g,
/// including 0 and `extent` itself.
std::vector<double> boundary_coords(double extent, int g) {
  std::vector<double> v;
  const double cell_side = extent / static_cast<double>(g);
  for (int k = 0; k <= g; ++k) {
    const double b = static_cast<double>(k) * cell_side;
    v.push_back(b);
    if (k > 0) v.push_back(std::nextafter(b, 0.0));
    if (k < g) v.push_back(std::nextafter(b, extent));
  }
  v.push_back(extent);
  return v;
}

}  // namespace

TEST(ServingShardCells, CellCoordClampsIntoTheGrid) {
  namespace d = m4::detail;
  const double side = 100.0 / 7.0;
  EXPECT_EQ(d::cell_coord(0.0, side, 7), 0u);
  EXPECT_EQ(d::cell_coord(-3.0, side, 7), 0u);
  EXPECT_EQ(d::cell_coord(std::nextafter(side, 0.0), side, 7), 0u);
  EXPECT_EQ(d::cell_coord(side, side, 7), 1u);
  EXPECT_EQ(d::cell_coord(100.0, side, 7), 6u);  // `extent` is in the last cell
  EXPECT_EQ(d::cell_coord(1e300, side, 7), 6u);
  EXPECT_EQ(d::cell_coord(std::numeric_limits<double>::quiet_NaN(), side, 7),
            0u);
  EXPECT_EQ(d::cell_coord(50.0, 100.0, 1), 0u);
}

// Points on cell boundaries, beside them and at `extent`; windows whose
// edges sit on those same coordinates, with side 0, inverted, or covering
// the full extent; owned ranges that start and end mid-row, a single
// cell, no cell, and the whole grid; g = 1, and g = 7 and 24, where
// extent / g is inexact.
TEST(ServingShardCells, BoundaryPointsAndWindowsMatchBruteForce) {
  const double extent = 100.0;
  for (const int g : {1, 7, 24}) {
    const auto gs = static_cast<std::size_t>(g);
    const std::size_t ncells = gs * gs;
    const std::vector<double> coords = boundary_coords(extent, g);

    // Every boundary coordinate crossed with a few others: the cells on
    // the grid's edges, the diagonal and the row and column through
    // extent / 3 fill up, and the other cells stay empty.
    std::vector<sp::Point2> points;
    for (const double a : coords) {
      for (const double b : {0.0, a, extent, extent / 3.0}) {
        points.push_back({a, b});
        points.push_back({b, a});
      }
    }

    // Window edges: boundaries (inexact multiples included), a mid-cell
    // value, and values outside the extent.
    const double cell_side = extent / static_cast<double>(g);
    const std::vector<double> edges = {
        -1.0, 0.0, std::nextafter(cell_side, 0.0), cell_side,
        2.5 * cell_side, extent / 3.0, extent - cell_side, extent, 101.0};
    std::vector<sp::Rect> windows;
    for (const double x0 : edges) {
      for (const double x1 : edges) {  // x0 > x1: inverted
        for (const double y0 : {0.0, cell_side, extent / 3.0, extent}) {
          for (const double y1 : {0.0, cell_side, extent / 3.0, extent}) {
            windows.push_back({x0, y0, x1, y1});
          }
        }
      }
    }
    for (const double a : coords) windows.push_back({a, a, a, a});  // side 0
    windows.push_back({0.0, 0.0, extent, extent});  // the full extent

    std::vector<std::pair<std::size_t, std::size_t>> ranges = {
        {0, ncells}, {0, 0}, {ncells, ncells}, {ncells - 1, ncells}};
    if (g > 1) {
      ranges.push_back({gs + 2, 3 * gs - 1});      // mid-row to mid-row
      ranges.push_back({1, gs});                   // mid-row to a row end
      ranges.push_back({gs, 2 * gs + 1});          // a row start to mid-row
      ranges.push_back({gs + 1, gs + 2});          // one cell
      ranges.push_back({2 * gs + 1, 2 * gs + 1});  // no cell, mid-grid
    }
    for (int shards = 2; shards <= 5; ++shards) {
      const auto cut = dipdc::container::Partitioning::block(ncells, shards);
      for (int s = 0; s < shards; ++s) {
        ranges.push_back({cut.begin(s), cut.end(s)});
      }
    }
    for (const auto& [c0, c1] : ranges) {
      expect_cells_match_brute_force(extent, g, c0, c1, points, windows);
    }
  }
}

// Seeded points and windows of every size, on each shard of a block
// partition: the counts agree with the whole-shard scan.
TEST(ServingShardCells, SeededPointsMatchBruteForce) {
  const double extent = 100.0;
  dipdc::support::Xoshiro256 rng(7);
  std::vector<sp::Point2> points(3000);
  for (auto& p : points) {
    p.x = rng.uniform(0.0, extent);
    p.y = rng.uniform(0.0, extent);
  }
  std::vector<sp::Rect> windows;
  for (int i = 0; i < 300; ++i) {
    const double side = rng.uniform(0.0, 40.0);
    const double x = rng.uniform(-5.0, extent);
    const double y = rng.uniform(-5.0, extent);
    windows.push_back({x, y, x + side, y + side});
  }
  for (const int g : {1, 7, 24}) {
    const auto gs = static_cast<std::size_t>(g);
    const auto ncells = gs * gs;
    const auto cut = dipdc::container::Partitioning::block(ncells, 3);
    for (int s = 0; s < 3; ++s) {
      expect_cells_match_brute_force(extent, g, cut.begin(s), cut.end(s),
                                     points, windows);
    }
  }
}
