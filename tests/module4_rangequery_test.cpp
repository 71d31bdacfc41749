// Module 4: distributed range queries — brute force vs. indexed engines,
// scaling characters, and the node-placement lesson.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "minimpi/runtime.hpp"
#include "modules/rangequery/module4.hpp"
#include "support/rng.hpp"
#include "run_forced.hpp"

namespace mpi = dipdc::minimpi;
namespace m4 = dipdc::modules::rangequery;
namespace sp = dipdc::spatial;
using dipdc::testing::run_forced;

namespace {

std::vector<sp::Point2> make_points(std::size_t n, std::uint64_t seed) {
  dipdc::support::Xoshiro256 rng(seed);
  std::vector<sp::Point2> pts(n);
  for (auto& p : pts) {
    p.x = rng.uniform(0.0, 100.0);
    p.y = rng.uniform(0.0, 100.0);
  }
  return pts;
}

}  // namespace

TEST(Workload, DeterministicAndShaped) {
  const auto a = m4::make_query_workload(100, 50.0, 2.0, 7);
  const auto b = m4::make_query_workload(100, 50.0, 2.0, 7);
  ASSERT_EQ(a.size(), 100u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]);
    EXPECT_NEAR(a[i].xmax - a[i].xmin, 2.0, 1e-9);
    EXPECT_NEAR(a[i].ymax - a[i].ymin, 2.0, 1e-9);
  }
}

class EngineSweep
    : public ::testing::TestWithParam<std::tuple<int, m4::Engine>> {};

TEST_P(EngineSweep, MatchCountIndependentOfRanksAndEngine) {
  const auto [p, engine] = GetParam();
  const auto points = make_points(3000, 11);
  const auto queries = m4::make_query_workload(60, 100.0, 8.0, 13);

  // Oracle via sequential brute force.
  std::uint64_t expect = 0;
  std::vector<std::uint32_t> hits;
  for (const auto& q : queries) {
    hits.clear();
    sp::brute_force_query(points, q, hits);
    expect += hits.size();
  }
  ASSERT_GT(expect, 0u);

  m4::Config cfg;
  cfg.engine = engine;
  mpi::run(p, [&](mpi::Comm& comm) {
    const auto r = m4::run_distributed(comm, points, queries, cfg);
    EXPECT_EQ(r.total_matches, expect);
  });
}

INSTANTIATE_TEST_SUITE_P(
    RanksAndEngines, EngineSweep,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 8),
                       ::testing::Values(m4::Engine::kBruteForce,
                                         m4::Engine::kRTree,
                                         m4::Engine::kQuadTree,
                                         m4::Engine::kKdTree)));

TEST(Efficiency, RTreeChecksFarFewerEntries) {
  const auto points = make_points(20000, 17);
  const auto queries = m4::make_query_workload(50, 100.0, 2.0, 19);
  m4::Config brute, rtree;
  rtree.engine = m4::Engine::kRTree;
  mpi::run(2, [&](mpi::Comm& comm) {
    const auto rb = m4::run_distributed(comm, points, queries, brute);
    const auto rt = m4::run_distributed(comm, points, queries, rtree);
    EXPECT_EQ(rb.total_matches, rt.total_matches);
    EXPECT_LT(rt.entries_checked * 10, rb.entries_checked);
    EXPECT_GT(rt.nodes_visited, 0u);
    EXPECT_EQ(rb.nodes_visited, 0u);
  });
}

TEST(Efficiency, RTreeIsAbsolutelyFasterInSimulatedTime) {
  // Activity 2's outcome: despite worse scalability the R-tree is much
  // more efficient in absolute terms.
  const auto points = make_points(20000, 23);
  const auto queries = m4::make_query_workload(100, 100.0, 2.0, 29);
  m4::Config brute, rtree;
  rtree.engine = m4::Engine::kRTree;
  const auto [t_brute, t_rtree] = run_forced(4, {}, [&](mpi::Comm& comm) {
    const double b = m4::run_distributed(comm, points, queries, brute).sim_time;
    const double r = m4::run_distributed(comm, points, queries, rtree).sim_time;
    return std::make_pair(b, r);
  });
  EXPECT_LT(t_rtree * 2, t_brute);
}

namespace {

double engine_time(int p, m4::Engine engine,
                   const std::vector<sp::Point2>& points,
                   const std::vector<sp::Rect>& queries,
                   dipdc::perfmodel::MachineConfig machine = {}) {
  m4::Config cfg;
  cfg.engine = engine;
  mpi::RuntimeOptions opts;
  opts.machine = machine;
  return run_forced(p, opts, [&](mpi::Comm& comm) {
    // Measure the query phase only: the index build is a fixed cost
    // shared by all rank counts (it is replicated, not partitioned).
    return m4::run_distributed(comm, points, queries, cfg).sim_time;
  });
}

}  // namespace

TEST(Scaling, BruteForceScalesBetterThanRTree) {
  // The module's crossover: on a single node, the compute-bound brute
  // force approaches linear speedup while the memory-bound R-tree
  // saturates on shared bandwidth.
  const auto points = make_points(20000, 31);
  const auto queries = m4::make_query_workload(400, 100.0, 10.0, 37);
  dipdc::perfmodel::MachineConfig one_node;  // 1 node, shared bandwidth

  const double sb =
      engine_time(1, m4::Engine::kBruteForce, points, queries, one_node) /
      engine_time(16, m4::Engine::kBruteForce, points, queries, one_node);
  const double sr =
      engine_time(1, m4::Engine::kRTree, points, queries, one_node) /
      engine_time(16, m4::Engine::kRTree, points, queries, one_node);
  EXPECT_GT(sb, sr);
  EXPECT_GT(sb, 8.0);   // near-linear
  EXPECT_LT(sr, 12.0);  // clearly saturating
}

TEST(Placement, TwoNodesBeatOneForTheRTree) {
  // Activity 3: p ranks on 2 nodes exploit twice the aggregate memory
  // bandwidth, helping the memory-bound R-tree.
  const auto points = make_points(20000, 41);
  const auto queries = m4::make_query_workload(400, 100.0, 10.0, 43);
  auto one = dipdc::perfmodel::MachineConfig::monsoon_like(1);
  auto two = dipdc::perfmodel::MachineConfig::monsoon_like(2);
  const double t1 = engine_time(16, m4::Engine::kRTree, points, queries, one);
  const double t2 = engine_time(16, m4::Engine::kRTree, points, queries, two);
  EXPECT_LT(t2, t1);
}

TEST(Edge, EmptyQuerySetIsFine) {
  const auto points = make_points(100, 47);
  mpi::run(3, [&](mpi::Comm& comm) {
    const auto r = m4::run_distributed(comm, points,
                                       std::vector<sp::Rect>{}, m4::Config{});
    EXPECT_EQ(r.total_matches, 0u);
  });
}

TEST(Edge, MoreRanksThanQueries) {
  const auto points = make_points(500, 53);
  const auto queries = m4::make_query_workload(2, 100.0, 50.0, 59);
  m4::Config cfg;
  cfg.engine = m4::Engine::kRTree;
  mpi::run(8, [&](mpi::Comm& comm) {
    const auto r = m4::run_distributed(comm, points, queries, cfg);
    EXPECT_GT(r.total_matches, 0u);
  });
}
