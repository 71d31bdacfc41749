// The transport fast path and the collective-algorithm dispatch are
// real-world optimizations only: the modules' simulated experiments must be
// bit-identical with every fast-path feature disabled and with every
// collective forced onto the classic (seed) algorithm.  This pins the
// "before/after the transport rewrite" contract for Module 2 (distance
// matrix) and Module 5 (k-means).
// Since the SIMD kernel dispatch (src/kernels) the same contract covers
// the compute ISA: forcing --kernel=scalar and --kernel=simd must produce
// bit-identical module results (the canonical accumulation contract).
// The backend-forcing boilerplate lives in run_forced.hpp, shared with
// container_faults_test.  One case pins module 5's absolute values too,
// so the shared iteration step cannot drift from the numbers it must
// reproduce.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <span>
#include <string>
#include <vector>

#include "dataio/chunk.hpp"
#include "dataio/dataset.hpp"
#include "kernels/dispatch.hpp"
#include "minimpi/backend.hpp"
#include "minimpi/runtime.hpp"
#include "modules/distmatrix/module2.hpp"
#include "modules/kmeans/module5.hpp"
#include "modules/sort/module3.hpp"
#include "run_forced.hpp"

namespace mpi = dipdc::minimpi;
namespace io = dipdc::dataio;
namespace m2 = dipdc::modules::distmatrix;
namespace m3 = dipdc::modules::distsort;
namespace m5 = dipdc::modules::kmeans;
namespace ker = dipdc::kernels;
using dipdc::testing::forced;
using dipdc::testing::other_backends;
using dipdc::testing::run_forced;

namespace {

/// Scalar always; simd too when this host can run it.
std::vector<ker::Policy> kernel_policies() {
  std::vector<ker::Policy> policies = {ker::Policy::kScalar};
  if (ker::simd_supported()) policies.push_back(ker::Policy::kSimd);
  return policies;
}

/// The seed's behaviour: no pooling, no zero-copy, no inline storage, and
/// every collective on its classic algorithm.
mpi::RuntimeOptions seed_equivalent() {
  mpi::RuntimeOptions opts;
  opts.transport.pooling = false;
  opts.transport.zero_copy = false;
  opts.transport.inline_threshold = 0;
  opts.collectives.scatter = mpi::CollectiveAlgorithm::kClassic;
  opts.collectives.gather = mpi::CollectiveAlgorithm::kClassic;
  opts.collectives.allreduce = mpi::CollectiveAlgorithm::kClassic;
  opts.collectives.allgather = mpi::CollectiveAlgorithm::kClassic;
  return opts;
}

/// Smallest n at which rank 0 of p owns more than two strips of rows
/// (m2::rows_per_strip) with a partial last strip, so the in-core strip
/// fold runs several full strips and then a short one.
std::size_t multi_strip_n(std::size_t p) {
  for (std::size_t n = p;; ++n) {
    const auto [rb, re] = io::block_partition(n, p).front();
    const std::size_t strip = m2::rows_per_strip(n);
    if (re - rb > 2 * strip && (re - rb) % strip != 0) return n;
  }
}

std::vector<mpi::RuntimeOptions> transport_variants() {
  std::vector<mpi::RuntimeOptions> variants;
  variants.push_back({});  // defaults: full fast path, kAuto collectives
  variants.push_back(seed_equivalent());
  mpi::RuntimeOptions pool_only;
  pool_only.transport.zero_copy = false;
  variants.push_back(pool_only);
  mpi::RuntimeOptions share_only;
  share_only.transport.pooling = false;
  variants.push_back(share_only);
  return variants;
}

}  // namespace

TEST(Determinism, Module2ResultsAreBackendInvariant) {
  // The transport backend moves real bytes differently (in-process
  // mailboxes or kernel loopback sockets) but the simulated experiment
  // must not notice: checksum, sim clock, and byte counters are
  // bit-identical on every backend.
  const auto d = io::generate_uniform(96, 16, 0.0, 1.0, 11);
  m2::Config cfg;
  cfg.tile = 24;

  auto body = [&](mpi::Comm& comm) { return m2::run_distributed(comm, d, cfg); };

  const m2::Result reference = run_forced(4, {}, body);
  for (const auto kind : other_backends()) {
    const m2::Result r = run_forced(4, forced(kind), body);
    const std::string label = mpi::to_string(kind);
    EXPECT_EQ(r.checksum, reference.checksum) << label;
    EXPECT_EQ(r.sim_time, reference.sim_time) << label;
    EXPECT_EQ(r.compute_time, reference.compute_time) << label;
    EXPECT_EQ(r.comm_time, reference.comm_time) << label;
  }
}

TEST(Determinism, Module5ResultsAreBackendInvariant) {
  const auto d = io::generate_clusters(1500, 2, 4, 0.3, 0.0, 50.0, 17);
  m5::Config cfg;
  cfg.k = 4;
  cfg.strategy = m5::Strategy::kWeightedMeans;

  auto body = [&](mpi::Comm& comm) {
    return m5::distributed(comm, comm.rank() == 0 ? d.data : io::Dataset{},
                           cfg);
  };

  const m5::Result reference = run_forced(5, {}, body);
  for (const auto kind : other_backends()) {
    const m5::Result r = run_forced(5, forced(kind), body);
    const std::string label = mpi::to_string(kind);
    EXPECT_EQ(r.centroids, reference.centroids) << label;
    EXPECT_EQ(r.inertia, reference.inertia) << label;
    EXPECT_EQ(r.iterations, reference.iterations) << label;
    EXPECT_EQ(r.sim_time, reference.sim_time) << label;
    EXPECT_EQ(r.comm_bytes, reference.comm_bytes) << label;
  }
}

TEST(Determinism, Module3ElasticResultsAreBackendInvariant) {
  // The elastic container adds weight-driven alltoallv exchanges and ring
  // checkpoints on top of the plain bucket sort; the sorted array and the
  // load-balance metrics must still be bit-identical on every backend.
  m3::Config cfg;
  cfg.policy = m3::SplitterPolicy::kHistogram;

  auto body = [&](mpi::Comm& comm) {
    std::vector<double> local(200);
    for (std::size_t i = 0; i < local.size(); ++i) {
      const auto h = (static_cast<std::uint64_t>(comm.rank()) * 7919 + i + 1) *
                     2654435761ULL;
      local[i] = static_cast<double>(h % 999983) / 999983.0;
    }
    std::vector<double> sorted;
    const m3::Result r = m3::elastic_bucket_sort(comm, std::move(local), cfg,
                                                 {}, &sorted);
    return std::make_pair(r, sorted);
  };

  const auto reference = run_forced(4, {}, body);
  ASSERT_TRUE(reference.first.globally_sorted);
  ASSERT_EQ(reference.second.size(), 200u * 4u);
  for (const auto kind : other_backends()) {
    const auto r = run_forced(4, forced(kind), body);
    const std::string label = mpi::to_string(kind);
    EXPECT_EQ(r.second, reference.second) << label;
    EXPECT_EQ(r.first.local_elements, reference.first.local_elements)
        << label;
    EXPECT_EQ(r.first.imbalance, reference.first.imbalance) << label;
  }
}

TEST(Determinism, Module5ElasticResultsAreBackendInvariant) {
  // No faults here — just the container-backed iteration with churn-weight
  // rebalancing: centroids, iterations, and inertia are bit-identical
  // across backends at a fixed rank count.
  const auto d = io::generate_clusters(900, 2, 4, 0.35, 0.0, 40.0, 31);
  m5::Config cfg;
  cfg.k = 4;

  auto body = [&](mpi::Comm& comm) {
    return m5::elastic(comm, comm.rank() == 0 ? d.data : io::Dataset{}, cfg);
  };

  const m5::Result reference = run_forced(4, {}, body);
  ASSERT_TRUE(reference.converged);
  for (const auto kind : other_backends()) {
    const m5::Result r = run_forced(4, forced(kind), body);
    const std::string label = mpi::to_string(kind);
    EXPECT_EQ(r.centroids, reference.centroids) << label;
    EXPECT_EQ(r.inertia, reference.inertia) << label;
    EXPECT_EQ(r.iterations, reference.iterations) << label;
  }
}

TEST(Determinism, Module2SimTimeAndChecksumAreTransportInvariant) {
  const auto d = io::generate_uniform(96, 16, 0.0, 1.0, 11);
  m2::Config cfg;
  cfg.tile = 24;

  auto body = [&](mpi::Comm& comm) { return m2::run_distributed(comm, d, cfg); };

  std::vector<m2::Result> results;
  for (const auto& opts : transport_variants()) {
    results.push_back(run_forced(4, opts, body));
  }

  for (std::size_t i = 1; i < results.size(); ++i) {
    // Bit-identical, hence EXPECT_EQ on doubles, not EXPECT_NEAR.
    EXPECT_EQ(results[i].checksum, results[0].checksum) << "variant " << i;
    EXPECT_EQ(results[i].sim_time, results[0].sim_time) << "variant " << i;
    EXPECT_EQ(results[i].compute_time, results[0].compute_time)
        << "variant " << i;
    EXPECT_EQ(results[i].comm_time, results[0].comm_time) << "variant " << i;
  }
}

TEST(Determinism, Module5SimTimeAndInertiaAreTransportInvariant) {
  const auto d = io::generate_clusters(1500, 2, 4, 0.3, 0.0, 50.0, 17);

  for (const auto strategy : {m5::Strategy::kWeightedMeans,
                              m5::Strategy::kExplicitAssignments}) {
    m5::Config cfg;
    cfg.k = 4;
    cfg.strategy = strategy;

    auto body = [&](mpi::Comm& comm) {
      return m5::distributed(comm, comm.rank() == 0 ? d.data : io::Dataset{},
                             cfg);
    };

    std::vector<m5::Result> results;
    for (const auto& opts : transport_variants()) {
      results.push_back(run_forced(5, opts, body));
    }

    for (std::size_t i = 1; i < results.size(); ++i) {
      EXPECT_EQ(results[i].centroids, results[0].centroids)
          << "variant " << i;
      EXPECT_EQ(results[i].inertia, results[0].inertia) << "variant " << i;
      EXPECT_EQ(results[i].iterations, results[0].iterations)
          << "variant " << i;
      EXPECT_EQ(results[i].sim_time, results[0].sim_time) << "variant " << i;
      EXPECT_EQ(results[i].comm_bytes, results[0].comm_bytes)
          << "variant " << i;
    }
  }
}

TEST(Determinism, Module5SharedStepReproducesPinnedStrategies) {
  // distributed() and elastic() run both update strategies through one
  // shared Lloyd step.  These values were recorded from the separate
  // per-strategy loops that step replaced, so each strategy's centroids,
  // iterations, inertia, simulated time and loop volume must come out bit
  // for bit the same.
  struct Pin {
    m5::Strategy strategy;
    int ranks;
    int iterations;
    double inertia;
    double sim_time;
    std::uint64_t comm_bytes;
    std::vector<double> centroids;
  };
  const Pin pins[] = {
      {m5::Strategy::kExplicitAssignments, 3, 10, 0x1.0705b34ecf70ap+14,
       0x1.118849ad4b91bp-15, 33184,
       {0x1.73a63f8f7edacp+3, 0x1.0dc6fdc983ee5p+3, 0x1.547c24d639702p+4,
        0x1.b13fc2f88c9c4p+1, 0x1.26a3443b3e224p+4, 0x1.54d3465237462p+4}},
      {m5::Strategy::kExplicitAssignments, 5, 10, 0x1.0705b34ecf70ap+14,
       0x1.502bfa4a5793ep-15, 40768,
       {0x1.73a63f8f7edacp+3, 0x1.0dc6fdc983ee5p+3, 0x1.547c24d639702p+4,
        0x1.b13fc2f88c9c4p+1, 0x1.26a3443b3e224p+4, 0x1.54d3465237462p+4}},
      {m5::Strategy::kWeightedMeans, 3, 10, 0x1.0705b34ecf70bp+14,
       0x1.82cfe8300ba8ap-15, 2944,
       {0x1.73a63f8f7edacp+3, 0x1.0dc6fdc983ee3p+3, 0x1.547c24d639705p+4,
        0x1.b13fc2f88c9c5p+1, 0x1.26a3443b3e222p+4, 0x1.54d3465237462p+4}},
      {m5::Strategy::kWeightedMeans, 5, 10, 0x1.0705b34ecf70ap+14,
       0x1.442a11d182a2ap-14, 5888,
       {0x1.73a63f8f7edadp+3, 0x1.0dc6fdc983ee4p+3, 0x1.547c24d639705p+4,
        0x1.b13fc2f88c9c5p+1, 0x1.26a3443b3e223p+4, 0x1.54d3465237462p+4}},
  };
  const auto d = io::generate_clusters(600, 2, 3, 4.0, 0.0, 30.0, 41);
  for (const Pin& pin : pins) {
    m5::Config cfg;
    cfg.k = 3;
    cfg.strategy = pin.strategy;
    const m5::Result r = run_forced(pin.ranks, {}, [&](mpi::Comm& comm) {
      return m5::distributed(comm, comm.rank() == 0 ? d.data : io::Dataset{},
                             cfg);
    });
    const std::string label =
        std::string(pin.strategy == m5::Strategy::kWeightedMeans
                        ? "weighted"
                        : "explicit") +
        " on " + std::to_string(pin.ranks) + " ranks";
    EXPECT_TRUE(r.converged) << label;
    EXPECT_EQ(r.iterations, pin.iterations) << label;
    EXPECT_EQ(r.centroids, pin.centroids) << label;
    EXPECT_EQ(r.inertia, pin.inertia) << label;
    EXPECT_EQ(r.sim_time, pin.sim_time) << label;
    EXPECT_EQ(r.comm_bytes, pin.comm_bytes) << label;
  }
}

TEST(Determinism, Module2ResultsAreKernelIsaInvariant) {
  // dim % 4 != 0 so the sequential tail runs; one row-wise and one tiled
  // configuration, plus the symmetric/cyclic extension path.
  const auto d = io::generate_uniform(97, 17, 0.0, 1.0, 13);
  struct Shape {
    std::size_t tile;
    bool symmetric;
    m2::RowDistribution dist;
  };
  const Shape shapes[] = {
      {0, false, m2::RowDistribution::kBlock},
      {24, false, m2::RowDistribution::kBlock},
      {16, true, m2::RowDistribution::kCyclic},
  };
  for (const auto& shape : shapes) {
    std::vector<m2::Result> results;
    for (const auto policy : kernel_policies()) {
      m2::Config cfg;
      cfg.tile = shape.tile;
      cfg.symmetric = shape.symmetric;
      cfg.distribution = shape.dist;
      cfg.kernel = policy;
      results.push_back(run_forced(4, {}, [&](mpi::Comm& comm) {
        return m2::run_distributed(comm, d, cfg);
      }));
    }
    for (std::size_t i = 1; i < results.size(); ++i) {
      EXPECT_EQ(results[i].checksum, results[0].checksum)
          << "tile " << shape.tile;
      EXPECT_EQ(results[i].sim_time, results[0].sim_time)
          << "tile " << shape.tile;
    }
  }
}

TEST(Determinism, Module2TracedChecksumMatchesDispatchedKernel) {
  // The cachesim-traced loop nests and the untraced dispatched kernel
  // follow the same canonical accumulation, so the checksum is identical
  // (sim_time legitimately differs: tracing measures traffic instead of
  // estimating it).  The traced path also still builds each rank's whole
  // block, so it is the reference for the untraced path's strip-by-strip
  // checksum fold.  The sizes cover a rank spanning several strips with a
  // partial last one, ranks with fewer rows than one strip, and an empty
  // rank (n < p).
  constexpr int kRanks = 3;
  const std::size_t multi = multi_strip_n(kRanks);
  for (const std::size_t n : {multi, std::size_t{80}, std::size_t{2}}) {
    const auto d = io::generate_uniform(n, 30, 0.0, 1.0, 19);
    const auto [rb, re] = io::block_partition(n, kRanks).front();
    if (n == multi) {
      ASSERT_GT(re - rb, 2 * m2::rows_per_strip(n));
    } else {
      ASSERT_LT(re - rb, m2::rows_per_strip(n));
    }
    for (const std::size_t tile : {std::size_t{0}, std::size_t{24}}) {
      m2::Config traced;
      traced.tile = tile;
      traced.trace_cache = true;
      const double reference = run_forced(kRanks, {}, [&](mpi::Comm& comm) {
        return m2::run_distributed(comm, d, traced);
      }).checksum;
      for (const auto policy : kernel_policies()) {
        m2::Config cfg;
        cfg.tile = tile;
        cfg.kernel = policy;
        const m2::Result at_root = run_forced(kRanks, {}, [&](mpi::Comm& comm) {
          return m2::run_distributed(comm, d, cfg);
        });
        EXPECT_EQ(at_root.checksum, reference)
            << "n " << n << " tile " << tile << " kernel "
            << ker::policy_name(policy);
      }
    }
  }
}

TEST(Determinism, Module5ResultsAreKernelIsaInvariant) {
  const auto d = io::generate_clusters(1200, 3, 5, 0.4, 0.0, 40.0, 23);
  for (const auto strategy : {m5::Strategy::kWeightedMeans,
                              m5::Strategy::kExplicitAssignments}) {
    for (const auto init : {m5::Init::kFirstK, m5::Init::kPlusPlus}) {
      std::vector<m5::Result> results;
      for (const auto policy : kernel_policies()) {
        m5::Config cfg;
        cfg.k = 5;
        cfg.strategy = strategy;
        cfg.init = init;
        cfg.kernel = policy;
        results.push_back(run_forced(4, {}, [&](mpi::Comm& comm) {
          return m5::distributed(
              comm, comm.rank() == 0 ? d.data : io::Dataset{}, cfg);
        }));
      }
      for (std::size_t i = 1; i < results.size(); ++i) {
        EXPECT_EQ(results[i].centroids, results[0].centroids);
        EXPECT_EQ(results[i].inertia, results[0].inertia);
        EXPECT_EQ(results[i].iterations, results[0].iterations);
        EXPECT_EQ(results[i].sim_time, results[0].sim_time);
      }
    }
  }
}

// ---- Streamed (out-of-core) pipelines --------------------------------------
//
// The streamed variants move the dataset chunk-by-chunk through
// nonblocking broadcasts with the disk read and the compute overlapped.
// The contract: identical *results* to the in-core runs (checksums,
// sorted buckets), and identical results AND simulated clocks across
// backends and across overlap on/off.  Datasets are >= 4x the chunk
// budget so the rotation actually cycles.

namespace {

/// Temp-file path that cleans up after itself.
struct TempPath {
  explicit TempPath(const std::string& name)
      : path((std::filesystem::temp_directory_path() / name).string()) {}
  ~TempPath() { std::remove(path.c_str()); }
  std::string path;
};

/// What a module 3 run leaves: every rank's sorted bucket, gathered on
/// rank 0 in rank order, and the run's own verdict.
struct SortCapture {
  std::vector<double> gathered;
  bool sorted = false;
  bool operator==(const SortCapture&) const = default;
};

SortCapture gather_sorted(mpi::Comm& comm, const std::vector<double>& mine,
                          bool ok) {
  SortCapture out;
  out.sorted = ok;
  const auto np = static_cast<std::size_t>(comm.size());
  const std::size_t count = mine.size();
  std::vector<std::size_t> counts(np);
  comm.allgather(std::span<const std::size_t>(&count, 1),
                 std::span<std::size_t>(counts));
  std::vector<std::size_t> displs(np, 0);
  std::size_t total = 0;
  for (std::size_t i = 0; i < np; ++i) {
    displs[i] = total;
    total += counts[i];
  }
  out.gathered.resize(comm.rank() == 0 ? total : 0);
  comm.gatherv(std::span<const double>(mine),
               std::span<const std::size_t>(counts),
               std::span<const std::size_t>(displs),
               std::span<double>(out.gathered), 0);
  return out;
}

/// The in-core reference: the same keys, block-scattered across p ranks as
/// their "already distributed" local shards.
SortCapture incore_sort(const io::Dataset& keys, int p,
                        const m3::Config& cfg) {
  return run_forced(p, {}, [&](mpi::Comm& comm) {
    const auto parts = io::block_partition(
        keys.size(), static_cast<std::size_t>(comm.size()));
    const auto [b, e] = parts[static_cast<std::size_t>(comm.rank())];
    const auto rows = keys.rows(b, e);
    std::vector<double> local(rows.begin(), rows.end());
    const m3::Result res = m3::distributed_bucket_sort(comm, local, cfg);
    return gather_sorted(comm, local, res.globally_sorted);
  });
}

SortCapture streamed_sort(const std::string& path, int p,
                          const m3::Config& cfg, bool overlap) {
  return run_forced(p, {}, [&](mpi::Comm& comm) {
    std::vector<double> mine;
    const m3::Result res =
        m3::streamed_bucket_sort(comm, path, cfg, mine, {overlap});
    return gather_sorted(comm, mine, res.globally_sorted);
  });
}

}  // namespace

TEST(Streaming, Module2StreamedChecksumMatchesInCore) {
  // n = 97 fits each rank's rows in one in-core strip; the second size
  // makes the in-core path fold several strips, the last one partial.
  for (const std::size_t n : {std::size_t{97}, multi_strip_n(4)}) {
    const auto d = io::generate_uniform(n, 16, 0.0, 1.0, 11);
    TempPath chunks("dipdc_m2_stream_incore.bin");
    io::dataset_to_chunks(d, chunks.path, /*chunk_rows=*/n / 5 + 1);

    const m2::Config cfg;  // base configuration: block rows, row-wise
    const m2::Result incore = run_forced(4, {}, [&](mpi::Comm& comm) {
      return m2::run_distributed(comm, d, cfg);
    });
    for (const bool overlap : {true, false}) {
      const m2::Result streamed = run_forced(4, {}, [&](mpi::Comm& comm) {
        return m2::run_streamed(comm, chunks.path, cfg, {overlap});
      });
      EXPECT_EQ(streamed.checksum, incore.checksum)
          << "n=" << n << " overlap=" << overlap;
      EXPECT_EQ(streamed.n, incore.n);
      EXPECT_EQ(streamed.dim, incore.dim);
    }
  }
}

TEST(Streaming, Module2StreamedResultsAreBackendInvariant) {
  const auto d = io::generate_uniform(96, 8, -1.0, 1.0, 29);
  TempPath chunks("dipdc_m2_stream_backend.bin");
  io::dataset_to_chunks(d, chunks.path, /*chunk_rows=*/16);  // 6 chunks
  const m2::Config cfg;

  for (const bool overlap : {true, false}) {
    auto body = [&](mpi::Comm& comm) {
      return m2::run_streamed(comm, chunks.path, cfg, {overlap});
    };
    const m2::Result reference = run_forced(4, {}, body);
    EXPECT_GT(reference.sim_time, 0.0);
    for (const auto kind : other_backends()) {
      const m2::Result r = run_forced(4, forced(kind), body);
      const std::string label =
          std::string(mpi::to_string(kind)) +
          (overlap ? "/overlap" : "/no-overlap");
      EXPECT_EQ(r.checksum, reference.checksum) << label;
      EXPECT_EQ(r.sim_time, reference.sim_time) << label;
      EXPECT_EQ(r.compute_time, reference.compute_time) << label;
      EXPECT_EQ(r.comm_time, reference.comm_time) << label;
    }
  }
}

TEST(Streaming, Module2OverlapDoesNotChangeSimResults) {
  // Overlap hides transfers behind compute, so sim_time may legitimately
  // drop — but the computed matrix (checksum) must not move at all.
  const auto d = io::generate_uniform(80, 8, 0.0, 2.0, 31);
  TempPath chunks("dipdc_m2_stream_overlap.bin");
  io::dataset_to_chunks(d, chunks.path, /*chunk_rows=*/16);
  const m2::Config cfg;
  const m2::Result with = run_forced(3, {}, [&](mpi::Comm& comm) {
    return m2::run_streamed(comm, chunks.path, cfg, {true});
  });
  const m2::Result without = run_forced(3, {}, [&](mpi::Comm& comm) {
    return m2::run_streamed(comm, chunks.path, cfg, {false});
  });
  EXPECT_EQ(with.checksum, without.checksum);
  EXPECT_LE(with.sim_time, without.sim_time);
}

TEST(Streaming, Module3StreamedBucketsMatchInCore) {
  const auto keys = io::generate_uniform(4003, 1, 0.0, 1.0, 7);
  TempPath chunks("dipdc_m3_stream_incore.bin");
  io::dataset_to_chunks(keys, chunks.path, /*chunk_rows=*/512);  // 8 chunks

  const m3::Config cfg;  // kEqualWidth over [0, 1)
  const SortCapture incore = incore_sort(keys, 4, cfg);
  ASSERT_TRUE(incore.sorted);
  for (const bool overlap : {true, false}) {
    const SortCapture streamed = streamed_sort(chunks.path, 4, cfg, overlap);
    EXPECT_TRUE(streamed.sorted) << "overlap=" << overlap;
    EXPECT_TRUE(streamed == incore) << "overlap=" << overlap;
  }
}

TEST(Streaming, Module3StreamedKeepsWholeAndEmptyChunks) {
  // Sorted keys in small chunks: most chunks fall wholly into one rank's
  // bucket, so every other rank keeps none of them, and the chunks that
  // straddle a splitter keep a prefix on one rank and the suffix on the
  // next.  Descending order flips which side of a chunk each rank keeps.
  const auto shuffled = io::generate_uniform(4003, 1, 0.0, 1.0, 11);
  std::vector<double> ascending(shuffled.values().begin(),
                                shuffled.values().end());
  std::sort(ascending.begin(), ascending.end());
  std::vector<double> descending(ascending.rbegin(), ascending.rend());
  const m3::Config cfg;  // kEqualWidth over [0, 1)
  for (const auto* order : {&ascending, &descending}) {
    const io::Dataset keys(1, *order);
    TempPath chunks("dipdc_m3_stream_sorted.bin");
    io::dataset_to_chunks(keys, chunks.path, /*chunk_rows=*/64);  // 63 chunks
    const bool up = order == &ascending;
    for (const int p : {2, 3}) {
      const SortCapture incore = incore_sort(keys, p, cfg);
      ASSERT_TRUE(incore.sorted) << "p=" << p << " ascending=" << up;
      for (const bool overlap : {true, false}) {
        const SortCapture streamed =
            streamed_sort(chunks.path, p, cfg, overlap);
        EXPECT_TRUE(streamed.sorted)
            << "p=" << p << " ascending=" << up << " overlap=" << overlap;
        EXPECT_TRUE(streamed == incore)
            << "p=" << p << " ascending=" << up << " overlap=" << overlap;
      }
    }
  }
}

TEST(Streaming, Module3StreamedResultsAreBackendInvariant) {
  const auto keys = io::generate_exponential(3000, 1, 2.0, 13);
  TempPath chunks("dipdc_m3_stream_backend.bin");
  io::dataset_to_chunks(keys, chunks.path, /*chunk_rows=*/400);
  m3::Config cfg;
  cfg.hi = 8.0;  // clamp the exponential tail into the top bucket

  for (const bool overlap : {true, false}) {
    auto body = [&](mpi::Comm& comm) {
      std::vector<double> mine;
      m3::Result res =
          m3::streamed_bucket_sort(comm, chunks.path, cfg, mine, {overlap});
      return res;
    };
    const m3::Result reference = run_forced(4, {}, body);
    EXPECT_TRUE(reference.globally_sorted);
    EXPECT_GT(reference.sim_time, 0.0);
    for (const auto kind : other_backends()) {
      const m3::Result r = run_forced(4, forced(kind), body);
      const std::string label =
          std::string(mpi::to_string(kind)) +
          (overlap ? "/overlap" : "/no-overlap");
      EXPECT_EQ(r.sim_time, reference.sim_time) << label;
      EXPECT_EQ(r.local_elements, reference.local_elements) << label;
      EXPECT_EQ(r.imbalance, reference.imbalance) << label;
      EXPECT_EQ(r.exchange_time, reference.exchange_time) << label;
      EXPECT_EQ(r.sort_time, reference.sort_time) << label;
    }
  }
}
