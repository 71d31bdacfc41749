// Every module call of the end-to-end benchmark.  Each workload generates
// its inputs from the seed alone, runs one fixed configuration of a module
// through mpi::run exactly as tools/dipdc.cpp does, and checks the output
// against a serial oracle.  Sizes never depend on how a run is measured, so
// a --quick run checks the same outputs a full set does.
#include "workloads.hpp"

#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <limits>
#include <optional>

#include "container/partitioning.hpp"
#include "dataio/chunk.hpp"
#include "dataio/dataset.hpp"
#include "kernels/dispatch.hpp"
#include "kernels/distance.hpp"
#include "kernels/filter.hpp"
#include "kernels/kmeans.hpp"
#include "kernels/sort.hpp"
#include "minimpi/comm.hpp"
#include "modules/distmatrix/module2.hpp"
#include "modules/kmeans/module5.hpp"
#include "modules/rangequery/serving.hpp"
#include "modules/sort/module3.hpp"
#include "perfmodel/machine.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "support/stopwatch.hpp"

namespace dipdc::bench_e2e {

namespace {

namespace mpi = minimpi;
namespace io = dataio;
namespace m2 = modules::distmatrix;
namespace m3 = modules::distsort;
namespace m4 = modules::rangequery;
namespace m5 = modules::kmeans;

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

kernels::Isa isa() { return kernels::resolve(kernels::Policy::kAuto); }

/// The options tools/dipdc.cpp builds for a one-node run, with tracing on
/// only for the traced variant.
mpi::RuntimeOptions runtime_options(Variant variant, mpi::BackendKind backend) {
  mpi::RuntimeOptions opts;
  opts.backend.kind = backend;
  opts.machine = perfmodel::MachineConfig::monsoon_like(1);
  opts.record_trace = variant == Variant::kTraced;
  opts.trace_wall_time = opts.record_trace;
  return opts;
}

/// One mpi::run with the harness's spans around it and around each rank's
/// call into the module.  Exceptions propagate to the harness, which counts
/// the iteration as failed.
template <typename ModuleCall>
Outcome timed_run(int ranks, const mpi::RuntimeOptions& opts,
                  const ModuleCall& module_call) {
  const auto n = static_cast<std::size_t>(ranks);
  std::vector<double> enter(n, 0.0);
  std::vector<double> leave(n, 0.0);
  std::vector<double> cpu(n, 0.0);
  Outcome out;
  const support::Stopwatch clock;  // zero when run() is called
  out.run = mpi::run(
      ranks,
      [&](mpi::Comm& comm) {
        const auto r = static_cast<std::size_t>(comm.rank());
        enter[r] = clock.elapsed();
        const double cpu0 = thread_cpu_s();
        module_call(comm);
        cpu[r] = thread_cpu_s() - cpu0;
        leave[r] = clock.elapsed();
      },
      opts);
  RunSpans& s = out.spans;
  s.wall_s = clock.elapsed();
  s.startup_s = *std::max_element(enter.begin(), enter.end());
  s.teardown_s = s.wall_s - *std::max_element(leave.begin(), leave.end());
  for (std::size_t r = 0; r < n; ++r) s.rank_wall_s.push_back(leave[r] - enter[r]);
  s.rank_cpu_s = std::move(cpu);
  out.sim_makespan_s = out.run.max_sim_time();
  return out;
}

/// Records the first failed check of an iteration.
void expect(Outcome& out, bool holds, const std::string& why) {
  if (!holds && out.why.empty()) out.why = why;
}

/// Closes an iteration: a failed check fails every operation it covers.
void finish(Outcome& out) {
  if (!out.why.empty()) out.failed = out.attempted;
}

bool within(double value, double reference, double rel) {
  return std::abs(value - reference) <= rel * std::abs(reference);
}

// ---- distmatrix ----------------------------------------------------------

/// Module 2, in-core, row-wise: the compute-bound module.  Two ranks: with
/// three busy compute threads the medians of 12-second windows on a shared
/// 4-vCPU host ranged over 1.33x, with two over 1.11x.
class DistMatrix final : public Workload {
 public:
  explicit DistMatrix(std::uint64_t seed) : seed_(seed) {}

  std::string_view name() const override { return "distmatrix"; }
  std::string_view item_unit() const override { return "pair"; }
  double items() const override { return static_cast<double>(kN * kN); }

  Samples setup() override {
    const support::Stopwatch clock;
    data_ = io::generate_uniform(kN, kDim, 0.0, 1.0, seed_);
    return {{"dataio.generate_s", clock.elapsed()}};
  }

  /// Serial scalar-kernel sum of all n^2 distances, accumulated in long
  /// double so the oracle's own rounding is far below the tolerance.
  Oracle oracle() const override {
    constexpr std::size_t kRows = 256;
    std::vector<double> block(kRows * kN);
    long double sum = 0.0L;
    for (std::size_t rb = 0; rb < kN; rb += kRows) {
      const std::size_t re = std::min(kN, rb + kRows);
      kernels::distance_rows(kernels::Isa::kScalar, data_.values().data(),
                             kDim, kN, rb, re, 0, block.data());
      for (std::size_t i = 0; i < (re - rb) * kN; ++i) sum += block[i];
    }
    Oracle o;
    o.value = static_cast<double>(sum);
    return o;
  }

  Outcome iterate(Variant variant, std::size_t /*input*/,
                  const Oracle& oracle, bool corrupt) override {
    const io::Dataset empty;
    double checksum = 0.0;
    Outcome out = timed_run(
        kRanks, runtime_options(variant, mpi::BackendKind::kThreads),
        [&](mpi::Comm& comm) {
          const m2::Result r = m2::run_distributed(
              comm, comm.rank() == 0 ? data_ : empty, m2::Config{});
          if (comm.rank() == 0) checksum = r.checksum;
        });
    if (corrupt) checksum = std::nextafter(checksum, 0.0);
    if (!warm_checksum_) warm_checksum_ = checksum;
    expect(out, within(checksum, oracle.value, 1e-12),
           "checksum " + g17(checksum) + " vs serial " + g17(oracle.value));
    expect(out, checksum == *warm_checksum_,
           "checksum " + g17(checksum) + " differs from the warm-up's " +
               g17(*warm_checksum_));
    finish(out);
    return out;
  }

  Samples replay() const override {
    const auto parts = io::block_partition(kN, kRanks);
    const std::size_t most = parts.front().second - parts.front().first;
    std::vector<double> block(most * kN);
    const m2::Config cfg;
    double bytes = 0.0;
    const support::Stopwatch clock;
    for (const auto& [rb, re] : parts) {
      kernels::distance_rows(isa(), data_.values().data(), kDim, kN, rb, re,
                             0, block.data());
      bytes += m2::estimated_traffic_rowwise(re - rb, kN, kDim,
                                             cfg.cache.size_bytes);
    }
    return {{"kernels.replay_s", clock.elapsed()},
            {"kernels.ops", m2::block_flops(kN, kN, kDim)},
            {"kernels.bytes", bytes}};
  }

 private:
  static constexpr std::size_t kN = 4096;
  static constexpr std::size_t kDim = 90;
  static constexpr int kRanks = 2;

  std::uint64_t seed_;
  io::Dataset data_;
  std::optional<double> warm_checksum_;
};

// ---- sorts ---------------------------------------------------------------

/// Order-independent fingerprint of a multiset of keys: the wrapping sum of
/// a 64-bit mix of each key's bits.
std::uint64_t key_hash(double key) {
  std::uint64_t z = std::bit_cast<std::uint64_t>(key) + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Module 3: what both sort workloads share — per-rank key shares, the
/// serial oracle, and the check of the rank buckets.
class SortWorkload : public Workload {
 public:
  std::string_view item_unit() const override { return "key"; }
  double items() const override {
    return static_cast<double>(static_cast<std::size_t>(ranks_) *
                               keys_per_rank_);
  }

  /// A serial std::sort of every key: the single-process baseline, whose
  /// count and key fingerprint every run's buckets must reproduce.
  Oracle oracle() const override {
    std::vector<double> all;
    for (const auto& k : keys_) all.insert(all.end(), k.begin(), k.end());
    std::sort(all.begin(), all.end());
    Oracle o;
    o.count = all.size();
    for (const double v : all) o.fingerprint += key_hash(v);
    return o;
  }

 protected:
  SortWorkload(std::uint64_t seed, int ranks, std::size_t keys_per_rank,
               bool exponential)
      : seed_(seed),
        ranks_(ranks),
        keys_per_rank_(keys_per_rank),
        exponential_(exponential) {}

  /// The keys tools/dipdc.cpp generates for module 3: stream (seed, rank).
  double generate_keys() {
    const support::Stopwatch clock;
    keys_.assign(static_cast<std::size_t>(ranks_), {});
    for (int r = 0; r < ranks_; ++r) {
      auto rng = support::make_stream(seed_, static_cast<std::uint64_t>(r));
      auto& k = keys_[static_cast<std::size_t>(r)];
      k.resize(keys_per_rank_);
      for (double& v : k) {
        v = exponential_ ? std::min(rng.exponential(1.0), 9.999)
                         : rng.uniform(0.0, 10.0);
      }
    }
    return clock.elapsed();
  }

  static m3::Config config(m3::SplitterPolicy policy) {
    m3::Config cfg;
    cfg.policy = policy;
    cfg.lo = 0.0;
    cfg.hi = 10.0;
    return cfg;
  }

  /// In-core bucket sort of the rank shares on `backend`; leaves each
  /// rank's sorted bucket in `buckets`.
  Outcome run_in_core(Variant variant, mpi::BackendKind backend,
                      m3::SplitterPolicy policy,
                      std::vector<std::vector<double>>& buckets) const {
    buckets = keys_;
    return timed_run(ranks_, runtime_options(variant, backend),
                     [&](mpi::Comm& comm) {
                       m3::distributed_bucket_sort(
                           comm, buckets[static_cast<std::size_t>(comm.rank())],
                           config(policy));
                     });
  }

  /// Every bucket sorted, rank ranges ordered, and the count and key
  /// fingerprint equal to the oracle's.
  static void check(Outcome& out, std::vector<std::vector<double>>& buckets,
                    const Oracle& oracle, bool corrupt) {
    if (corrupt) {
      auto& b = *std::max_element(
          buckets.begin(), buckets.end(),
          [](const auto& x, const auto& y) { return x.size() < y.size(); });
      const auto at = std::adjacent_find(b.begin(), b.end(),
                                         std::not_equal_to<double>());
      if (at != b.end()) std::iter_swap(at, at + 1);
    }
    std::uint64_t count = 0;
    std::uint64_t fingerprint = 0;
    double prev_max = -std::numeric_limits<double>::infinity();
    for (std::size_t r = 0; r < buckets.size(); ++r) {
      const auto& b = buckets[r];
      expect(out, std::is_sorted(b.begin(), b.end()),
             "rank " + std::to_string(r) + "'s bucket is not sorted");
      if (!b.empty()) {
        expect(out, b.front() >= prev_max,
               "rank " + std::to_string(r) + "'s range starts below rank " +
                   std::to_string(r - 1) + "'s");
        prev_max = b.back();
      }
      count += b.size();
      for (const double v : b) fingerprint += key_hash(v);
    }
    expect(out, count == oracle.count,
           std::to_string(count) + " keys out, " +
               std::to_string(oracle.count) + " in");
    expect(out, fingerprint == oracle.fingerprint,
           "key fingerprint differs from the input's");
    finish(out);
  }

  /// Classifies every key against equal-width splitters, `passes` times
  /// over: the dispatched splitter-scan kernel's work (its cost does not
  /// depend on where the p-1 splitters sit).  Returns the keys classified.
  double classify(int passes) const {
    std::vector<double> splitters;
    for (int i = 1; i < ranks_; ++i) {
      splitters.push_back(10.0 * static_cast<double>(i) / ranks_);
    }
    std::vector<std::uint32_t> dest(keys_per_rank_);
    for (int p = 0; p < passes; ++p) {
      for (const auto& k : keys_) {
        kernels::bucket_indices(isa(), k.data(), k.size(), splitters.data(),
                                splitters.size(), dest.data());
      }
    }
    return static_cast<double>(passes) * items();
  }

  /// Bytes a classification pass moves per key: the key in, its index out.
  static constexpr double kClassifyBytes =
      sizeof(double) + sizeof(std::uint32_t);

  std::uint64_t seed_;
  int ranks_;
  std::size_t keys_per_rank_;
  bool exponential_;
  std::vector<std::vector<double>> keys_;
};

/// Module 3 in-core, exponential keys and histogram splitters (paper
/// activity 3), over the tcp backend: the one workload that crosses the
/// backend seam.
class SortTcp final : public SortWorkload {
 public:
  explicit SortTcp(std::uint64_t seed) : SortWorkload(seed, 3, 400000, true) {}

  std::string_view name() const override { return "sort-tcp"; }

  Samples setup() override { return {{"dataio.generate_s", generate_keys()}}; }

  /// kAlternative is the same run on the threads backend.
  Outcome iterate(Variant variant, std::size_t /*input*/,
                  const Oracle& oracle, bool corrupt) override {
    std::vector<std::vector<double>> buckets;
    Outcome out = run_in_core(variant,
                              variant == Variant::kAlternative
                                  ? mpi::BackendKind::kThreads
                                  : mpi::BackendKind::kTcp,
                              m3::SplitterPolicy::kHistogram, buckets);
    check(out, buckets, oracle, corrupt);
    return out;
  }

  /// Rank 0's splitter histogram plus every key's classification.
  Samples replay() const override {
    const auto n0 = static_cast<double>(keys_[0].size());
    std::vector<std::uint64_t> hist(
        config(m3::SplitterPolicy::kHistogram).histogram_bins);
    const support::Stopwatch clock;
    kernels::histogram(isa(), keys_[0].data(), keys_[0].size(), 0.0,
                       10.0 / static_cast<double>(hist.size()), hist.size(),
                       hist.data());
    const double classified = classify(1);
    return {{"kernels.replay_s", clock.elapsed()},
            {"kernels.ops", n0 + classified},
            {"kernels.bytes", n0 * sizeof(double) + classified * kClassifyBytes}};
  }
};

/// Module 3 out-of-core: uniform keys and equal-width splitters streamed
/// from a chunk file.  Two ranks: with the read-ahead thread, three ranks
/// kept four threads busy, and interleaved over ten 10-second runs on a
/// shared 4-vCPU host their wall medians spread 14% (IQR / median) against
/// 8.5% for two ranks (which sort 2M keys in about the time three sort 3M).
class SortStream final : public SortWorkload {
 public:
  SortStream(std::uint64_t seed, const std::string& workdir)
      : SortWorkload(seed, 2, 1000000, false),
        path_((std::filesystem::path(workdir) /
               ("dipdc_e2e_" + std::to_string(seed) + "_" +
                std::to_string(::getpid()) + ".chunks"))
                  .string()) {}
  ~SortStream() override { std::remove(path_.c_str()); }

  std::string_view name() const override { return "sort-stream"; }

  /// The keys spilled rank-major, as `dipdc module3 --stream` does.
  Samples setup() override {
    Samples s{{"dataio.generate_s", generate_keys()}};
    const support::Stopwatch clock;
    std::vector<double> all;
    all.reserve(static_cast<std::size_t>(items()));
    for (const auto& k : keys_) all.insert(all.end(), k.begin(), k.end());
    io::dataset_to_chunks(io::Dataset(1, std::move(all)), path_, kChunkRows);
    s.emplace_back("dataio.spill_s", clock.elapsed());
    return s;
  }

  /// kAlternative is the in-core equal-width sort of the same keys.
  Outcome iterate(Variant variant, std::size_t /*input*/,
                  const Oracle& oracle, bool corrupt) override {
    std::vector<std::vector<double>> buckets;
    Outcome out;
    if (variant == Variant::kAlternative) {
      out = run_in_core(variant, mpi::BackendKind::kThreads,
                        m3::SplitterPolicy::kEqualWidth, buckets);
    } else {
      buckets.assign(static_cast<std::size_t>(ranks_), {});
      out = timed_run(ranks_,
                      runtime_options(variant, mpi::BackendKind::kThreads),
                      [&](mpi::Comm& comm) {
                        m3::streamed_bucket_sort(
                            comm, path_,
                            config(m3::SplitterPolicy::kEqualWidth),
                            buckets[static_cast<std::size_t>(comm.rank())]);
                      });
    }
    check(out, buckets, oracle, corrupt);
    return out;
  }

  /// Every rank classifies every streamed chunk; plus one read-ahead pass
  /// of ChunkReader::next over the file.
  Samples replay() const override {
    const support::Stopwatch kernel_clock;
    const double classified = classify(ranks_);
    Samples s{{"kernels.replay_s", kernel_clock.elapsed()},
              {"kernels.ops", classified},
              {"kernels.bytes", classified * kClassifyBytes}};
    io::ChunkReader reader(path_);
    std::vector<double> chunk;
    const support::Stopwatch read_clock;
    while (reader.next(chunk) < reader.num_chunks()) {
    }
    const double read_s = read_clock.elapsed();
    s.emplace_back("dataio.read_s", read_s);
    s.emplace_back("dataio.read_mb_per_s",
                   items() * sizeof(double) / read_s / (1 << 20));
    return s;
  }

 private:
  static constexpr std::size_t kChunkRows = 65536;
  std::string path_;
};

// ---- serve-zipf ----------------------------------------------------------

/// Grid cell of coordinate `v` on an axis of `g` cells `cell` wide,
/// clamped into the grid (serving's cell rule).
std::size_t grid_coord(double v, double cell, std::size_t g) {
  return std::min(g - 1, static_cast<std::size_t>(std::max(0.0, v / cell)));
}

/// Module 4 serving mode under zipf-skewed open-loop load (simulated clock),
/// below the saturation knee: at 50k q/s a seed whose hot cells share one
/// shard overflows its queue, at 30k q/s (batches of 64) none of
/// ServeConfig seeds 0-3199 does in 0.25 simulated s.  Where the hot cells
/// land decides how much a run scans, so one layout per run made the wall
/// time follow the seed (0.205-0.27 s over seeds 0-9 on the 4x4 grid).
/// Instead the workload has kLayouts inputs,
/// ServeConfig::seed = kLayouts * seed + layout, which the harness runs in
/// whole passes, and the 24x24 grid spreads zipf popularity over 576 cells.
/// With 8 layouts of 0.5 s the wall p50 of ten seeds still spread 12.1%
/// (IQR / median); 32 layouts of 0.25 s, interleaved with them, 6.2%.
/// Batches of 64: every batch is a blocking handoff between rank 0 and a shard, and while
/// the hypervisor steals CPU each one stalls.  Interleaved on a shared
/// 4-vCPU host, batches of 16 read a wall p90 of 0.80 s in a run with 18%
/// steal (0.16-0.19 s otherwise); batches of 64 spread 29% in wall p90
/// against 98% over the same six rounds.
class ServeZipf final : public Workload {
 public:
  explicit ServeZipf(std::uint64_t seed) : seed_(seed) {
    cfg_.n_points = 50000;
    cfg_.side = 4.0;
    cfg_.qps = 30000.0;
    cfg_.duration = 0.25;
    cfg_.mix = m4::Mix::kZipf;
    cfg_.zipf_s = 1.1;
    cfg_.batch = 64;
    cfg_.queue_cap = 256;
    cfg_.pipeline = 2;
    cfg_.grid = kGrid;
  }

  std::string_view name() const override { return "serve-zipf"; }
  std::string_view item_unit() const override { return "query"; }
  double items() const override { return static_cast<double>(offered()); }
  std::uint64_t operations() const override { return offered(); }
  std::size_t inputs() const override { return kLayouts; }

  Samples setup() override { return {}; }

  /// Per layout, serial scalar point-in-rect counts of every offered query.
  /// The points are bucketed into window-sized grid cells (not the module's
  /// shard map), so each window scans only the cells it overlaps.
  Oracle oracle() const override {
    const auto g = static_cast<std::size_t>(std::ceil(cfg_.extent / cfg_.side));
    const double cell = cfg_.extent / static_cast<double>(g);
    Oracle o;
    for (std::size_t layout = 0; layout < kLayouts; ++layout) {
      const m4::ServeConfig cfg = config(layout);
      std::vector<Points> cells(g * g);
      const Points pts = points(cfg);
      for (std::size_t i = 0; i < pts.xs.size(); ++i) {
        Points& c = cells[grid_coord(pts.ys[i], cell, g) * g +
                          grid_coord(pts.xs[i], cell, g)];
        c.xs.push_back(pts.xs[i]);
        c.ys.push_back(pts.ys[i]);
      }
      m4::QueryStream stream(cfg, kGrid);
      std::uint64_t matches = 0;
      for (std::uint64_t q = 0; q < offered(); ++q) {
        const spatial::Rect w = stream.next();
        for (std::size_t cy = grid_coord(w.ymin, cell, g);
             cy <= grid_coord(w.ymax, cell, g); ++cy) {
          for (std::size_t cx = grid_coord(w.xmin, cell, g);
               cx <= grid_coord(w.xmax, cell, g); ++cx) {
            const Points& c = cells[cy * g + cx];
            matches += kernels::count_in_rect(kernels::Isa::kScalar,
                                              c.xs.data(), c.ys.data(),
                                              c.xs.size(), w.xmin, w.ymin,
                                              w.xmax, w.ymax);
          }
        }
      }
      o.values.push_back(static_cast<double>(matches));
    }
    return o;
  }

  Outcome iterate(Variant variant, std::size_t layout, const Oracle& oracle,
                  bool corrupt) override {
    m4::ServeResult res;
    Outcome out = timed_run(
        kRanks, runtime_options(variant, mpi::BackendKind::kThreads),
        [&](mpi::Comm& comm) {
          m4::ServeResult r = m4::serve(comm, config(layout));
          if (comm.rank() == 0) res = std::move(r);
        });
    if (corrupt) --res.total_matches;
    out.attempted = offered();
    out.failed = res.rejected;
    expect(out, res.offered == offered(),
           std::to_string(res.offered) + " queries offered, expected " +
               std::to_string(offered()));
    expect(out, res.admitted + res.rejected == res.offered,
           "admitted + rejected != offered");
    if (res.rejected == 0) {
      const auto expected = static_cast<std::uint64_t>(oracle.values.at(layout));
      expect(out, res.total_matches == expected,
             std::to_string(res.total_matches) + " matches, serial " +
                 std::to_string(expected));
    }
    finish(out);
    const auto offered_q = static_cast<double>(res.offered);
    out.extra = {
        {"sim_p99_latency_s", res.p99_latency},
        {"modules.serve.admit_ratio",
         offered_q > 0.0 ? static_cast<double>(res.admitted) / offered_q : 0.0},
        {"modules.serve.batches", static_cast<double>(res.batches)},
        {"modules.serve.entries_checked",
         static_cast<double>(res.entries_checked)},
        {"modules.serve.shard_imbalance", res.shard_imbalance}};
    return out;
  }

  /// The shard scans of one run, single-threaded, averaged over the
  /// layouts: each shard's points (by grid cell, block-partitioned over the
  /// shards) tested against every query window that intersects one of the
  /// shard's cells.
  Samples replay() const override {
    const int shards = kRanks - 1;
    const double cell = cfg_.extent / static_cast<double>(kGrid);
    const auto cells = container::Partitioning::block(kGrid * kGrid, shards);
    double replay_s = 0.0;
    double entries = 0.0;
    for (std::size_t layout = 0; layout < kLayouts; ++layout) {
      const m4::ServeConfig cfg = config(layout);
      std::vector<Points> shard(static_cast<std::size_t>(shards));
      const Points pts = points(cfg);
      for (std::size_t i = 0; i < pts.xs.size(); ++i) {
        const std::size_t c = grid_coord(pts.ys[i], cell, kGrid) * kGrid +
                              grid_coord(pts.xs[i], cell, kGrid);
        Points& s = shard[static_cast<std::size_t>(cells.owner(c))];
        s.xs.push_back(pts.xs[i]);
        s.ys.push_back(pts.ys[i]);
      }
      std::vector<spatial::Rect> windows;
      m4::QueryStream stream(cfg, kGrid);
      for (std::uint64_t q = 0; q < offered(); ++q) {
        windows.push_back(stream.next());
      }

      std::uint64_t matches = 0;
      const support::Stopwatch clock;
      for (const spatial::Rect& w : windows) {
        const std::size_t x0 = grid_coord(w.xmin, cell, kGrid);
        const std::size_t x1 = grid_coord(w.xmax, cell, kGrid);
        int lo = shards;
        int hi = -1;
        for (std::size_t cy = grid_coord(w.ymin, cell, kGrid);
             cy <= grid_coord(w.ymax, cell, kGrid); ++cy) {
          lo = std::min(lo, cells.owner(cy * kGrid + x0));
          hi = std::max(hi, cells.owner(cy * kGrid + x1));
        }
        for (int s = lo; s <= hi; ++s) {
          const Points& p = shard[static_cast<std::size_t>(s)];
          matches += kernels::count_in_rect(isa(), p.xs.data(), p.ys.data(),
                                            p.xs.size(), w.xmin, w.ymin,
                                            w.xmax, w.ymax);
          entries += static_cast<double>(p.xs.size());
        }
      }
      replay_s += clock.elapsed();
      DIPDC_REQUIRE(matches > 0, "serving replay matched nothing");
    }
    const double per_run = 1.0 / static_cast<double>(kLayouts);
    return {{"kernels.replay_s", replay_s * per_run},
            {"kernels.ops", entries * per_run},
            {"kernels.bytes", entries * per_run * 2 * sizeof(double)}};
  }

 private:
  static constexpr int kRanks = 4;  // rank 0 issues queries, three shards
  static constexpr std::size_t kGrid = 24;
  static constexpr std::size_t kLayouts = 32;

  struct Points {
    std::vector<double> xs;
    std::vector<double> ys;
  };

  m4::ServeConfig config(std::size_t layout) const {
    m4::ServeConfig cfg = cfg_;
    cfg.seed = kLayouts * seed_ + layout;
    return cfg;
  }

  /// The point stream serve() draws: Xoshiro256(seed), x then y.
  static Points points(const m4::ServeConfig& cfg) {
    Points p;
    support::Xoshiro256 rng(cfg.seed);
    for (std::size_t i = 0; i < cfg.n_points; ++i) {
      p.xs.push_back(rng.uniform(0.0, cfg.extent));
      p.ys.push_back(rng.uniform(0.0, cfg.extent));
    }
    return p;
  }

  std::uint64_t offered() const {
    return static_cast<std::uint64_t>(std::llround(cfg_.qps * cfg_.duration));
  }

  std::uint64_t seed_;
  m4::ServeConfig cfg_;  // every field but the seed
};

// ---- kmeans-elastic ------------------------------------------------------

/// Module 5 on the elastic container.  The tolerance is negative, so every
/// run performs exactly kIterations Lloyd iterations: the work per run does
/// not depend on how fast a seed's clustering converges.
class KmeansElastic final : public Workload {
 public:
  explicit KmeansElastic(std::uint64_t seed) : seed_(seed) {
    cfg_.k = kK;
    cfg_.max_iterations = kIterations;
    cfg_.tolerance = -1.0;
    cfg_.strategy = m5::Strategy::kWeightedMeans;
  }

  std::string_view name() const override { return "kmeans-elastic"; }
  std::string_view item_unit() const override { return "point-iteration"; }
  double items() const override {
    return static_cast<double>(kN) * kIterations;
  }

  Samples setup() override {
    const support::Stopwatch clock;
    data_ =
        io::generate_clusters(kN, kDim, kK, 1.0, 0.0, kExtent, seed_).data;
    return {{"dataio.generate_s", clock.elapsed()}};
  }

  /// lloyd_sequential's final centroids, and the inertia of every point
  /// against its nearest final centroid (how elastic() reports inertia;
  /// lloyd_sequential's own uses the assignment before the last update).
  Oracle oracle() const override {
    Oracle o;
    o.values = m5::lloyd_sequential(data_, cfg_).centroids;
    std::vector<std::size_t> nearest(kN);
    kernels::assign_points(kernels::Isa::kScalar, data_.values().data(), kN,
                           kDim, o.values.data(), kK, nearest.data(), nullptr,
                           nullptr);
    long double inertia = 0.0L;
    for (std::size_t i = 0; i < kN; ++i) {
      inertia += kernels::squared_distance(kernels::Isa::kScalar,
                                           data_.point(i).data(),
                                           o.values.data() + nearest[i] * kDim,
                                           kDim);
    }
    o.value = static_cast<double>(inertia);
    return o;
  }

  /// kAlternative is plain m5::distributed on the same data.
  Outcome iterate(Variant variant, std::size_t /*input*/,
                  const Oracle& oracle, bool corrupt) override {
    const io::Dataset empty;
    m5::Result res;
    Outcome out = timed_run(
        kRanks, runtime_options(variant, mpi::BackendKind::kThreads),
        [&](mpi::Comm& comm) {
          const io::Dataset& mine = comm.rank() == 0 ? data_ : empty;
          m5::Result r = variant == Variant::kAlternative
                             ? m5::distributed(comm, mine, cfg_)
                             : m5::elastic(comm, mine, cfg_, {true, 1.25});
          if (comm.rank() == 0) res = std::move(r);
        });
    if (corrupt) res.inertia *= 1.0 + 1e-6;
    expect(out, res.iterations == kIterations,
           std::to_string(res.iterations) + " Lloyd iterations, expected " +
               std::to_string(kIterations));
    double drift = std::numeric_limits<double>::infinity();
    if (res.centroids.size() == oracle.values.size()) {
      drift = 0.0;
      for (std::size_t i = 0; i < res.centroids.size(); ++i) {
        drift = std::max(drift, std::abs(res.centroids[i] - oracle.values[i]));
      }
    }
    expect(out, drift <= 1e-9 * kExtent,
           "centroids drift " + g17(drift) + " from the serial run's");
    // m5::distributed reports lloyd_sequential's inertia definition.
    if (variant != Variant::kAlternative) {
      expect(out, within(res.inertia, oracle.value, 1e-9),
             "inertia " + g17(res.inertia) + " vs serial " +
                 g17(oracle.value));
    }
    finish(out);
    return out;
  }

  /// The fused assign+accumulate and update kernels of every iteration,
  /// over the whole dataset.
  Samples replay() const override {
    std::vector<double> centroids(data_.values().begin(),
                                  data_.values().begin() + kK * kDim);
    std::vector<std::size_t> assignment(kN);
    std::vector<double> sums(kK * kDim);
    std::vector<double> counts(kK);
    const support::Stopwatch clock;
    for (int it = 0; it < kIterations; ++it) {
      std::fill(sums.begin(), sums.end(), 0.0);
      std::fill(counts.begin(), counts.end(), 0.0);
      kernels::assign_points(isa(), data_.values().data(), kN, kDim,
                             centroids.data(), kK, assignment.data(),
                             sums.data(), counts.data());
      (void)kernels::update_centroids(isa(), centroids.data(), sums.data(),
                                      counts.data(), kK, kDim);
    }
    const double replay_s = clock.elapsed();
    const double n = static_cast<double>(kN) * kIterations;
    return {{"kernels.replay_s", replay_s},
            {"kernels.ops", n * kK * 3.0 * kDim},
            {"kernels.bytes",
             n * (kDim * sizeof(double) + sizeof(std::size_t))}};
  }

 private:
  static constexpr std::size_t kN = 100000;
  static constexpr std::size_t kDim = 2;
  static constexpr std::size_t kK = 16;
  static constexpr double kExtent = 100.0;
  static constexpr int kIterations = 20;
  static constexpr int kRanks = 3;

  std::uint64_t seed_;
  m5::Config cfg_;
  io::Dataset data_;
};

}  // namespace

const std::vector<std::string_view>& workload_names() {
  static const std::vector<std::string_view> kNames = {
      "distmatrix", "sort-tcp", "sort-stream", "serve-zipf",
      "kmeans-elastic"};
  return kNames;
}

std::unique_ptr<Workload> make_workload(std::string_view name,
                                        std::uint64_t seed,
                                        const std::string& workdir) {
  if (name == "distmatrix") return std::make_unique<DistMatrix>(seed);
  if (name == "sort-tcp") return std::make_unique<SortTcp>(seed);
  if (name == "sort-stream") return std::make_unique<SortStream>(seed, workdir);
  if (name == "serve-zipf") return std::make_unique<ServeZipf>(seed);
  if (name == "kmeans-elastic") return std::make_unique<KmeansElastic>(seed);
  throw support::PreconditionError("unknown workload '" + std::string(name) +
                                   "'");
}

std::string g17(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace dipdc::bench_e2e
