// Native (wall-clock) microbenchmarks of the computational kernels, via
// google-benchmark.  The table/figure reproductions use *simulated* time;
// this binary sanity-checks that the underlying kernels are real,
// reasonably optimized code whose relative behaviour (e.g. tiled vs.
// row-wise, scalar vs. SIMD dispatch) also shows up on actual hardware.
//
// The BM_Kernel* group registers every src/kernels entry point once per
// available ISA (scalar always; simd only when the host supports AVX2), so
// `items_per_second` ratios between the <scalar> and <simd> rows are the
// dispatch layer's measured speedups.  Where <simd> runs the AVX-512
// tier, BM_KernelDistanceRows<avx2> and BM_KernelKmeansAssign<avx2> rows
// time the AVX2 tier in the same recording.  Extra flags beyond
// google-benchmark's:
//
//   --quick    CI smoke mode: run only the BM_Kernel* group with a small
//              min-time, so the perf-smoke job finishes in seconds.
//
// `cmake --build build --target bench_kernels_json` writes the full run to
// BENCH_kernels.json at the repo root.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "cachesim/cache.hpp"
#include "dataio/dataset.hpp"
#include "index/rtree.hpp"
#include "kernels/dispatch.hpp"
#include "kernels/distance.hpp"
#include "kernels/kmeans.hpp"
#include "kernels/sort.hpp"
#include "modules/distmatrix/module2.hpp"
#include "support/rng.hpp"

namespace m2 = dipdc::modules::distmatrix;
namespace cs = dipdc::cachesim;
namespace sp = dipdc::spatial;
namespace io = dipdc::dataio;
namespace ker = dipdc::kernels;

namespace {

void BM_DistanceRowwise(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::size_t dim = 90;
  const auto d = io::generate_uniform(n, dim, 0.0, 1.0, 1);
  std::vector<double> out(32 * n);
  cs::NullTracer tracer;
  for (auto _ : state) {
    m2::distance_rows_rowwise(d.values(), dim, n, 0, 32,
                              std::span<double>(out), tracer);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          32 * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_DistanceRowwise)->Arg(1024)->Arg(4096);

void BM_DistanceTiled(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::size_t dim = 90;
  const auto d = io::generate_uniform(n, dim, 0.0, 1.0, 1);
  std::vector<double> out(32 * n);
  cs::NullTracer tracer;
  for (auto _ : state) {
    m2::distance_rows_tiled(d.values(), dim, n, 0, 32, /*tile=*/128,
                            std::span<double>(out), tracer);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          32 * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_DistanceTiled)->Arg(1024)->Arg(4096);

void BM_RTreeQuery(benchmark::State& state) {
  dipdc::support::Xoshiro256 rng(7);
  std::vector<sp::Point2> pts(static_cast<std::size_t>(state.range(0)));
  for (auto& p : pts) {
    p.x = rng.uniform(0.0, 100.0);
    p.y = rng.uniform(0.0, 100.0);
  }
  const auto tree = sp::RTree::bulk_load(pts, 16);
  std::vector<std::uint32_t> hits;
  std::size_t qi = 0;
  for (auto _ : state) {
    hits.clear();
    const double x = static_cast<double>(qi % 90);
    tree.query({x, x, x + 5.0, x + 5.0}, hits);
    benchmark::DoNotOptimize(hits.data());
    ++qi;
  }
}
BENCHMARK(BM_RTreeQuery)->Arg(10000)->Arg(100000);

void BM_BruteForceQuery(benchmark::State& state) {
  dipdc::support::Xoshiro256 rng(7);
  std::vector<sp::Point2> pts(static_cast<std::size_t>(state.range(0)));
  for (auto& p : pts) {
    p.x = rng.uniform(0.0, 100.0);
    p.y = rng.uniform(0.0, 100.0);
  }
  std::vector<std::uint32_t> hits;
  std::size_t qi = 0;
  for (auto _ : state) {
    hits.clear();
    const double x = static_cast<double>(qi % 90);
    sp::brute_force_query(pts, {x, x, x + 5.0, x + 5.0}, hits);
    benchmark::DoNotOptimize(hits.data());
    ++qi;
  }
}
BENCHMARK(BM_BruteForceQuery)->Arg(10000)->Arg(100000);

void BM_RTreeBulkLoad(benchmark::State& state) {
  dipdc::support::Xoshiro256 rng(9);
  std::vector<sp::Point2> pts(static_cast<std::size_t>(state.range(0)));
  for (auto& p : pts) {
    p.x = rng.uniform(0.0, 100.0);
    p.y = rng.uniform(0.0, 100.0);
  }
  for (auto _ : state) {
    auto tree = sp::RTree::bulk_load(pts, 16);
    benchmark::DoNotOptimize(tree.size());
  }
}
BENCHMARK(BM_RTreeBulkLoad)->Arg(100000);

void BM_CacheSimAccess(benchmark::State& state) {
  cs::CacheHierarchy h = cs::CacheHierarchy::typical();
  std::uint64_t addr = 0;
  for (auto _ : state) {
    h.access(addr);
    addr += 64;
    benchmark::DoNotOptimize(addr);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CacheSimAccess);

void BM_RngUniform(benchmark::State& state) {
  dipdc::support::Xoshiro256 rng(1);
  double acc = 0.0;
  for (auto _ : state) {
    acc += rng.uniform();
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RngUniform);

/// Times `sort` on `keys`, restoring them untimed before each iteration.
void bench_sort(benchmark::State& state, void (*sort)(double*, std::size_t),
                const std::vector<double>& keys) {
  std::vector<double> work(keys.size());
  for (auto _ : state) {
    state.PauseTiming();
    std::copy(keys.begin(), keys.end(), work.begin());
    state.ResumeTiming();
    sort(work.data(), work.size());
    benchmark::DoNotOptimize(work.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(keys.size()));
}

std::vector<double> uniform_keys(std::size_t n, double lo, double hi) {
  const auto d = io::generate_uniform(n, 1, lo, hi, 5);
  return {d.values().begin(), d.values().end()};
}

// The comparison-sort baseline for module 3's local sort.
void BM_LocalSort(benchmark::State& state) {
  bench_sort(
      state, [](double* v, std::size_t n) { std::sort(v, v + n); },
      uniform_keys(static_cast<std::size_t>(state.range(0)), 0.0, 1.0));
}
BENCHMARK(BM_LocalSort)->Arg(100000)->Arg(1000000);

// The same input through module 3's local sort kernel (scalar only, so not
// registered per ISA below); its ratio to BM_LocalSort is the host-clock
// gain of the radix sort.
void BM_KernelSortKeys(benchmark::State& state) {
  bench_sort(state, ker::sort_keys,
             uniform_keys(static_cast<std::size_t>(state.range(0)), 0.0,
                          1.0));
}
BENCHMARK(BM_KernelSortKeys)->Arg(100000)->Arg(1000000);

// The kernel on the buckets module 3's end-to-end workloads sort: one
// sort-stream rank's (1M uniform keys in [5, 10), the upper of two
// equal-width buckets over [0, 10)) and one sort-tcp rank's (400k
// exponential keys, rate 1, in the middle of three histogram buckets: the
// middle third of the mass, [ln 1.5, ln 3), drawn by inverse CDF).
std::vector<double> sort_stream_bucket() {
  return uniform_keys(1000000, 5.0, 10.0);
}

std::vector<double> sort_tcp_bucket() {
  dipdc::support::Xoshiro256 rng(5);
  std::vector<double> keys(400000);
  for (auto& x : keys) x = -std::log1p(-rng.uniform(1.0 / 3.0, 2.0 / 3.0));
  return keys;
}

void BM_KernelSortKeys(benchmark::State& state,
                       std::vector<double> (*keys)()) {
  bench_sort(state, ker::sort_keys, keys());
}
BENCHMARK_CAPTURE(BM_KernelSortKeys, sort_stream_bucket, sort_stream_bucket);
BENCHMARK_CAPTURE(BM_KernelSortKeys, sort_tcp_bucket, sort_tcp_bucket);

// ---------------------------------------------------------------------------
// BM_Kernel* — the dispatched src/kernels entry points, one registration per
// available ISA.  Registered dynamically (not via BENCHMARK) so the <simd>
// rows only exist on hosts where kernels::simd_supported() is true.

/// `kernel` has distance_rows' signature minus the Isa: the dispatched
/// entry point, or one SIMD tier called directly.
template <typename Kernel>
void bm_kernel_distance_rows(benchmark::State& state, Kernel kernel,
                             std::size_t n) {
  const std::size_t dim = 90;
  const std::size_t rows = 32;
  const auto d = io::generate_uniform(n, dim, 0.0, 1.0, 1);
  std::vector<double> out(rows * n);
  for (auto _ : state) {
    kernel(d.values().data(), dim, n, 0, rows, /*tile=*/128, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(rows * n));
}

void bm_kernel_distance_row(benchmark::State& state, ker::Isa isa,
                            std::size_t n) {
  const std::size_t dim = 90;
  const auto d = io::generate_uniform(n, dim, 0.0, 1.0, 2);
  std::vector<double> out(n);
  for (auto _ : state) {
    ker::distance_row(isa, d.values().data(), d.values().data(), dim, 0, n,
                      out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}

/// `kernel` has assign_points' signature minus the Isa: the dispatched
/// entry point, or one SIMD tier called directly.
template <typename Kernel>
void bm_kernel_kmeans_assign(benchmark::State& state, Kernel kernel,
                             std::size_t n, std::size_t dim, std::size_t k) {
  const auto d = io::generate_uniform(n, dim, 0.0, 1.0, 3);
  std::vector<double> centroids(
      d.values().begin(),
      d.values().begin() + static_cast<std::ptrdiff_t>(k * dim));
  std::vector<std::size_t> assignment(n);
  std::vector<double> sums(k * dim);
  std::vector<double> counts(k);
  for (auto _ : state) {
    std::fill(sums.begin(), sums.end(), 0.0);
    std::fill(counts.begin(), counts.end(), 0.0);
    kernel(d.values().data(), n, dim, centroids.data(), k,
           assignment.data(), sums.data(), counts.data());
    benchmark::DoNotOptimize(assignment.data());
    benchmark::DoNotOptimize(sums.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n * k));
}

void bm_kernel_update_centroids(benchmark::State& state, ker::Isa isa,
                                std::size_t k) {
  const std::size_t dim = 90;
  const auto d = io::generate_uniform(k, dim, 0.0, 1.0, 4);
  std::vector<double> centroids(d.values().begin(), d.values().end());
  const auto s = io::generate_uniform(k, dim, 0.0, 100.0, 5);
  std::vector<double> counts(k, 10.0);
  for (auto _ : state) {
    const double movement = ker::update_centroids(
        isa, centroids.data(), s.values().data(), counts.data(), k, dim);
    benchmark::DoNotOptimize(movement);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(k * dim));
}

void bm_kernel_histogram(benchmark::State& state, ker::Isa isa,
                         std::size_t n) {
  const std::size_t bins = 256;
  const auto d = io::generate_uniform(n, 1, 0.0, 10.0, 6);
  std::vector<std::uint64_t> hist(bins, 0);
  for (auto _ : state) {
    ker::histogram(isa, d.values().data(), n, 0.0, 10.0 / 256.0, bins,
                   hist.data());
    benchmark::DoNotOptimize(hist.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}

void bm_kernel_bucket_indices(benchmark::State& state, ker::Isa isa,
                              std::size_t n) {
  const std::size_t nsplit = 15;  // p = 16 ranks
  const auto d = io::generate_uniform(n, 1, 0.0, 10.0, 7);
  std::vector<double> splitters(nsplit);
  for (std::size_t s = 0; s < nsplit; ++s) {
    splitters[s] = 10.0 * static_cast<double>(s + 1) /
                   static_cast<double>(nsplit + 1);
  }
  std::vector<std::uint32_t> dest(n);
  for (auto _ : state) {
    ker::bucket_indices(isa, d.values().data(), n, splitters.data(), nsplit,
                        dest.data());
    benchmark::DoNotOptimize(dest.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}

/// One kernel's BM_KernelKmeansAssign rows: 8192 90-D points at k = 16
/// and 64, and module 5's own shape, 100 000 2-D points at k = 16 (the
/// kmeans-elastic run).
template <typename Reg, typename Kernel>
void register_kmeans_assign(const Reg& reg, const std::string& tag,
                            Kernel kernel) {
  for (const std::size_t k : {std::size_t{16}, std::size_t{64}}) {
    reg("BM_KernelKmeansAssign" + tag + "/8192/k" + std::to_string(k),
        [kernel, k](benchmark::State& s) {
          bm_kernel_kmeans_assign(s, kernel, 8192, 90, k);
        });
  }
  reg("BM_KernelKmeansAssign" + tag + "/100000/d2/k16",
      [kernel](benchmark::State& s) {
        bm_kernel_kmeans_assign(s, kernel, 100000, 2, 16);
      });
}

void register_kernel_benches() {
  struct IsaCase {
    ker::Isa isa;
    const char* name;
  };
  std::vector<IsaCase> isas = {{ker::Isa::kScalar, "scalar"}};
  if (ker::simd_supported()) isas.push_back({ker::Isa::kSimd, "simd"});
  const auto reg = [](const std::string& name, auto fn) {
    benchmark::RegisterBenchmark(name.c_str(), fn);
  };
  for (const auto& c : isas) {
    const std::string tag = std::string("<") + c.name + ">";
    const ker::Isa isa = c.isa;
    for (const std::size_t n : {std::size_t{1024}, std::size_t{4096}}) {
      reg("BM_KernelDistanceRows" + tag + "/" + std::to_string(n),
          [isa, n](benchmark::State& s) {
            bm_kernel_distance_rows(
                s,
                [isa](const double* all, std::size_t dim, std::size_t np,
                      std::size_t row_begin, std::size_t row_end,
                      std::size_t tile, double* out) {
                  ker::distance_rows(isa, all, dim, np, row_begin, row_end,
                                     tile, out);
                },
                n);
          });
    }
    reg("BM_KernelDistanceRow" + tag + "/4096",
        [isa](benchmark::State& s) {
          bm_kernel_distance_row(s, isa, 4096);
        });
    const auto assign = [isa](const double* points, std::size_t n,
                              std::size_t dim, const double* centroids,
                              std::size_t k, std::size_t* assignment,
                              double* sums, double* counts) {
      ker::assign_points(isa, points, n, dim, centroids, k, assignment, sums,
                         counts);
    };
    register_kmeans_assign(reg, tag, assign);
    reg("BM_KernelUpdateCentroids" + tag + "/k64",
        [isa](benchmark::State& s) {
          bm_kernel_update_centroids(s, isa, 64);
        });
    reg("BM_KernelHistogram" + tag + "/100000",
        [isa](benchmark::State& s) { bm_kernel_histogram(s, isa, 100000); });
    reg("BM_KernelBucketIndices" + tag + "/100000",
        [isa](benchmark::State& s) {
          bm_kernel_bucket_indices(s, isa, 100000);
        });
  }
  // <simd> runs the widest tier; where that is AVX-512, <avx2> rows keep
  // the AVX2 distance block and assignment kernels measured in the same
  // recording.
  if (ker::avx512_supported()) {
    for (const std::size_t n : {std::size_t{1024}, std::size_t{4096}}) {
      reg("BM_KernelDistanceRows<avx2>/" + std::to_string(n),
          [n](benchmark::State& s) {
            bm_kernel_distance_rows(s, ker::detail::distance_rows_avx2, n);
          });
    }
    register_kmeans_assign(reg, "<avx2>", ker::detail::assign_points_avx2);
  }
}

}  // namespace

int main(int argc, char** argv) {
  // Strip --quick before google-benchmark sees argv; in quick mode run
  // only the BM_Kernel* group with a tiny min-time (the CI perf smoke).
  std::vector<char*> args;
  bool quick = false;
  for (int i = 0; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--quick") {
      quick = true;
      continue;
    }
    args.push_back(argv[i]);
  }
  static char kMinTime[] = "--benchmark_min_time=0.02";
  static char kFilter[] = "--benchmark_filter=BM_Kernel";
  if (quick) {
    args.push_back(kMinTime);
    args.push_back(kFilter);
  }
  register_kernel_benches();
  int argn = static_cast<int>(args.size());
  benchmark::Initialize(&argn, args.data());
  if (benchmark::ReportUnrecognizedArguments(argn, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
