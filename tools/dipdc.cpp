// dipdc — the command-line driver for every pedagogic module.
//
// This is the "assignment binary" a student would run while working
// through the modules: pick a module, a rank count, a machine shape, and
// the module's knobs, and get the experiment's numbers (optionally with a
// communication timeline).
//
//   dipdc module1 --ranks=8 --activity=pingpong --bytes=65536
//   dipdc module2 --ranks=8 --n=1024 --dim=90 --tile=128 --trace-cache
//   dipdc module3 --ranks=8 --n=100000 --dist=exponential --policy=histogram
//   dipdc module4 --ranks=16 --engine=rtree --nodes=2
//   dipdc module4 --ranks=9 --serve --qps=6000 --mix=hotspot
//   dipdc module5 --ranks=16 --k=32 --strategy=weighted
//   dipdc module6 --ranks=8 --cells=65536 --overlap
//   dipdc module7 --ranks=8 --tokens=1000000 --partition=hash
//   dipdc warmup  --ranks=8
//
// Global options: --ranks, --nodes, --seed, --timeline (print the ASCII
// trace), --transport-stats (print the transport fast-path counters),
// --trace-json=FILE (write a Chrome/Perfetto trace of the run — open it at
// https://ui.perfetto.dev or feed it to dipdc-trace), --trace-wall (add
// wall-clock stamps to the exported trace; off by default so exports stay
// bit-identical), --metrics (print the unified metrics registry),
// --metrics-csv=FILE (write the registry as CSV), --faults=<spec>
// (deterministic fault injection, e.g. "drop=0.1,dup=0.05,kill=3@40,
// retries=4"; grammar in minimpi/faults.hpp), --fault-seed=N (seed of
// the per-rank fault streams) and --backend=threads|shm|tcp (transport
// backend; simulated results are bit-identical on all three).  --help
// prints the usage summary.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <initializer_list>
#include <optional>
#include <string>
#include <vector>

#include "dataio/chunk.hpp"
#include "dataio/dataset.hpp"
#include "kernels/dispatch.hpp"
#include "minimpi/backend.hpp"
#include "minimpi/comm.hpp"
#include "minimpi/faults.hpp"
#include "minimpi/runtime.hpp"
#include "minimpi/stats.hpp"
#include "minimpi/trace.hpp"
#include "modules/comm/module1.hpp"
#include "modules/distmatrix/module2.hpp"
#include "modules/kmeans/module5.hpp"
#include "modules/mapreduce/module7.hpp"
#include "modules/rangequery/module4.hpp"
#include "modules/rangequery/serving.hpp"
#include "modules/sort/module3.hpp"
#include "modules/stencil/module6.hpp"
#include "modules/warmup/warmup.hpp"
#include "obs/perfetto.hpp"
#include "support/args.hpp"
#include "support/format.hpp"
#include "support/rng.hpp"

namespace mpi = dipdc::minimpi;
namespace pm = dipdc::perfmodel;
namespace io = dipdc::dataio;
using namespace dipdc::support;

namespace {

struct Common {
  int ranks = 4;
  int nodes = 1;
  std::uint64_t seed = 1;
  bool timeline = false;
  bool transport_stats = false;
  bool metrics = false;
  std::string metrics_csv;  // --metrics-csv=FILE, empty = don't write
  std::string trace_json;   // --trace-json=FILE, empty = don't write
  bool trace_wall = false;
  std::string faults;  // --faults spec, empty = no injection
  std::uint64_t fault_seed = 1;
  /// --backend=threads|shm|tcp: how ranks exchange bytes underneath the
  /// simulator (results are bit-identical either way; see DESIGN.md).
  mpi::BackendKind backend = mpi::BackendKind::kThreads;
  /// --kernel=auto|scalar|simd: compute-kernel ISA for modules 2/3/5
  /// (results are bit-identical either way; this is a perf knob).
  dipdc::kernels::Policy kernel = dipdc::kernels::Policy::kAuto;

  /// Anything that needs the event recorder armed?
  [[nodiscard]] bool wants_trace() const {
    return timeline || metrics || !metrics_csv.empty() ||
           !trace_json.empty();
  }
};

mpi::RuntimeOptions options_for(const Common& c) {
  mpi::RuntimeOptions opts;
  opts.backend.kind = c.backend;
  opts.machine = pm::MachineConfig::monsoon_like(c.nodes);
  opts.record_trace = c.wants_trace();
  opts.trace_wall_time = c.trace_wall;
  if (!c.faults.empty()) {
    mpi::parse_fault_spec(c.faults, opts.faults, opts.reliable);
    opts.faults.seed = c.fault_seed;
  }
  return opts;
}

/// The out-of-core knobs shared by modules 2 and 3: --stream switches a
/// module to its chunk-file pipeline, --chunk-rows sizes the chunks, and
/// --no-overlap degrades the rotation to issue-and-wait (the baseline the
/// overlap speedup is measured against).
struct StreamArgs {
  bool stream = false;
  std::size_t chunk_rows = 256;
  bool overlap = true;
};

StreamArgs stream_args(const ArgParser& args) {
  StreamArgs s;
  s.stream = args.get_bool("stream", false);
  s.chunk_rows = static_cast<std::size_t>(args.get_int("chunk-rows", 256));
  s.overlap = !args.get_bool("no-overlap", false);
  return s;
}

/// Spills `d` to a chunk file in the temp dir; removed on destruction.
struct SpilledDataset {
  SpilledDataset(const io::Dataset& d, std::size_t chunk_rows,
                 std::uint64_t seed)
      : path((std::filesystem::temp_directory_path() /
              ("dipdc_stream_" + std::to_string(seed) + "_" +
               std::to_string(d.size()) + "x" + std::to_string(d.dim()) +
               ".chunks"))
                 .string()) {
    io::dataset_to_chunks(d, path, chunk_rows);
  }
  ~SpilledDataset() { std::remove(path.c_str()); }
  std::string path;
};

/// Writes `text` to `path` ("-" = stdout); returns false on I/O failure.
bool write_file(const std::string& path, const std::string& text) {
  if (path == "-") {
    std::fwrite(text.data(), 1, text.size(), stdout);
    return true;
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    return false;
  }
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  return true;
}

void maybe_reports(const Common& c, const mpi::RunResult& result) {
  if (c.transport_stats) {
    std::printf("\n%s",
                mpi::transport_report(result.total_stats()).c_str());
  }
  if (c.metrics || !c.metrics_csv.empty()) {
    dipdc::obs::Registry reg = mpi::build_metrics(result);
    // Which compute-kernel ISA the run dispatched to (1 = SIMD, 0 =
    // scalar), so recorded metrics identify the code path they measured.
    reg.set_gauge("kernel.dispatch",
                  dipdc::kernels::resolve(c.kernel) ==
                          dipdc::kernels::Isa::kSimd
                      ? 1.0
                      : 0.0);
    if (c.metrics) std::printf("\n%s", reg.report().c_str());
    if (!c.metrics_csv.empty()) write_file(c.metrics_csv, reg.to_csv());
  }
  if (!c.trace_json.empty()) {
    write_file(c.trace_json,
               dipdc::obs::to_perfetto_json(mpi::make_trace(result)));
  }
  if (!c.timeline) return;
  std::printf("\n%s", mpi::render_timeline(result.trace, c.ranks,
                                           result.max_sim_time())
                          .c_str());
}

/// An option value, or combination, the chosen mode would silently ignore
/// (or die on inside the ranks): rejected up front, before any rank starts.
int reject(const std::string& why) {
  std::fprintf(stderr, "error: %s\n", why.c_str());
  return 2;
}

/// Reads the choice option --`key` into `value`; the first accepted value
/// is the default.  Any other value is rejected (returns reject()'s exit
/// code) instead of silently falling back to the default; 0 otherwise.
int choose(const ArgParser& args, const char* key,
           std::initializer_list<const char*> accepted, std::string& value) {
  value = args.get(key, *accepted.begin());
  std::string names;
  for (const char* a : accepted) {
    if (value == a) return 0;
    names += names.empty() ? a : std::string("|") + a;
  }
  return reject("unknown --" + std::string(key) + " '" + value + "' (" +
                names + ")");
}

int run_module1(const ArgParser& args, const Common& c) {
  namespace m1 = dipdc::modules::comm1;
  std::string activity;
  if (const int rc =
          choose(args, "activity", {"pingpong", "ring", "random"}, activity)) {
    return rc;
  }
  const auto iterations = static_cast<int>(args.get_int("iterations", 100));
  const auto bytes_n =
      static_cast<std::size_t>(args.get_int("bytes", 1024));
  const auto messages = static_cast<int>(args.get_int("messages", 32));
  const auto result = mpi::run(
      c.ranks,
      [&](mpi::Comm& comm) {
        if (activity == "pingpong") {
          const auto r = m1::ping_pong(comm, iterations, bytes_n);
          if (comm.rank() == 0) {
            std::printf("ping-pong: %d iterations of %s, mean one-way %s\n",
                        r.iterations, bytes(r.message_bytes).c_str(),
                        seconds(r.mean_one_way).c_str());
          }
        } else if (activity == "ring") {
          const auto r = m1::ring_nonblocking(comm, c.ranks);
          if (comm.rank() == 0) {
            std::printf("ring: token after %d rounds = %lld\n", r.rounds,
                        static_cast<long long>(r.token));
          }
        } else {
          const auto r = m1::random_comm_any_source(comm, messages, c.seed);
          if (comm.rank() == 0) {
            std::printf("random comm: %llu sent / %llu received per rank, "
                        "payloads %s\n",
                        static_cast<unsigned long long>(r.messages_sent),
                        static_cast<unsigned long long>(r.messages_received),
                        r.payloads_consistent ? "consistent" : "CORRUPT");
          }
        }
      },
      options_for(c));
  maybe_reports(c, result);
  return 0;
}

int run_module2(const ArgParser& args, const Common& c) {
  namespace m2 = dipdc::modules::distmatrix;
  const auto n = static_cast<std::size_t>(args.get_int("n", 1024));
  const auto dim = static_cast<std::size_t>(args.get_int("dim", 90));
  m2::Config cfg;
  cfg.tile = static_cast<std::size_t>(args.get_int("tile", 0));
  cfg.trace_cache = args.get_bool("trace-cache", false);
  cfg.kernel = c.kernel;
  const StreamArgs s = stream_args(args);
  if (s.stream && args.has("tile")) {
    return reject("--stream ignores --tile (the chunks are the tiles; size "
                  "them with --chunk-rows)");
  }
  if (s.stream && cfg.trace_cache) {
    return reject("--stream cannot --trace-cache (the cache simulator "
                  "traces the in-core kernels only)");
  }
  const auto d = io::generate_uniform(n, dim, 0.0, 1.0, c.seed);
  std::optional<SpilledDataset> spill;
  if (s.stream) spill.emplace(d, s.chunk_rows, c.seed);
  m2::Result r;
  const auto result = mpi::run(
      c.ranks,
      [&](mpi::Comm& comm) {
        const auto res =
            spill ? m2::run_streamed(comm, spill->path, cfg, {s.overlap})
                  : m2::run_distributed(
                        comm, comm.rank() == 0 ? d : io::Dataset{}, cfg);
        if (comm.rank() == 0) r = res;
      },
      options_for(c));
  const std::string kernel =
      s.stream ? "streamed C=" + std::to_string(s.chunk_rows) +
                     (s.overlap ? "" : " no-overlap")
      : cfg.tile == 0 ? "row-wise"
                      : "tiled T=" + std::to_string(cfg.tile);
  std::printf("distance matrix %zux%zu (%zu-D), %s: sim time %s, "
              "checksum %.3e\n",
              n, n, dim, kernel.c_str(), seconds(r.sim_time).c_str(),
              r.checksum);
  if (cfg.trace_cache) {
    std::printf("L1 miss rate %s, DRAM traffic/rank %s\n",
                percent(r.miss_rate).c_str(),
                bytes(static_cast<std::uint64_t>(r.dram_bytes)).c_str());
  }
  maybe_reports(c, result);
  return 0;
}

int run_module3(const ArgParser& args, const Common& c) {
  namespace m3 = dipdc::modules::distsort;
  const auto n = static_cast<std::size_t>(args.get_int("n", 100000));
  std::string dist;
  std::string policy;
  if (const int rc = choose(args, "dist", {"uniform", "exponential"}, dist)) {
    return rc;
  }
  if (const int rc = choose(args, "policy", {"width", "histogram"}, policy)) {
    return rc;
  }
  const bool exponential = dist == "exponential";
  m3::Config cfg;
  cfg.policy = policy == "histogram" ? m3::SplitterPolicy::kHistogram
                                     : m3::SplitterPolicy::kEqualWidth;
  cfg.lo = 0.0;
  cfg.hi = 10.0;
  cfg.kernel = c.kernel;
  const bool elastic_on = args.get_bool("repartition", false);
  m3::ElasticConfig ecfg;
  ecfg.imbalance_threshold = args.get_double("imbalance-threshold", 1.10);
  const StreamArgs s = stream_args(args);
  if (s.stream && cfg.policy != m3::SplitterPolicy::kEqualWidth) {
    return reject("--stream needs --policy=width (equal-width splitters "
                  "are the only data-independent policy)");
  }
  if (s.stream && elastic_on) {
    return reject("--stream cannot --repartition (the elastic container "
                  "holds in-core keys only)");
  }
  if (s.stream && args.has("imbalance-threshold")) {
    return reject("--stream ignores --imbalance-threshold (it only applies "
                  "with --repartition)");
  }
  // Rank `rank`'s keys.  Streamed, every rank's keys are spilled rank-major
  // into one chunk file, so both modes bucket the identical multiset.
  const auto keys_of = [&](int rank) {
    auto rng = make_stream(c.seed, static_cast<std::uint64_t>(rank));
    std::vector<double> keys(n);
    for (auto& v : keys) {
      v = exponential ? std::min(rng.exponential(1.0), 9.999)
                      : rng.uniform(0.0, 10.0);
    }
    return keys;
  };
  std::optional<SpilledDataset> spill;
  if (s.stream) {
    std::vector<double> all;
    all.reserve(n * static_cast<std::size_t>(c.ranks));
    for (int rank = 0; rank < c.ranks; ++rank) {
      const std::vector<double> keys = keys_of(rank);
      all.insert(all.end(), keys.begin(), keys.end());
    }
    spill.emplace(io::Dataset(1, std::move(all)), s.chunk_rows, c.seed);
  }
  m3::Result r;
  const auto result = mpi::run(
      c.ranks,
      [&](mpi::Comm& comm) {
        std::vector<double> keys;
        m3::Result res;
        if (spill) {
          res = m3::streamed_bucket_sort(comm, spill->path, cfg, keys,
                                         {s.overlap});
        } else if (elastic_on) {
          res = m3::elastic_bucket_sort(comm, keys_of(comm.rank()), cfg,
                                        ecfg);
        } else {
          keys = keys_of(comm.rank());
          res = m3::distributed_bucket_sort(comm, keys, cfg);
        }
        if (comm.rank() == 0) r = res;
      },
      options_for(c));
  std::printf("bucket sort, %zu %s keys/rank%s, %s splitters: sorted=%s "
              "imbalance=%.2f sim time %s\n",
              n, exponential ? "exponential" : "uniform",
              s.stream ? " (streamed)" : "",
              cfg.policy == m3::SplitterPolicy::kHistogram ? "histogram"
                                                           : "equal-width",
              r.globally_sorted ? "yes" : "NO", r.imbalance,
              seconds(r.sim_time).c_str());
  maybe_reports(c, result);
  return 0;
}

/// Module 4, serving mode (--serve): the sharded range-query service
/// under sustained open-loop load (modules/rangequery/serving.hpp).
int run_module4_serve(const ArgParser& args, const Common& c) {
  namespace m4 = dipdc::modules::rangequery;
  std::string mix;
  if (const int rc =
          choose(args, "mix", {"uniform", "hotspot", "zipf"}, mix)) {
    return rc;
  }
  m4::ServeConfig cfg;
  cfg.n_points = static_cast<std::size_t>(args.get_int("n", 50000));
  cfg.side = args.get_double("side", 4.0);
  cfg.qps = args.get_double("qps", 4000.0);
  cfg.duration = args.get_double("duration", 1.0);
  cfg.mix = m4::parse_mix(mix);
  cfg.hot_fraction = args.get_double("hot-fraction", 0.9);
  cfg.zipf_s = args.get_double("zipf", 1.1);
  cfg.batch = static_cast<std::size_t>(args.get_int("batch", 16));
  cfg.queue_cap = static_cast<std::size_t>(args.get_int("queue-cap", 256));
  cfg.pipeline = static_cast<std::size_t>(args.get_int("pipeline", 2));
  cfg.grid = static_cast<std::size_t>(args.get_int("grid", 0));
  cfg.seed = c.seed;
  cfg.kernel = c.kernel;
  m4::ServeResult r;
  const auto result = mpi::run(
      c.ranks,
      [&](mpi::Comm& comm) {
        const auto res = m4::serve(comm, cfg);
        if (comm.rank() == 0) r = res;
      },
      options_for(c));
  std::printf(
      "serving (%s mix, %d shards, %dx%d grid): offered %llu q at %.0f "
      "q/s, admitted %llu, rejected %llu, completed %llu in %llu "
      "batches\n",
      m4::mix_name(cfg.mix), r.shards, r.grid_side, r.grid_side,
      static_cast<unsigned long long>(r.offered), cfg.qps,
      static_cast<unsigned long long>(r.admitted),
      static_cast<unsigned long long>(r.rejected),
      static_cast<unsigned long long>(r.completed),
      static_cast<unsigned long long>(r.batches));
  std::printf(
      "  achieved %.0f q/s, latency p50 %s p99 %s max %s, %llu matches, "
      "%s entries checked, shard imbalance %.2f\n",
      r.achieved_qps, seconds(r.p50_latency).c_str(),
      seconds(r.p99_latency).c_str(), seconds(r.max_latency).c_str(),
      static_cast<unsigned long long>(r.total_matches),
      count(r.entries_checked).c_str(), r.shard_imbalance);
  maybe_reports(c, result);
  return 0;
}

int run_module4(const ArgParser& args, const Common& c) {
  namespace m4 = dipdc::modules::rangequery;
  namespace sp = dipdc::spatial;
  if (args.get_bool("serve", false)) return run_module4_serve(args, c);
  const auto n = static_cast<std::size_t>(args.get_int("n", 50000));
  const auto nq = static_cast<std::size_t>(args.get_int("queries", 512));
  std::string engine_name;
  if (const int rc = choose(args, "engine",
                            {"brute", "rtree", "quadtree", "kdtree"},
                            engine_name)) {
    return rc;
  }
  m4::Config cfg;
  cfg.engine = engine_name == "rtree"      ? m4::Engine::kRTree
               : engine_name == "quadtree" ? m4::Engine::kQuadTree
               : engine_name == "kdtree"   ? m4::Engine::kKdTree
                                           : m4::Engine::kBruteForce;
  Xoshiro256 rng(c.seed);
  std::vector<sp::Point2> points(n);
  for (auto& p : points) {
    p.x = rng.uniform(0.0, 100.0);
    p.y = rng.uniform(0.0, 100.0);
  }
  const auto queries = m4::make_query_workload(nq, 100.0, 8.0, c.seed + 1);
  m4::Result r;
  const auto result = mpi::run(
      c.ranks,
      [&](mpi::Comm& comm) {
        const auto res = m4::run_distributed(comm, points, queries, cfg);
        if (comm.rank() == 0) r = res;
      },
      options_for(c));
  std::printf("range queries (%s): %llu matches, %s entries checked, "
              "sim time %s\n",
              engine_name.c_str(),
              static_cast<unsigned long long>(r.total_matches),
              count(r.entries_checked).c_str(), seconds(r.sim_time).c_str());
  maybe_reports(c, result);
  return 0;
}

int run_module5(const ArgParser& args, const Common& c) {
  namespace m5 = dipdc::modules::kmeans;
  std::string strategy;
  if (const int rc =
          choose(args, "strategy", {"weighted", "explicit"}, strategy)) {
    return rc;
  }
  const auto n = static_cast<std::size_t>(args.get_int("n", 50000));
  const auto k = static_cast<std::size_t>(args.get_int("k", 8));
  m5::Config cfg;
  cfg.k = k;
  cfg.strategy = strategy == "explicit" ? m5::Strategy::kExplicitAssignments
                                        : m5::Strategy::kWeightedMeans;
  cfg.kernel = c.kernel;
  const bool elastic_on = args.get_bool("repartition", false);
  const double threshold = args.get_double("imbalance-threshold", 1.25);
  const auto data = io::generate_clusters(n, 2, k, 1.0, 0.0, 100.0, c.seed);
  m5::Result r;
  const auto result = mpi::run(
      c.ranks,
      [&](mpi::Comm& comm) {
        m5::Result res;
        if (elastic_on) {
          m5::ElasticConfig ecfg;
          ecfg.imbalance_threshold = threshold;
          res = m5::elastic(comm, comm.rank() == 0 ? data.data : io::Dataset{},
                            cfg, ecfg);
        } else {
          res = m5::distributed(
              comm, comm.rank() == 0 ? data.data : io::Dataset{}, cfg);
        }
        if (comm.rank() == 0) r = res;
      },
      options_for(c));
  std::printf("k-means k=%zu (%s): %d iterations, inertia %.1f, compute %s "
              "/ comm %s, loop volume %s\n",
              k,
              cfg.strategy == m5::Strategy::kWeightedMeans ? "weighted means"
                                                           : "explicit",
              r.iterations, r.inertia, seconds(r.compute_time).c_str(),
              seconds(r.comm_time).c_str(), bytes(r.comm_bytes).c_str());
  maybe_reports(c, result);
  return 0;
}

int run_module6(const ArgParser& args, const Common& c) {
  namespace m6 = dipdc::modules::stencil;
  m6::Config cfg;
  cfg.global_cells = static_cast<std::size_t>(args.get_int("cells", 65536));
  cfg.iterations = static_cast<int>(args.get_int("iterations", 64));
  cfg.halo_width = static_cast<int>(args.get_int("halo", 1));
  cfg.exchange = args.get_bool("overlap", false) ? m6::Exchange::kOverlapped
                                                 : m6::Exchange::kBlocking;
  m6::Result r;
  const auto result = mpi::run(
      c.ranks,
      [&](mpi::Comm& comm) {
        const auto res = m6::run_distributed(comm, cfg);
        if (comm.rank() == 0) r = res;
      },
      options_for(c));
  std::printf("stencil %zu cells x %d sweeps, halo %d, %s: checksum %.6f, "
              "sim time %s (comm %s)\n",
              cfg.global_cells, cfg.iterations, cfg.halo_width,
              cfg.exchange == m6::Exchange::kOverlapped ? "overlapped"
                                                        : "blocking",
              r.checksum, seconds(r.sim_time).c_str(),
              seconds(r.comm_time).c_str());
  maybe_reports(c, result);
  return 0;
}

int run_module7(const ArgParser& args, const Common& c) {
  namespace m7 = dipdc::modules::mapreduce;
  std::string partition;
  if (const int rc = choose(args, "partition", {"hash", "range"}, partition)) {
    return rc;
  }
  const auto n = static_cast<std::size_t>(args.get_int("tokens", 1000000));
  const auto vocab =
      static_cast<std::uint64_t>(args.get_int("vocab", 1 << 15));
  m7::Config cfg;
  cfg.vocabulary = vocab;
  cfg.map_side_combine = !args.get_bool("no-combine", false);
  cfg.partitioning = partition == "range" ? m7::Partitioning::kRange
                                          : m7::Partitioning::kHash;
  const auto tokens =
      io::generate_zipf_tokens(n, vocab, args.get_double("zipf", 1.1),
                               c.seed);
  m7::Result r;
  const auto result = mpi::run(
      c.ranks,
      [&](mpi::Comm& comm) {
        const auto parts = io::block_partition(
            tokens.size(), static_cast<std::size_t>(comm.size()));
        const auto [b, e] = parts[static_cast<std::size_t>(comm.rank())];
        const auto res = m7::word_count(
            comm, {tokens.data() + b, e - b}, cfg);
        if (comm.rank() == 0) r = res;
      },
      options_for(c));
  std::printf("word count, %zu tokens: total %llu, shuffle %llu tuples "
              "(rank 0), reducer imbalance %.2f, sim time %s\n",
              n, static_cast<unsigned long long>(r.global_total),
              static_cast<unsigned long long>(r.shuffle_tuples_sent),
              r.reducer_imbalance, seconds(r.sim_time).c_str());
  maybe_reports(c, result);
  return 0;
}

int run_warmup(const ArgParser& /*args*/, const Common& c) {
  namespace wu = dipdc::modules::warmup;
  const auto result = mpi::run(
      c.ranks,
      [](mpi::Comm& comm) {
        const auto reports = wu::run_all(comm);
        if (comm.rank() == 0) {
          for (const auto& r : reports) {
            std::printf("  [%s] %-16s %s\n", r.passed ? "PASS" : "FAIL",
                        r.name.c_str(), r.detail.c_str());
          }
        }
      },
      options_for(c));
  maybe_reports(c, result);
  return 0;
}

void usage() {
  std::printf(
      "usage: dipdc <module1|module2|module3|module4|module5|module6|"
      "module7|warmup> [options]\n"
      "global options:\n"
      "  --ranks=N            ranks to simulate (default 4)\n"
      "  --nodes=N            nodes in the machine model (default 1)\n"
      "  --seed=N             dataset/workload seed (default 1)\n"
      "  --timeline           print the ASCII communication timeline\n"
      "  --transport-stats    print the transport fast-path counters\n"
      "  --metrics            print the unified metrics registry\n"
      "  --metrics-csv=FILE   write the metrics registry as CSV "
      "('-' = stdout)\n"
      "  --trace-json=FILE    write a Chrome/Perfetto trace "
      "('-' = stdout);\n"
      "                       open at https://ui.perfetto.dev or analyze "
      "with dipdc-trace\n"
      "  --trace-wall         add wall-clock stamps to the exported trace\n"
      "                       (off by default: zeroed stamps keep exports "
      "bit-identical)\n"
      "  --faults=SPEC        deterministic fault injection\n"
      "  --fault-seed=N       seed of the per-rank fault streams "
      "(default 1)\n"
      "  --backend=B          transport backend: threads|shm|tcp "
      "(default threads;\n"
      "                       shm forks a router process, tcp uses loopback "
      "sockets;\n"
      "                       simulated results are bit-identical on all "
      "three)\n"
      "  --repartition        modules 3/5: run on the elastic container "
      "(weight-driven\n"
      "                       rebalancing; with --faults=kill survivors "
      "shrink and\n"
      "                       continue on the smaller communicator)\n"
      "  --imbalance-threshold=X  repartition when max/mean weighted load "
      "exceeds X\n"
      "                       (module3 default 1.10, module5 default 1.25)\n"
      "  --kernel=P           compute-kernel ISA for modules 2/3/5: "
      "auto|scalar|simd\n"
      "                       (default auto; DIPDC_KERNEL env works too; "
      "results are\n"
      "                       bit-identical either way)\n"
      "  --help               this summary\n"
      "fault spec: drop=P dup=P delay=P[:S] kill=R[@N] retries=K timeout=S\n"
      "            (comma-separated, e.g. --faults=drop=0.1,retries=4)\n"
      "per-module options (defaults in parentheses):\n"
      "  module1: --activity=pingpong|ring|random --iterations=N(100)\n"
      "           --bytes=N(1024) --messages=N(32)\n"
      "  module2: --n=N(1024) --dim=D(90) --tile=T(0) --trace-cache\n"
      "  module3: --n=N(100000) --dist=uniform|exponential "
      "--policy=width|histogram\n"
      "  modules 2/3 out-of-core (dataset spilled to a chunk file; only "
      "rank 0\n"
      "           touches the disk, chunks stream through nonblocking "
      "broadcasts):\n"
      "           --stream --chunk-rows=N(256) --no-overlap (issue-and-wait "
      "baseline)\n"
      "  module4: --n=N(50000) --queries=N(512) "
      "--engine=brute|rtree|quadtree|kdtree\n"
      "           --serve: sharded serving mode under sustained load; "
      "rank 0 drives,\n"
      "           the rest hold grid shards: --qps=Q(4000) "
      "--duration=S(1.0)\n"
      "           --mix=uniform|hotspot|zipf --hot-fraction=P(0.9) "
      "--zipf=S(1.1)\n"
      "           --batch=N(16) --queue-cap=N(256) --pipeline=N(2) "
      "--grid=G(auto)\n"
      "           --side=W(4.0)\n"
      "  module5: --n=N(50000) --k=K(8) --strategy=weighted|explicit\n"
      "  module6: --cells=N(65536) --iterations=N(64) --halo=W(1) "
      "--overlap\n"
      "  module7: --tokens=N(1000000) --vocab=N(32768) --zipf=S(1.1)\n"
      "           --partition=hash|range --no-combine\n"
      "  warmup:  (no extra options)\n");
}

/// Every option any module (or the driver itself) understands.  Unknown
/// options abort the run up front: a misspelled flag silently falling back
/// to its default is the worst kind of experiment error.
const std::vector<std::string>& known_options() {
  static const std::vector<std::string> kKnown = {
      // global
      "ranks", "nodes", "seed", "timeline", "transport-stats", "metrics",
      "metrics-csv", "trace-json", "trace-wall", "faults", "fault-seed",
      "backend", "kernel", "repartition", "imbalance-threshold", "help",
      // module1
      "activity", "iterations", "bytes", "messages",
      // module2
      "n", "dim", "tile", "trace-cache",
      // modules 2/3 out-of-core
      "stream", "chunk-rows", "no-overlap",
      // module3
      "dist", "policy",
      // module4
      "queries", "engine",
      // module4 --serve
      "serve", "qps", "duration", "mix", "hot-fraction", "batch",
      "queue-cap", "pipeline", "grid", "side",
      // module5
      "k", "strategy",
      // module6
      "cells", "halo", "overlap",
      // module7
      "tokens", "vocab", "no-combine", "partition", "zipf",
  };
  return kKnown;
}

/// Returns false (after printing to stderr) when an unrecognized option is
/// present.
bool validate_options(const ArgParser& args) {
  bool ok = true;
  for (const std::string& key : args.keys()) {
    const auto& known = known_options();
    if (std::find(known.begin(), known.end(), key) != known.end()) continue;
    const std::string hint = closest_match(key, known);
    if (hint.empty()) {
      std::fprintf(stderr, "error: unrecognized option --%s\n", key.c_str());
    } else {
      std::fprintf(stderr,
                   "error: unrecognized option --%s (did you mean --%s?)\n",
                   key.c_str(), hint.c_str());
    }
    ok = false;
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  const ArgParser args(argc, argv);
  if (!validate_options(args)) return 2;
  if (args.get_bool("help", false) || args.command() == "help") {
    usage();
    return 0;
  }
  Common c;
  c.ranks = static_cast<int>(args.get_int("ranks", 4));
  c.nodes = static_cast<int>(args.get_int("nodes", 1));
  c.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  c.timeline = args.get_bool("timeline", false);
  c.transport_stats = args.get_bool("transport-stats", false);
  c.metrics = args.get_bool("metrics", false);
  c.metrics_csv = args.get("metrics-csv");
  c.trace_json = args.get("trace-json");
  c.trace_wall = args.get_bool("trace-wall", false);
  c.faults = args.get("faults");
  c.fault_seed = static_cast<std::uint64_t>(args.get_int("fault-seed", 1));
  const std::string backend_name = args.get("backend", "threads");
  if (!mpi::parse_backend_kind(backend_name, &c.backend)) {
    std::fprintf(stderr,
                 "error: unknown --backend '%s' (threads|shm|tcp)\n",
                 backend_name.c_str());
    return 2;
  }
  try {
    c.kernel = dipdc::kernels::parse_policy(args.get("kernel", "auto"));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }

  try {
    const std::string& cmd = args.command();
    int rc = 0;
    if (cmd == "module1") rc = run_module1(args, c);
    else if (cmd == "module2") rc = run_module2(args, c);
    else if (cmd == "module3") rc = run_module3(args, c);
    else if (cmd == "module4") rc = run_module4(args, c);
    else if (cmd == "module5") rc = run_module5(args, c);
    else if (cmd == "module6") rc = run_module6(args, c);
    else if (cmd == "module7") rc = run_module7(args, c);
    else if (cmd == "warmup") rc = run_warmup(args, c);
    else {
      usage();
      return cmd.empty() ? 0 : 1;
    }
    for (const auto& key : args.unused()) {
      std::printf("warning: unused option --%s\n", key.c_str());
    }
    return rc;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
