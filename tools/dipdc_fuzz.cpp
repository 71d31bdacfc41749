// dipdc-fuzz — property-based conformance fuzzer for minimpi.
//
// Generates random-but-valid multi-rank communication programs, executes
// them on the real threaded runtime, and diffs every observable (receive
// payloads, collective results, CommStats, trace shape) against a
// single-threaded sequential oracle.  A failing seed is automatically
// shrunk with ddmin and persisted as a replayable seed file plus a
// standalone C++ repro.
//
//   dipdc-fuzz --seeds=1000                  # fuzz seeds 1..1000
//   dipdc-fuzz --seeds=500 --seed=7000       # fuzz seeds 7000..7499
//   dipdc-fuzz --smoke                       # quick PR-gate preset
//   dipdc-fuzz --seed=42 --print             # one seed, list the program
//   dipdc-fuzz --replay=repro-42.seed        # re-run a persisted failure
//
// Options: --seeds=N (count), --seed=S (base seed), --ranks=R (max world
// size), --ops=N (target events per program), --max-bytes=B,
// --faults=auto|none|<spec> (default auto: a random plan is drawn per
// seed), --fault-seed=F, --container=0 (no elastic-container events),
// --icollectives=0 (no nonblocking-collective events),
// --shrink=0 (skip minimisation), --out=DIR (where
// repro artifacts go), --keep-going (do not stop at the first failure),
// --print (list each failing program), --replay=FILE, --backend=B (run on
// the threads/tcp transport), --cross-backend (every seed on both
// backends with bit-identical digests), --smoke.
//
// Exit codes: 0 all seeds clean, 1 mismatch found (or replay failed),
// 2 bad command line.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "fuzz/check.hpp"
#include "fuzz/execute.hpp"
#include "fuzz/generate.hpp"
#include "fuzz/program.hpp"
#include "fuzz/seedfile.hpp"
#include "fuzz/shrink.hpp"
#include "minimpi/backend.hpp"
#include "support/args.hpp"

namespace fuzz = dipdc::fuzz;
namespace mpi = dipdc::minimpi;
using dipdc::support::ArgParser;
using dipdc::support::closest_match;

namespace {

void usage() {
  std::printf(
      "usage: dipdc-fuzz [options]\n"
      "options:\n"
      "  --seeds=N         seeds to fuzz (default 100)\n"
      "  --seed=S          base seed; with no --seeds, runs just this one\n"
      "  --ranks=R         maximum world size per program\n"
      "  --ops=N           target events per generated program\n"
      "  --max-bytes=B     maximum message payload size\n"
      "  --faults=MODE     auto (default: random plan per seed), none, or a\n"
      "                    fault spec: drop=P dup=P delay=P[:S] kill=R[@N]\n"
      "                    retries=K timeout=S (comma-separated)\n"
      "  --fault-seed=F    seed of the per-rank fault streams (0 = derive\n"
      "                    from the program seed)\n"
      "  --container=0     leave elastic-container events (create /\n"
      "                    set_weight / repartition) out of generated\n"
      "                    programs (default on)\n"
      "  --icollectives=0  leave nonblocking-collective events (ibcast /\n"
      "                    ireduce / iallreduce / iallgatherv with\n"
      "                    deferred waits) out of generated programs\n"
      "                    (default on)\n"
      "  --shrink=0        skip ddmin minimisation of failing programs\n"
      "  --out=DIR         where repro-<seed>.seed/.cpp artifacts go "
      "(default .)\n"
      "  --keep-going      do not stop at the first failure\n"
      "  --print           list each failing (or replayed) program\n"
      "  --replay=FILE     re-run a persisted .seed failure file\n"
      "  --backend=B       transport backend: threads (default), tcp\n"
      "  --cross-backend   run every seed on both backends and require\n"
      "                    bit-identical digests (overrides --backend)\n"
      "  --smoke           quick PR-gate preset (40 seeds, small programs)\n"
      "  --help            this summary\n"
      "environment:\n"
      "  DIPDC_FUZZ_TRACE=1  print each program before executing it (useful\n"
      "                      when a seed hangs before the checker can "
      "report)\n"
      "exit codes: 0 all seeds clean, 1 mismatch found (or replay failed),\n"
      "            2 bad command line\n");
}

struct Config {
  long seeds = 100;
  std::uint64_t base_seed = 1;
  fuzz::GenConfig gen;
  bool do_shrink = true;
  bool keep_going = false;
  bool print = false;
  std::string out_dir = ".";
  std::string replay_file;
  mpi::BackendKind backend = mpi::BackendKind::kThreads;
  bool cross_backend = false;
};

/// Failure predicate for the shrinker.  Wildcard and fault bugs can be
/// scheduling-dependent, so a candidate is run a few times and counts as
/// failing if any run fails.  In cross-backend mode the candidate fails if
/// any backend leg fails (or the digests diverge) in any repeat.
bool still_fails(const Config& cfg, const fuzz::Program& p, int repeats) {
  for (int i = 0; i < repeats; ++i) {
    if (cfg.cross_backend) {
      if (!fuzz::check_across_backends(p).ok) return true;
      continue;
    }
    const fuzz::ExecutionOutcome out = fuzz::execute(p);
    if (!fuzz::check(p, out).ok) return true;
  }
  return false;
}

int shrink_repeats(const fuzz::Program& p) {
  const bool racy = p.has_any_source_window() || !p.fault_spec.empty();
  return racy ? 3 : 1;
}

/// Shrinks a failing program and writes <out>/repro-<seed>.seed plus
/// <out>/repro-<seed>.cpp.
void handle_failure(const Config& cfg, const fuzz::Program& failing,
                    const std::string& summary) {
  std::printf("FAIL seed=%llu fault_seed=%llu ranks=%d ops=%zu%s%s\n",
              static_cast<unsigned long long>(failing.seed),
              static_cast<unsigned long long>(failing.fault_seed),
              failing.nranks, failing.op_count(),
              failing.fault_spec.empty() ? "" : " faults=",
              failing.fault_spec.c_str());
  std::printf("%s", summary.c_str());

  fuzz::Program minimal = failing;
  bool faults_dropped = false;
  if (cfg.do_shrink) {
    const int repeats = shrink_repeats(failing);
    const fuzz::ShrinkResult shrunk = fuzz::shrink(
        failing, [&](const fuzz::Program& cand) {
          return still_fails(cfg, cand, repeats);
        });
    minimal = shrunk.program;
    faults_dropped = shrunk.faults_dropped;
    std::printf("shrunk: %zu -> %zu ops (%d evaluations)\n",
                failing.op_count(), minimal.op_count(), shrunk.evaluations);
  }
  if (cfg.print) std::printf("%s", fuzz::describe(minimal).c_str());

  std::error_code ec;
  std::filesystem::create_directories(cfg.out_dir, ec);
  const std::string stem =
      cfg.out_dir + "/repro-" + std::to_string(failing.seed);
  fuzz::save_seed(stem + ".seed",
                  fuzz::to_seed_spec(minimal, cfg.gen, faults_dropped));
  {
    const std::string cpp = fuzz::to_cpp(minimal);
    std::FILE* f = std::fopen((stem + ".cpp").c_str(), "w");
    if (f != nullptr) {
      std::fwrite(cpp.data(), 1, cpp.size(), f);
      std::fclose(f);
    }
  }
  std::printf("repro written: %s.seed, %s.cpp\n", stem.c_str(), stem.c_str());
}

int run_replay(const Config& cfg) {
  const fuzz::SeedSpec spec = fuzz::load_seed(cfg.replay_file);
  fuzz::Program p = spec.materialize();
  p.options.backend.kind = cfg.backend;
  std::printf("replay %s: seed=%llu ranks=%d ops=%zu%s%s\n",
              cfg.replay_file.c_str(),
              static_cast<unsigned long long>(p.seed), p.nranks, p.op_count(),
              p.fault_spec.empty() ? "" : " faults=", p.fault_spec.c_str());
  if (cfg.print) std::printf("%s", fuzz::describe(p).c_str());
  if (cfg.cross_backend) {
    const fuzz::BackendEquivalence eq = fuzz::check_across_backends(p);
    if (eq.ok) {
      std::printf("replay PASSED on every backend\n");
      return 0;
    }
    std::printf("replay FAILED (reproduced):\n%s", eq.summary().c_str());
    return 1;
  }
  const fuzz::ExecutionOutcome out = fuzz::execute(p);
  const fuzz::CheckResult result = fuzz::check(p, out);
  if (result.ok) {
    std::printf("replay PASSED (the bug this seed captured appears fixed)\n");
    return 0;
  }
  std::printf("replay FAILED (reproduced):\n%s", result.summary().c_str());
  return 1;
}

int run_fuzz(const Config& cfg) {
  const auto t0 = std::chrono::steady_clock::now();
  long failures = 0;
  long executed = 0;
  for (long i = 0; i < cfg.seeds; ++i) {
    const std::uint64_t seed = cfg.base_seed + static_cast<std::uint64_t>(i);
    fuzz::Program p = fuzz::generate(seed, cfg.gen);
    p.options.backend.kind = cfg.backend;
    ++executed;
    if (cfg.cross_backend) {
      const fuzz::BackendEquivalence eq = fuzz::check_across_backends(p);
      if (!eq.ok) {
        ++failures;
        handle_failure(cfg, p, eq.summary());
        if (!cfg.keep_going) break;
      }
      continue;
    }
    const fuzz::ExecutionOutcome out = fuzz::execute(p);
    const fuzz::CheckResult result = fuzz::check(p, out);
    if (!result.ok) {
      ++failures;
      handle_failure(cfg, p, result.summary());
      if (!cfg.keep_going) break;
    }
  }
  const auto t1 = std::chrono::steady_clock::now();
  const double secs = std::chrono::duration<double>(t1 - t0).count();
  std::printf("%ld seeds, %ld failure%s, %.2f s (%.1f seeds/s)\n", executed,
              failures, failures == 1 ? "" : "s", secs,
              secs > 0 ? static_cast<double>(executed) / secs : 0.0);
  return failures > 0 ? 1 : 0;
}

const std::vector<std::string>& known_options() {
  static const std::vector<std::string> kKnown = {
      "seeds",      "seed",   "ranks",      "ops",  "max-bytes",
      "faults",     "fault-seed", "container", "icollectives", "shrink",
      "out",
      "keep-going", "print",  "replay", "backend", "cross-backend",
      "smoke",      "help",
  };
  return kKnown;
}

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
  if (args.get_bool("help", false)) {
    usage();
    return 0;
  }
  if (!args.command().empty()) {
    std::fprintf(stderr, "error: unexpected argument '%s'\n",
                 args.command().c_str());
    return 2;
  }

  Config cfg;
  cfg.gen.fault_spec = "auto";
  if (args.get_bool("smoke", false)) {
    // PR-gate preset: a few seconds of wall clock, faults included.
    cfg.seeds = 40;
    cfg.gen.max_ranks = 6;
    cfg.gen.target_events = 24;
  }
  cfg.seeds = args.get_int("seeds", cfg.seeds);
  cfg.base_seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  cfg.gen.max_ranks =
      static_cast<int>(args.get_int("ranks", cfg.gen.max_ranks));
  cfg.gen.target_events =
      static_cast<int>(args.get_int("ops", cfg.gen.target_events));
  cfg.gen.max_bytes = static_cast<std::uint32_t>(
      args.get_int("max-bytes", static_cast<long>(cfg.gen.max_bytes)));
  cfg.gen.fault_spec = args.get("faults", cfg.gen.fault_spec);
  if (cfg.gen.fault_spec == "none") cfg.gen.fault_spec.clear();
  cfg.gen.fault_seed =
      static_cast<std::uint64_t>(args.get_int("fault-seed", 0));
  cfg.gen.container_ops = args.get_bool("container", true);
  cfg.gen.icollective_ops = args.get_bool("icollectives", true);
  cfg.do_shrink = args.get_bool("shrink", true);
  cfg.keep_going = args.get_bool("keep-going", false);
  cfg.print = args.get_bool("print", false);
  cfg.out_dir = args.get("out", ".");
  cfg.replay_file = args.get("replay");
  const std::string backend_name = args.get("backend", "threads");
  if (!mpi::parse_backend_kind(backend_name, &cfg.backend)) {
    std::fprintf(stderr,
                 "error: unknown --backend '%s' (threads|tcp)\n",
                 backend_name.c_str());
    return 2;
  }
  cfg.cross_backend = args.get_bool("cross-backend", false);

  try {
    if (!cfg.replay_file.empty()) return run_replay(cfg);
    if (args.has("seed") && !args.has("seeds")) cfg.seeds = 1;
    return run_fuzz(cfg);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
