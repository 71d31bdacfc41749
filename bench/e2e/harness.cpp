// dipdc_bench — the end-to-end benchmark: five fixed module paths timed on
// the host clock, each output checked against a serial oracle, plus a
// separate traced pass that splits every workload across the layers.
//
//   dipdc_bench [--seed=N] [--out=FILE] [--traced] [--quick] [--self-test]
//               [--workload=NAME[,NAME...]] [--seconds=S] [--workdir=DIR]
//
// A set runs every workload as 10 child processes, one after another and
// round-robin across the workloads (w1..w5, w1..w5, ...), while this parent
// only waits: a slow period of the shared machine is spread over all
// workloads, per-process effects (thread placement) average out, and each
// child's peak RSS is its own.  Each child generates its
// inputs, runs one untimed warm-up iteration, then timed iterations in
// whole passes over the workload's inputs, at least 10 of them, starting no
// pass that would end past its share of --seconds (per workload).  The
// oracles are computed
// here, once per set, outside every timed interval.
//
//   --traced     1 child per workload; every iteration runs the plain run,
//                a run with record_trace + trace_wall_time, and the A/B
//                counterpart where the workload has one, all on the same
//                input; then single-thread layer replays.  Prints the
//                per-layer metrics.
//   --quick      1 child, 3 iterations per workload, or one whole pass over
//                its inputs (same problem sizes); one layer replay.
//   --self-test  corrupt one output per workload on the bench side after a
//                run; every workload must then report error_rate > 0.
//
// Output: one line per (workload, metric): name, value, unit, and for a
// ratio its base.  Exits 1 when any check failed.
#include <malloc.h>
#include <sys/resource.h>
#include <sys/utsname.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "kernels/dispatch.hpp"
#include "minimpi/stats.hpp"
#include "minimpi/trace.hpp"
#include "obs/critical_path.hpp"
#include "support/args.hpp"
#include "support/stopwatch.hpp"
#include "workloads.hpp"

namespace e2e = dipdc::bench_e2e;
namespace mpi = dipdc::minimpi;
namespace obs = dipdc::obs;

namespace {

using e2e::g17;

// Ten set-ups per set: setup_s is one sample per child, and on a shared
// 4-vCPU host the median of five moved 24% (IQR / median) over ten runs.
constexpr int kChildren = 10;
// 10 children x 10 = 100 samples, so wall_p90_s has at least 10 beyond it.
constexpr int kMinIterations = 10;
constexpr int kTracedMinIterations = 10;
constexpr int kQuickIterations = 3;
constexpr int kReplays = 3;  // 1 with --quick

/// The A/B layer costs of the traced pass: a workload listed here runs its
/// Variant::kAlternative counterpart, and the difference of the two wall
/// medians is the named layer's cost on it.
const std::map<std::string, std::string>& layer_costs() {
  static const std::map<std::string, std::string> kCosts = {
      {"sort-tcp", "minimpi.backend.overhead_s"},
      {"sort-stream", "dataio.stream_overhead_s"},
      {"kmeans-elastic", "container.overhead_s"}};
  return kCosts;
}

/// User + system CPU of the whole process, every thread included.
double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string part;
  while (std::getline(ss, part, sep)) {
    if (!part.empty()) out.push_back(part);
  }
  return out;
}

/// The first line of `path` starting with `key` (all of it after "key: "),
/// or its first line when `key` is empty.
std::string read_first(const std::string& path, const std::string& key) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (key.empty()) return line;
    if (line.rfind(key, 0) == 0) {
      const std::size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "";
}

// ---- child ---------------------------------------------------------------

/// Child-to-parent protocol: one "name value" line per measurement, and
/// "note text" lines the parent forwards to stderr.
void emit(const std::string& name, double value) {
  std::printf("%s %.17g\n", name.c_str(), value);
}

void emit_all(const e2e::Samples& samples) {
  for (const auto& [name, value] : samples) emit(name, value);
}

e2e::Outcome run_checked(e2e::Workload& w, e2e::Variant variant,
                         std::size_t input, const e2e::Oracle& oracle,
                         bool corrupt) {
  e2e::Outcome out;
  try {
    out = w.iterate(variant, input, oracle, corrupt);
  } catch (const std::exception& e) {
    out = {};
    out.why = std::string("threw: ") + e.what();
    out.attempted = w.operations();
    out.failed = out.attempted;
  }
  emit("attempted", static_cast<double>(out.attempted));
  emit("failed", static_cast<double>(out.failed));
  if (!out.why.empty()) std::printf("note %s\n", out.why.c_str());
  return out;
}

/// The per-layer values one plain run yields: harness spans around the run
/// and each rank's module call, the runtime's counters, the sim clock.
void emit_layers(const e2e::Outcome& o) {
  const e2e::RunSpans& s = o.spans;
  emit("minimpi.run.startup_s", s.startup_s);
  emit("minimpi.run.teardown_s", s.teardown_s);
  double cpu_sum = 0.0;
  double cpu_max = 0.0;
  double blocked = 0.0;
  for (std::size_t r = 0; r < s.rank_cpu_s.size(); ++r) {
    cpu_sum += s.rank_cpu_s[r];
    cpu_max = std::max(cpu_max, s.rank_cpu_s[r]);
    blocked += s.rank_wall_s[r] - s.rank_cpu_s[r];
  }
  const double cpu_mean = cpu_sum / static_cast<double>(s.rank_cpu_s.size());
  emit("modules.rank_wall_s",
       *std::max_element(s.rank_wall_s.begin(), s.rank_wall_s.end()));
  emit("modules.rank_cpu_s", cpu_sum);
  emit("modules.rank_blocked_s", blocked);
  emit("modules.rank_imbalance", cpu_mean > 0.0 ? cpu_max / cpu_mean : 1.0);

  const mpi::CommStats t = o.run.total_stats();
  emit("minimpi.messages", static_cast<double>(t.transport_messages_sent));
  emit("minimpi.bytes", static_cast<double>(t.transport_bytes_sent));
  emit("minimpi.pool.hits", static_cast<double>(t.pool_hits));
  emit("minimpi.pool.misses", static_cast<double>(t.pool_misses));
  emit("minimpi.inline_messages", static_cast<double>(t.inline_messages));
  emit("minimpi.rendezvous_stalls", static_cast<double>(t.rendezvous_stalls));
  emit("minimpi.zero_copy_bytes", static_cast<double>(t.zero_copy_bytes));
  emit("minimpi.copied_bytes", static_cast<double>(t.copied_bytes));
  emit("minimpi.backend.frames", static_cast<double>(t.backend_frames));
  emit("minimpi.backend.wire_bytes", static_cast<double>(t.backend_wire_bytes));
  for (std::size_t a = 0; a < mpi::kCollectiveAlgoCount; ++a) {
    if (t.algo_uses[a] == 0) continue;
    emit("minimpi.algo." + std::string(mpi::collective_algo_name(
                               static_cast<mpi::CollectiveAlgo>(a))),
         static_cast<double>(t.algo_uses[a]));
  }
  emit("sim.compute_s", t.sim_compute_seconds);
  emit("sim.comm_s", t.sim_comm_seconds);
  emit("sim.idle_s", t.sim_idle_seconds);
}

/// What the recorded trace of a traced run yields: the host wall stamps of
/// the existing events summed by category (and module phase), the event
/// count, and the simulated critical path.
void emit_trace(const e2e::Outcome& o) {
  const char* const kMetric[obs::kCategoryCount] = {
      "minimpi.p2p.wall_s", "minimpi.coll.wall_s", "minimpi.wait.wall_s",
      "minimpi.probe.wall_s", nullptr, nullptr, nullptr, nullptr};
  double wall[obs::kCategoryCount] = {};
  bool seen[obs::kCategoryCount] = {};
  std::map<std::string, double> phase_wall;
  double partition_sim = 0.0;
  bool partitioned = false;
  for (const mpi::TraceEvent& e : o.run.trace) {
    if (e.kind != obs::Kind::kSpan) continue;
    const auto c = static_cast<std::size_t>(e.cat);
    wall[c] += e.wall_end - e.wall_start;
    seen[c] = true;
    if (e.cat != obs::Category::kPhase) continue;
    phase_wall[std::string(e.name)] += e.wall_end - e.wall_start;
    if (e.name.starts_with("partition.")) {
      partition_sim += e.t_end - e.t_start;
      partitioned = true;
    }
  }
  for (std::size_t c = 0; c < obs::kCategoryCount; ++c) {
    if (kMetric[c] != nullptr && seen[c]) emit(kMetric[c], wall[c]);
  }
  for (const auto& [name, seconds] : phase_wall) {
    emit("modules.phase." + name + ".wall_s", seconds);
  }
  if (partitioned) emit("container.partition_sim_s", partition_sim);
  emit("obs.events", static_cast<double>(o.run.trace.size()));
  emit("sim.crit_comm_share",
       obs::critical_path(mpi::make_trace(o.run)).comm_share());
}

/// This process's peak resident set (VmHWM).  wait4's ru_maxrss would also
/// count the parent's pages the child held between fork and exec.
double peak_rss_mb() {
  const std::string hwm = read_first("/proc/self/status", "VmHWM");
  return std::strtod(hwm.c_str(), nullptr) / 1024.0;
}

struct ChildPlan {
  std::string workload;
  std::uint64_t seed = 1;
  std::string workdir;
  bool traced = false;
  bool corrupt = false;
  double budget_s = 0.0;
  int min_iterations = 0;
  int max_iterations = 0;
  int replays = 0;  // traced pass: layer replays after the iterations
  e2e::Oracle oracle;
};

int child_main(const ChildPlan& plan,
               const dipdc::support::Stopwatch& since_start) {
  // One malloc arena.  Every mpi::run starts fresh rank threads, and which
  // of glibc's per-thread arenas they land in is up to timing: with the
  // default arenas one seed of sort-tcp peaked anywhere in 75-85 MiB, with
  // one arena in 66.4-66.7 MiB.
  mallopt(M_ARENA_MAX, 1);
  auto w = e2e::make_workload(plan.workload, plan.seed, plan.workdir);
  emit_all(w->setup());
  const e2e::Outcome warm =
      run_checked(*w, e2e::Variant::kPlain, 0, plan.oracle, false);
  emit("setup_s", since_start.elapsed());
  emit("kernels.isa",
       dipdc::kernels::resolve(dipdc::kernels::Policy::kAuto) ==
               dipdc::kernels::Isa::kSimd
           ? 1.0
           : 0.0);

  // Iteration i runs input i % inputs, in whole passes: the medians then
  // pool every input equally often, so a deterministic per-input value
  // (the sim metrics) gives the same median whatever the iteration count.
  const auto inputs = static_cast<long>(w->inputs());
  const auto whole = [&](long n) { return (n + inputs - 1) / inputs * inputs; };
  const long min_iterations = whole(plan.min_iterations);
  const long max_iterations = whole(plan.max_iterations);
  const bool has_alternative = layer_costs().count(plan.workload) != 0;
  // Each input's first makespan; a later one that differs is a
  // nondeterministic run.
  std::map<std::size_t, double> makespan = {{0, warm.sim_makespan_s}};
  const dipdc::support::Stopwatch timed;
  // A child starts no pass that would end past its budget (the previous
  // pass's duration predicts it), once it has run min_iterations.
  double pass_start_s = 0.0;
  double pass_s = 0.0;
  for (long i = 0; i < max_iterations; ++i) {
    if (i % inputs == 0) {
      const double now = timed.elapsed();
      if (i > 0) pass_s = now - pass_start_s;
      pass_start_s = now;
      if (i >= min_iterations && now + pass_s > plan.budget_s) break;
    }
    const auto input = static_cast<std::size_t>(i % inputs);
    // The traced pass's runs on this input: the traced one and the A/B
    // counterpart.  They go after the plain run and before it by turns
    // (flipping each pass, so every input sees both orders), so that no
    // ratio against the plain run gains from going first.
    const auto counterparts = [&] {
      const e2e::Outcome t =
          run_checked(*w, e2e::Variant::kTraced, input, plan.oracle, false);
      emit("traced_wall_s", t.spans.wall_s);
      emit_trace(t);
      if (has_alternative) {
        const e2e::Outcome a = run_checked(*w, e2e::Variant::kAlternative,
                                           input, plan.oracle, false);
        emit("alt_wall_s", a.spans.wall_s);
      }
    };
    const bool counterparts_first =
        plan.traced && (i / inputs + i % inputs) % 2 == 1;
    if (counterparts_first) counterparts();

    const double cpu0 = process_cpu_s();
    const e2e::Outcome o = run_checked(*w, e2e::Variant::kPlain, input,
                                       plan.oracle, plan.corrupt && i == 0);
    emit("cpu_s", process_cpu_s() - cpu0);
    emit("wall_s", o.spans.wall_s);
    emit("sim_makespan_s", o.sim_makespan_s);
    const auto [first, fresh] = makespan.emplace(input, o.sim_makespan_s);
    emit("sim.nondeterministic_runs",
         !fresh && first->second != o.sim_makespan_s ? 1.0 : 0.0);
    emit_all(o.extra);
    if (!plan.traced) continue;
    emit_layers(o);
    if (!counterparts_first) counterparts();
  }
  if (plan.traced) {
    for (int r = 0; r < plan.replays; ++r) emit_all(w->replay());
  }
  emit("peak_rss_mb", peak_rss_mb());
  std::fflush(stdout);
  return 0;
}

// ---- parent --------------------------------------------------------------

/// Everything the children of one workload reported, pooled.
struct Pool {
  std::map<std::string, std::vector<double>> samples;
  double attempted = 0.0;
  double failed = 0.0;
};

double quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string base_name;  // ratios: what the value is relative to
  double base = 0.0;
  std::string absent;     // non-empty: not measured on this workload, why
};

/// Runs one child to completion, appending its report to `pool`.
void run_child(const std::vector<std::string>& args, Pool& pool,
               const std::string& workload) {
  std::vector<char*> argv;
  for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    dup2(fds[1], STDOUT_FILENO);
    close(fds[0]);
    close(fds[1]);
    execv("/proc/self/exe", argv.data());
    _exit(127);
  }
  close(fds[1]);
  std::FILE* in = fdopen(fds[0], "r");
  bool reported = false;
  char line[4096];
  while (in != nullptr && std::fgets(line, sizeof(line), in) != nullptr) {
    std::string text(line);
    if (!text.empty() && text.back() == '\n') text.pop_back();
    const std::size_t space = text.find(' ');
    if (space == std::string::npos) continue;
    const std::string name = text.substr(0, space);
    const std::string rest = text.substr(space + 1);
    if (name == "note") {
      std::fprintf(stderr, "%s: %s\n", workload.c_str(), rest.c_str());
      continue;
    }
    const double value = std::strtod(rest.c_str(), nullptr);
    if (name == "attempted") {
      pool.attempted += value;
      reported = true;
    } else if (name == "failed") {
      pool.failed += value;
    } else {
      pool.samples[name].push_back(value);
    }
  }
  if (in != nullptr) std::fclose(in);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 || !reported) {
    std::fprintf(stderr, "%s: child exited abnormally (status %d)\n",
                 workload.c_str(), status);
    pool.attempted += 1.0;
    pool.failed += 1.0;
  }
}

std::string hexfloat(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

/// --oracle=VALUE,COUNT,FINGERPRINT[,V...], doubles as exact hex floats.
std::string oracle_arg(const e2e::Oracle& o) {
  std::vector<std::string> parts = {hexfloat(o.value), std::to_string(o.count),
                                    std::to_string(o.fingerprint)};
  for (const double v : o.values) parts.push_back(hexfloat(v));
  std::string arg = "--oracle=";
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) arg.push_back(',');
    arg.append(parts[i]);
  }
  return arg;
}

/// Inverse of oracle_arg (without the "--oracle=").
e2e::Oracle parse_oracle(const std::string& text) {
  const auto parts = split(text, ',');
  if (parts.size() < 3) throw std::runtime_error("bad --oracle");
  e2e::Oracle o;
  o.value = std::strtod(parts[0].c_str(), nullptr);
  o.count = std::strtoull(parts[1].c_str(), nullptr, 10);
  o.fingerprint = std::strtoull(parts[2].c_str(), nullptr, 10);
  for (std::size_t i = 3; i < parts.size(); ++i) {
    o.values.push_back(std::strtod(parts[i].c_str(), nullptr));
  }
  return o;
}

struct Plan {
  std::uint64_t seed = 1;
  std::string out;
  std::string workdir = ".";
  bool traced = false;
  bool quick = false;
  bool self_test = false;
  double seconds = 10.0;
  std::vector<std::string> workloads;
};

/// The metrics of one workload, computed from its pooled samples.
std::vector<Metric> compute_metrics(const Plan& plan, const e2e::Workload& w,
                                    const Pool& pool, double serial_s) {
  std::vector<Metric> m;
  const auto& s = pool.samples;
  const auto has = [&](const std::string& k) {
    return s.count(k) != 0 && !s.at(k).empty();
  };
  const auto med = [&](const std::string& k) { return median(s.at(k)); };
  const auto add = [&](std::string name, double value, std::string unit) {
    m.push_back({std::move(name), value, std::move(unit), "", 0.0, ""});
  };
  const auto absent = [&](std::string name, std::string why) {
    m.push_back({std::move(name), 0.0, "", "", 0.0, std::move(why)});
  };
  const auto ratio = [&](std::string name, double num, std::string base_name,
                         double base, std::string unit = "ratio") {
    if (base == 0.0) {
      absent(std::move(name), "its base " + base_name + " is 0");
      return;
    }
    m.push_back({std::move(name), num / base, std::move(unit),
                 std::move(base_name), base, ""});
  };
  const auto add_med = [&](const std::string& k, const std::string& unit,
                           const std::string& why) {
    if (has(k)) {
      add(k, med(k), unit);
    } else {
      absent(k, why);
    }
  };

  if (!has("wall_s")) {
    absent("wall_p50_s", "no iteration completed");
    return m;
  }
  const double wall_p50 = med("wall_s");
  add("setup_s", med("setup_s"), "s");
  add("wall_p50_s", wall_p50, "s");
  add("wall_p90_s", quantile(s.at("wall_s"), 0.9), "s");
  add("cpu_p50_s", med("cpu_s"), "s");
  ratio("items_per_s", w.items(), "wall_p50_s", wall_p50, "items/s");
  add("peak_rss_mb", med("peak_rss_mb"), "MiB");
  ratio("error_rate", pool.failed, "attempted", pool.attempted);
  add("samples", static_cast<double>(s.at("wall_s").size()), "count");
  add("sim_makespan_s", med("sim_makespan_s"), "sim_s");
  if (has("sim_p99_latency_s")) add("sim_p99_latency_s", med("sim_p99_latency_s"), "sim_s");
  add("modules.serial_s", serial_s, "s");
  ratio("modules.speedup", serial_s, "wall_p50_s", wall_p50, "x");
  if (!plan.traced) return m;

  // kernels
  const double replay = med("kernels.replay_s");
  const double rank_cpu = med("modules.rank_cpu_s");
  add("kernels.replay_s", replay, "s");
  add("kernels.ops", med("kernels.ops"), "ops");
  add("kernels.bytes", med("kernels.bytes"), "B");
  ratio("kernels.gops", med("kernels.ops") * 1e-9, "kernels.replay_s", replay,
        "Gop/s");
  ratio("kernels.cpu_share", replay, "modules.rank_cpu_s", rank_cpu);
  add("kernels.isa", med("kernels.isa"), "simd");

  // minimpi: runtime, p2p, collectives, backend
  add("minimpi.run.startup_s", med("minimpi.run.startup_s"), "s");
  add("minimpi.run.teardown_s", med("minimpi.run.teardown_s"), "s");
  add_med("minimpi.p2p.wall_s", "s", "no p2p events in the trace");
  add_med("minimpi.wait.wall_s", "s", "no wait events in the trace");
  add_med("minimpi.probe.wall_s", "s", "no probe events in the trace");
  add_med("minimpi.coll.wall_s", "s", "no collective events in the trace");
  add("minimpi.messages", med("minimpi.messages"), "count");
  add("minimpi.bytes", med("minimpi.bytes"), "B");
  const double hits = med("minimpi.pool.hits");
  ratio("minimpi.pool.hit_ratio", hits, "pool_hits+misses",
        hits + med("minimpi.pool.misses"));
  add("minimpi.inline_messages", med("minimpi.inline_messages"), "count");
  add("minimpi.rendezvous_stalls", med("minimpi.rendezvous_stalls"), "count");
  const double zc = med("minimpi.zero_copy_bytes");
  ratio("minimpi.zero_copy_ratio", zc, "zero_copy+copied_bytes",
        zc + med("minimpi.copied_bytes"));
  for (const auto& [k, v] : s) {
    if (k.starts_with("minimpi.algo.")) add(k, median(v), "count");
  }
  const double frames = med("minimpi.backend.frames");
  add("minimpi.backend.frames", frames, "count");
  add("minimpi.backend.wire_bytes", med("minimpi.backend.wire_bytes"), "B");

  // A/B layer cost: this workload minus its counterpart, base = counterpart.
  const auto cost = layer_costs().find(std::string(w.name()));
  for (const auto& [owner, k] : layer_costs()) {
    if (cost != layer_costs().end() && cost->second == k && has("alt_wall_s")) {
      const double base = med("alt_wall_s");
      m.push_back({k, wall_p50 - base, "s", "counterpart_wall_p50_s", base, ""});
    } else {
      absent(k, "its A/B counterpart runs on " + owner + " only");
    }
  }
  // Only a workload crossing the backend seam sends frames, and its
  // counterpart is the same run without it.
  if (frames > 0.0 && has("alt_wall_s")) {
    ratio("minimpi.backend.us_per_frame",
          (wall_p50 - med("alt_wall_s")) * 1e6, "minimpi.backend.frames",
          frames, "us");
  } else {
    absent("minimpi.backend.us_per_frame", "no backend frames");
  }

  // dataio
  add_med("dataio.generate_s", "s", "inputs come from ServeConfig::seed inside the module");
  add_med("dataio.spill_s", "s", "no chunk file");
  add_med("dataio.read_s", "s", "no chunk file");
  add_med("dataio.read_mb_per_s", "MiB/s", "no chunk file");

  // container
  add_med("container.partition_sim_s", "sim_s", "no partition.* phases");

  // modules
  add("modules.rank_wall_s", med("modules.rank_wall_s"), "s");
  add("modules.rank_cpu_s", rank_cpu, "s");
  add("modules.rank_blocked_s", med("modules.rank_blocked_s"), "s");
  add("modules.rank_imbalance", med("modules.rank_imbalance"), "ratio");
  const std::pair<const char*, const char*> kServe[] = {
      {"modules.serve.admit_ratio", "ratio"},
      {"modules.serve.batches", "count"},
      {"modules.serve.entries_checked", "count"},
      {"modules.serve.shard_imbalance", "ratio"}};
  for (const auto& [k, unit] : kServe) add_med(k, unit, "not a serving workload");
  for (const auto& [k, v] : s) {
    if (k.starts_with("modules.phase.")) add(k, median(v), "s");
  }

  // sim clock
  add("sim.compute_s", med("sim.compute_s"), "sim_s");
  add("sim.comm_s", med("sim.comm_s"), "sim_s");
  add("sim.idle_s", med("sim.idle_s"), "sim_s");
  add("sim.crit_comm_share", med("sim.crit_comm_share"), "ratio");
  double nondet = 0.0;
  for (const double v : s.at("sim.nondeterministic_runs")) nondet += v;
  add("sim.nondeterministic_runs", nondet, "count");

  // obs
  add("obs.events", med("obs.events"), "count");
  ratio("obs.trace_overhead", med("traced_wall_s"), "wall_p50_s", wall_p50,
        "x");
  return m;
}

/// The host context every result file carries.
std::vector<std::pair<std::string, std::string>> host_context() {
  std::vector<std::pair<std::string, std::string>> h;
  h.emplace_back("nproc", std::to_string(sysconf(_SC_NPROCESSORS_ONLN)));
  h.emplace_back("cpu", read_first("/proc/cpuinfo", "model name"));
  for (int i = 0; i < 4; ++i) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(i) + "/";
    const std::string size = read_first(dir + "size", "");
    if (size.empty()) continue;
    h.emplace_back("cache_L" + read_first(dir + "level", "") + "_" +
                       read_first(dir + "type", ""),
                   size);
  }
  utsname u{};
  if (uname(&u) == 0) h.emplace_back("kernel", std::string(u.sysname) + " " + u.release);
  h.emplace_back("build_type", DIPDC_E2E_BUILD_TYPE);
  h.emplace_back("kernels.isa",
                 dipdc::kernels::isa_name(
                     dipdc::kernels::resolve(dipdc::kernels::Policy::kAuto)));
  h.emplace_back("loadavg", read_first("/proc/loadavg", ""));
  return h;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

int parent_main(const Plan& plan, const std::string& self) {
  const auto host_before = host_context();
  struct Entry {
    std::unique_ptr<e2e::Workload> workload;
    e2e::Oracle oracle;
    double serial_s = 0.0;
    Pool pool;
  };
  std::vector<Entry> entries;
  for (const std::string& name : plan.workloads) {
    Entry e;
    e.workload = e2e::make_workload(name, plan.seed, plan.workdir);
    (void)e.workload->setup();
    const dipdc::support::Stopwatch serial;
    e.oracle = e.workload->oracle();
    e.serial_s =
        serial.elapsed() / static_cast<double>(e.workload->inputs());
    // Only the workload's description is kept; the inputs are regenerated
    // by every child, as part of its set-up.
    e.workload = e2e::make_workload(name, plan.seed, plan.workdir);
    entries.push_back(std::move(e));
  }

  const int children = plan.quick || plan.traced ? 1 : kChildren;
  const int min_iterations = plan.quick    ? kQuickIterations
                             : plan.traced ? kTracedMinIterations
                                           : kMinIterations;
  const int max_iterations =
      plan.quick ? kQuickIterations : std::numeric_limits<int>::max();
  for (int c = 0; c < children; ++c) {
    for (Entry& e : entries) {
      const std::string name(e.workload->name());
      std::vector<std::string> args = {
          self, "--child", "--workload=" + name,
          "--seed=" + std::to_string(plan.seed), "--workdir=" + plan.workdir,
          "--budget=" + g17(plan.seconds / children),
          "--min-iterations=" + std::to_string(min_iterations),
          "--max-iterations=" + std::to_string(max_iterations),
          "--replays=" + std::to_string(plan.quick ? 1 : kReplays),
          oracle_arg(e.oracle)};
      if (plan.traced) args.push_back("--traced");
      if (plan.self_test) args.push_back("--corrupt");
      run_child(args, e.pool, name);
    }
  }

  bool all_ok = true;
  std::string json = "{\n  \"mode\": " +
                     json_string(plan.quick ? "quick" : plan.traced ? "traced" : "set") +
                     ",\n  \"seed\": " + std::to_string(plan.seed) +
                     ",\n  \"seconds\": " + g17(plan.seconds) +
                     ",\n  \"children\": " + std::to_string(children) +
                     ",\n  \"host\": {";
  const auto host_after = host_context();
  for (std::size_t i = 0; i < host_before.size(); ++i) {
    json += (i ? ", " : "") + json_string(host_before[i].first) + ": " +
            json_string(host_before[i].second);
  }
  json += ", \"loadavg_after\": " + json_string(host_after.back().second) +
          "},\n  \"workloads\": {";
  for (const auto& [k, v] : host_before) std::printf("# %s: %s\n", k.c_str(), v.c_str());

  for (std::size_t wi = 0; wi < entries.size(); ++wi) {
    const Entry& e = entries[wi];
    const std::string name(e.workload->name());
    if (e.pool.failed > 0.0) all_ok = false;
    const auto metrics = compute_metrics(plan, *e.workload, e.pool, e.serial_s);
    json += std::string(wi ? "," : "") + "\n    " + json_string(name) +
            ": {\n      \"item_unit\": " +
            json_string(std::string(e.workload->item_unit())) +
            ",\n      \"attempted\": " + g17(e.pool.attempted) +
            ",\n      \"failed\": " + g17(e.pool.failed) +
            ",\n      \"metrics\": {";
    std::string absent;
    bool first = true;
    for (const Metric& m : metrics) {
      if (!m.absent.empty()) {
        std::printf("%s %s absent %s\n", name.c_str(), m.name.c_str(),
                    m.absent.c_str());
        absent += std::string(absent.empty() ? "" : ", ") +
                  json_string(m.name) + ": " + json_string(m.absent);
        continue;
      }
      std::printf("%s %s %.6g %s", name.c_str(), m.name.c_str(), m.value,
                  m.unit.c_str());
      json += std::string(first ? "" : ",") + "\n        " +
              json_string(m.name) + ": {\"value\": " + g17(m.value) +
              ", \"unit\": " + json_string(m.unit);
      if (!m.base_name.empty()) {
        std::printf(" base %s=%.6g", m.base_name.c_str(), m.base);
        json += ", \"base\": {" + json_string(m.base_name) + ": " +
                g17(m.base) + "}";
      }
      std::printf("\n");
      json += "}";
      first = false;
    }
    json += "\n      },\n      \"absent\": {" + absent + "},\n      \"wall_s\": [";
    if (e.pool.samples.count("wall_s") != 0) {
      const auto& ws = e.pool.samples.at("wall_s");
      for (std::size_t i = 0; i < ws.size(); ++i) json += (i ? ", " : "") + g17(ws[i]);
    }
    json += "]\n    }";
  }
  json += "\n  }\n}\n";
  if (!plan.out.empty()) {
    std::ofstream f(plan.out);
    f << json;
    if (!f) {
      std::fprintf(stderr, "error: cannot write %s\n", plan.out.c_str());
      return 2;
    }
  }
  return all_ok ? 0 : 1;
}

const std::vector<std::string>& known_options() {
  static const std::vector<std::string> kKnown = {
      "seed", "out", "traced", "quick", "self-test", "workload", "seconds",
      "workdir", "help",
      // parent -> child
      "child", "budget", "min-iterations", "max-iterations", "replays",
      "oracle", "corrupt"};
  return kKnown;
}

}  // namespace

int main(int argc, char** argv) {
  const dipdc::support::Stopwatch since_start;
  const dipdc::support::ArgParser args(argc, argv);
  for (const std::string& key : args.keys()) {
    const auto& known = known_options();
    if (std::find(known.begin(), known.end(), key) == known.end()) {
      std::fprintf(stderr, "error: unrecognized option --%s\n", key.c_str());
      return 2;
    }
  }
  try {
    const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
    const std::string workdir = args.get("workdir", ".");
    if (args.get_bool("child", false)) {
      ChildPlan plan;
      plan.workload = args.get("workload");
      plan.seed = seed;
      plan.workdir = workdir;
      plan.traced = args.get_bool("traced", false);
      plan.corrupt = args.get_bool("corrupt", false);
      plan.budget_s = args.get_double("budget", 0.0);
      plan.min_iterations = static_cast<int>(args.get_int("min-iterations", 1));
      plan.max_iterations = static_cast<int>(args.get_int("max-iterations", 1));
      plan.replays = static_cast<int>(args.get_int("replays", kReplays));
      plan.oracle = parse_oracle(args.get("oracle"));
      return child_main(plan, since_start);
    }
    if (args.get_bool("help", false)) {
      std::printf(
          "usage: dipdc_bench [--seed=N] [--out=FILE] [--traced] [--quick] "
          "[--self-test]\n"
          "                   [--workload=NAME[,NAME...]] [--seconds=S] "
          "[--workdir=DIR]\n");
      return 0;
    }
    Plan plan;
    plan.seed = seed;
    plan.workdir = workdir;
    plan.out = args.get("out");
    plan.traced = args.get_bool("traced", false);
    plan.quick = args.get_bool("quick", false);
    plan.self_test = args.get_bool("self-test", false);
    plan.seconds = args.get_double("seconds", 10.0);
    for (const auto n : e2e::workload_names()) plan.workloads.emplace_back(n);
    if (args.has("workload")) plan.workloads = split(args.get("workload"), ',');
    return parent_main(plan, argv[0]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
