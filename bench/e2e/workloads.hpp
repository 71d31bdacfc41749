// The five fixed module paths the end-to-end benchmark times, behind the
// one interface the harness (harness.cpp) drives.  Every call into a module
// lives in workloads.cpp, so a change to a module's entry points touches
// that file only.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "minimpi/runtime.hpp"

namespace dipdc::bench_e2e {

/// Named measurements, in the order they were taken.
using Samples = std::vector<std::pair<std::string, double>>;

/// What every iteration of a workload is checked against.  Computed once
/// per set by a serial run in the parent, outside every timed interval, and
/// handed to the children on their command line.
struct Oracle {
  double value = 0.0;             // distmatrix checksum, kmeans inertia
  std::uint64_t count = 0;        // sort key count, serve match count
  std::uint64_t fingerprint = 0;  // sorts: order-independent key-bit hash
  std::vector<double> values;     // kmeans: the final centroids; serve:
                                  // the match count of each input
};

/// Which run an iteration performs.
enum class Variant {
  kPlain,        // tracing off: the end-to-end measurement
  kTraced,       // record_trace + trace_wall_time (traced pass only)
  kAlternative,  // the workload's A/B counterpart (traced pass only; the
                 // harness knows which workloads have one)
};

/// The harness's own spans around one complete mpi::run.
struct RunSpans {
  double wall_s = 0.0;      // the mpi::run call
  double startup_s = 0.0;   // run() called -> last rank entered the module
  double teardown_s = 0.0;  // last rank left the module -> run() returned
  std::vector<double> rank_wall_s;  // per rank, around the module call
  std::vector<double> rank_cpu_s;   // per rank, CLOCK_THREAD_CPUTIME_ID
};

/// One iteration, already checked against the oracle.
struct Outcome {
  std::string why;              // the first failed check; empty when all held
  std::uint64_t attempted = 1;  // operations: 1 run, or the offered queries
  std::uint64_t failed = 0;
  double sim_makespan_s = 0.0;
  RunSpans spans;
  minimpi::RunResult run;
  Samples extra;  // workload-specific per-iteration values
};

class Workload {
 public:
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  [[nodiscard]] virtual std::string_view name() const = 0;
  [[nodiscard]] virtual std::string_view item_unit() const = 0;
  /// Work of one iteration, in item_unit().
  [[nodiscard]] virtual double items() const = 0;
  /// Operations one iteration attempts, the base of error_rate: the run
  /// itself, or each offered query of a serving run.
  [[nodiscard]] virtual std::uint64_t operations() const { return 1; }
  /// How many distinct inputs the iterations take turns on (serve-zipf's
  /// layouts).  The harness always runs whole passes over them, so every
  /// measurement pools the same mix whatever the iteration count.
  [[nodiscard]] virtual std::size_t inputs() const { return 1; }

  /// Generates the inputs (and spills chunk files).  Returns the dataio
  /// spans it took (dataio.generate_s, dataio.spill_s).
  virtual Samples setup() = 0;
  /// The serial, independent reference run over every input; requires
  /// setup().
  [[nodiscard]] virtual Oracle oracle() const = 0;
  /// One complete mpi::run of the module on `input` (< inputs()), checked
  /// against `oracle`.  With `corrupt`, one output is damaged on the bench
  /// side after the run and before the check (the self-test of the checks).
  virtual Outcome iterate(Variant variant, std::size_t input,
                          const Oracle& oracle, bool corrupt) = 0;
  /// Single-thread replays of layer entry points on this workload's own
  /// inputs: kernels.replay_s, kernels.ops, kernels.bytes, and dataio.*
  /// where the workload streams from disk.
  [[nodiscard]] virtual Samples replay() const = 0;

 protected:
  Workload() = default;
};

/// The workloads, in the round-robin order of a set.
[[nodiscard]] const std::vector<std::string_view>& workload_names();

/// Builds workload `name` (one of workload_names()) for `seed`; chunk
/// files go to `workdir`.  Throws support::PreconditionError on an unknown
/// name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(
    std::string_view name, std::uint64_t seed, const std::string& workdir);

/// `v` with all 17 significant digits, so it reads back exactly.
[[nodiscard]] std::string g17(double v);

}  // namespace dipdc::bench_e2e
