// Replays the checked-in fuzz corpus (tests/fuzz_corpus/*.seed) against
// the oracle on every test run.  The corpus pins down behaviours the
// random fuzzer only hits occasionally — wildcard-matching races, subcomm
// collectives under faults, reliable delivery under drops, rank kills —
// and doubles as the regression net for the seed-file replay path: every
// program here is rebuilt from its few-number spec, never deserialized.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "fuzz/check.hpp"
#include "fuzz/execute.hpp"
#include "fuzz/oracle.hpp"
#include "fuzz/program.hpp"
#include "fuzz/seedfile.hpp"

namespace fz = dipdc::fuzz;

namespace {

std::vector<std::string> corpus_files() {
  std::vector<std::string> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(DIPDC_CORPUS_DIR)) {
    if (entry.path().extension() == ".seed") {
      files.push_back(entry.path().string());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

}  // namespace

TEST(FuzzCorpus, HasAtLeastTwentySeeds) {
  EXPECT_GE(corpus_files().size(), 20u);
}

TEST(FuzzCorpus, EverySeedReplaysCleanly) {
  for (const std::string& path : corpus_files()) {
    SCOPED_TRACE(path);
    const fz::Program p = fz::load_seed(path).materialize();
    const fz::CheckResult r = fz::check(p, fz::execute(p));
    EXPECT_TRUE(r.ok) << r.summary();
  }
}

TEST(FuzzCorpus, ReplayIsBitIdenticalFromSeedAlone) {
  // Two independent loads + executions must agree.  Digest equality is
  // asserted only for plans that cannot drop or duplicate (retry and
  // stall-proof counters under lossy plans depend on thread scheduling);
  // lossy seeds still assert that both runs pass the oracle.
  for (const std::string& path : corpus_files()) {
    SCOPED_TRACE(path);
    const fz::Program p1 = fz::load_seed(path).materialize();
    const fz::Program p2 = fz::load_seed(path).materialize();
    EXPECT_EQ(fz::describe(p1), fz::describe(p2))
        << "materialize() is not deterministic";

    const auto& f = p1.options.faults;
    const bool kills = f.kill_rank >= 0 && f.kill_at_call > 0;
    const bool lossy = f.drop_prob > 0.0 || f.dup_prob > 0.0;

    const fz::ExecutionOutcome o1 = fz::execute(p1);
    const fz::ExecutionOutcome o2 = fz::execute(p2);
    const fz::Expectation e = fz::oracle(p1);
    EXPECT_TRUE(fz::check(p1, e, o1).ok) << fz::check(p1, e, o1).summary();
    EXPECT_TRUE(fz::check(p2, e, o2).ok) << fz::check(p2, e, o2).summary();
    if (!lossy && !kills) {
      EXPECT_EQ(fz::digest(p1, e, o1), fz::digest(p2, e, o2))
          << "replay digest differs between runs";
    }
  }
}

TEST(FuzzCorpus, EverySeedIsBitIdenticalAcrossBackends) {
  // The cross-backend conformance oracle: each corpus seed replays on the
  // tcp transport and must (a) pass the sequential oracle there
  // and (b) for non-lossy plans, produce an outcome digest bit-identical
  // to the threads run.  The simulated-timing fields travel inside the
  // wire frames, so any divergence means the seam corrupted an envelope.
  for (const std::string& path : corpus_files()) {
    SCOPED_TRACE(path);
    const fz::Program p = fz::load_seed(path).materialize();
    const fz::BackendEquivalence eq = fz::check_across_backends(p);
    EXPECT_TRUE(eq.ok) << eq.summary();
  }
}
