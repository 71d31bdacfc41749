#include "fuzz/check.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <sstream>

#include "minimpi/backend.hpp"

namespace dipdc::fuzz {

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

std::uint64_t fnv1a(const std::uint8_t* data, std::size_t n,
                    std::uint64_t h = kFnvOffset) {
  for (std::size_t i = 0; i < n; ++i) {
    h ^= data[i];
    h *= kFnvPrime;
  }
  return h;
}

std::uint64_t fnv1a_str(const std::string& s) {
  return fnv1a(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
}

std::string hex_bytes(const std::vector<std::uint8_t>& v, std::size_t max) {
  std::ostringstream os;
  char b[4];
  for (std::size_t i = 0; i < std::min(v.size(), max); ++i) {
    std::snprintf(b, sizeof b, "%02x", v[i]);
    os << b;
  }
  if (v.size() > max) os << "...";
  return os.str();
}

class Checker {
 public:
  Checker(const Program& p, const Expectation& e, const ExecutionOutcome& out)
      : p_(p), e_(e), out_(out) {}

  CheckResult run() {
    if (e_.expect_kill) {
      check_expected_kill();
      return std::move(r_);
    }
    if (!out_.ran) {
      // "retry budget exhausted" is NOT excused: the generator arms 64
      // retries under drop plans, so genuine exhaustion has probability
      // ~drop^65 — an exhausted budget means a frame was displaced and its
      // sender never acknowledged (a real delivery bug).
      fail("run aborted unexpectedly: " + out_.error);
      return std::move(r_);
    }
    check_calls();
    check_trace();
    check_sim_accounting();
    if (e_.exact_p2p) {
      check_p2p_totals();
      check_channels();
    }
    check_reliable_counters();
    check_observations();
    return std::move(r_);
  }

 private:
  template <typename... Parts>
  void fail(Parts&&... parts) {
    std::ostringstream os;
    (os << ... << parts);
    r_.ok = false;
    r_.failures.push_back(os.str());
  }

  void check_expected_kill() {
    if (out_.ran) {
      fail("expected rank ", e_.killed_rank,
           " to be killed by fault injection, but the run completed");
      return;
    }
    if (out_.error.find("killed by fault injection") == std::string::npos) {
      fail("expected a fault-injection kill, got: ", out_.error);
    }
  }

  void check_calls() {
    for (int r = 0; r < p_.nranks; ++r) {
      const auto& got =
          out_.result.rank_stats[static_cast<std::size_t>(r)].calls;
      const auto& want = e_.calls[static_cast<std::size_t>(r)];
      for (std::size_t i = 0; i < want.size(); ++i) {
        if (got[i] != want[i]) {
          fail("rank ", r, ": ",
               minimpi::primitive_name(static_cast<minimpi::Primitive>(i)),
               " called ", got[i], " times, oracle expected ", want[i]);
        }
      }
    }
  }

  void check_trace() {
    std::vector<std::uint64_t> counts(static_cast<std::size_t>(p_.nranks), 0);
    std::vector<const minimpi::TraceEvent*> prev(
        static_cast<std::size_t>(p_.nranks), nullptr);
    for (const minimpi::TraceEvent& ev : out_.result.trace) {
      if (ev.rank < 0 || ev.rank >= p_.nranks) {
        fail("trace event with out-of-range rank ", ev.rank);
        continue;
      }
      // The oracle models user primitives only; compute/idle/phase spans
      // (op < 0) are extra observability events.  Phase spans are also
      // emitted at phase_end with the phase's *start* time, so they are
      // exempt from the per-lane monotonicity check too.
      if (ev.op < 0) continue;
      const auto r = static_cast<std::size_t>(ev.rank);
      ++counts[r];
      if (ev.t_end < ev.t_start) {
        fail("rank ", ev.rank, ": trace event ends before it starts (",
             ev.t_start, " .. ", ev.t_end, ")");
      }
      if (prev[r] != nullptr &&
          ev.t_start < prev[r]->t_start - 1e-12) {
        fail("rank ", ev.rank, ": trace start times not monotonic (",
             prev[r]->t_start, " then ", ev.t_start, ")");
      }
      prev[r] = &ev;
    }
    for (int r = 0; r < p_.nranks; ++r) {
      if (counts[static_cast<std::size_t>(r)] !=
          e_.trace_events[static_cast<std::size_t>(r)]) {
        fail("rank ", r, ": ", counts[static_cast<std::size_t>(r)],
             " trace events, oracle expected ",
             e_.trace_events[static_cast<std::size_t>(r)]);
      }
    }
  }

  void check_sim_accounting() {
    for (int r = 0; r < p_.nranks; ++r) {
      const auto& st = out_.result.rank_stats[static_cast<std::size_t>(r)];
      const double clock = out_.result.sim_times[static_cast<std::size_t>(r)];
      const double buckets = st.sim_compute_seconds + st.sim_comm_seconds +
                             st.sim_idle_seconds;
      if (std::abs(clock - buckets) > 1e-9 * std::max(1.0, clock)) {
        fail("rank ", r, ": sim clock ", clock,
             " != compute+comm+idle buckets ", buckets);
      }
      if (clock < 0.0) fail("rank ", r, ": negative sim clock ", clock);
    }
  }

  void check_p2p_totals() {
    for (int r = 0; r < p_.nranks; ++r) {
      const auto& st = out_.result.rank_stats[static_cast<std::size_t>(r)];
      const auto& want = e_.p2p[static_cast<std::size_t>(r)];
      const std::uint64_t got[4] = {st.p2p_bytes_sent, st.p2p_messages_sent,
                                    st.p2p_bytes_received,
                                    st.p2p_messages_received};
      static const char* kNames[4] = {"p2p bytes sent", "p2p messages sent",
                                      "p2p bytes received",
                                      "p2p messages received"};
      for (int i = 0; i < 4; ++i) {
        if (got[i] != want[static_cast<std::size_t>(i)]) {
          fail("rank ", r, ": ", kNames[i], " = ", got[i],
               ", oracle expected ", want[static_cast<std::size_t>(i)]);
        }
      }
    }
  }

  void check_channels() {
    std::map<std::pair<int, int>, const minimpi::ChannelTraffic*> got;
    for (const minimpi::ChannelTraffic& t : out_.result.channels) {
      got[{t.src, t.dst}] = &t;
      if (t.bytes_sent != t.bytes_received ||
          t.messages_sent != t.messages_received) {
        fail("channel ", t.src, "->", t.dst, ": sent ", t.bytes_sent, "B/",
             t.messages_sent, "msg but received ", t.bytes_received, "B/",
             t.messages_received, "msg");
      }
    }
    for (const auto& [key, want] : e_.channels) {
      auto it = got.find(key);
      if (it == got.end()) {
        fail("channel ", key.first, "->", key.second,
             " missing from run result");
        continue;
      }
      if (it->second->bytes_sent != want.bytes ||
          it->second->messages_sent != want.messages) {
        fail("channel ", key.first, "->", key.second, ": ",
             it->second->bytes_sent, "B/", it->second->messages_sent,
             "msg, oracle expected ", want.bytes, "B/", want.messages, "msg");
      }
    }
    for (const auto& [key, t] : got) {
      if (!e_.channels.count(key) &&
          (t->bytes_sent || t->messages_sent || t->bytes_received ||
           t->messages_received)) {
        fail("unexpected traffic on channel ", key.first, "->", key.second);
      }
    }
  }

  void check_reliable_counters() {
    const bool drops = p_.options.faults.drop_prob > 0;
    for (int r = 0; r < p_.nranks; ++r) {
      const auto& st = out_.result.rank_stats[static_cast<std::size_t>(r)];
      if (st.reliable_retries != st.reliable_timeouts) {
        fail("rank ", r, ": ", st.reliable_retries, " retries but ",
             st.reliable_timeouts, " ack timeouts");
      }
      if (!drops && st.reliable_retries != 0) {
        fail("rank ", r, ": ", st.reliable_retries,
             " reliable retries without an armed drop plan");
      }
    }
  }

  void check_observations() {
    for (int r = 0; r < p_.nranks; ++r) {
      const auto& got = out_.obs[static_cast<std::size_t>(r)];
      const auto& want = e_.obs[static_cast<std::size_t>(r)];
      if (got.size() != want.size()) {
        fail("rank ", r, ": ", got.size(), " observations, oracle expected ",
             want.size());
        continue;
      }
      // Any-source windows: each sender must be matched exactly once per
      // (event) group.
      std::map<std::uint32_t, std::set<int>> window_sources;
      for (std::size_t i = 0; i < got.size(); ++i) {
        const Observation& g = got[i];
        const ExpectObs& w = want[i];
        if (g.event != w.event || g.kind != w.kind) {
          fail("rank ", r, " obs ", i, ": saw e", g.event, " ",
               op_kind_name(g.kind), ", oracle expected e", w.event, " ",
               op_kind_name(w.kind));
          continue;
        }
        if (w.window) {
          const auto it =
              std::find(w.wsources.begin(), w.wsources.end(), g.source);
          if (it == w.wsources.end()) {
            fail("rank ", r, " e", g.event,
                 ": any-source recv matched source ", g.source,
                 " which is not a window sender");
            continue;
          }
          const auto idx =
              static_cast<std::size_t>(it - w.wsources.begin());
          if (g.bytes != w.wbytes[idx]) {
            fail("rank ", r, " e", g.event, ": payload from source ",
                 g.source, " corrupted (got ", hex_bytes(g.bytes, 16),
                 ", want ", hex_bytes(w.wbytes[idx], 16), ")");
          }
          if (!window_sources[g.event].insert(g.source).second) {
            fail("rank ", r, " e", g.event, ": source ", g.source,
                 " matched twice in one any-source window");
          }
          continue;
        }
        if (w.source != -2 && g.source != w.source) {
          fail("rank ", r, " e", g.event, " ", op_kind_name(g.kind),
               ": matched source ", g.source, ", oracle expected ", w.source);
        }
        if (w.tag != -2 && g.tag != w.tag) {
          fail("rank ", r, " e", g.event, " ", op_kind_name(g.kind),
               ": matched tag ", g.tag, ", oracle expected ", w.tag);
        }
        if (g.bytes != w.bytes) {
          fail("rank ", r, " e", g.event, " ", op_kind_name(g.kind),
               ": payload mismatch (", g.bytes.size(), "B got ",
               hex_bytes(g.bytes, 16), ", ", w.bytes.size(), "B want ",
               hex_bytes(w.bytes, 16), ")");
        }
      }
    }
  }

  const Program& p_;
  const Expectation& e_;
  const ExecutionOutcome& out_;
  CheckResult r_;
};

}  // namespace

std::string CheckResult::summary(std::size_t max_lines) const {
  if (ok) return "ok";
  std::ostringstream os;
  for (std::size_t i = 0; i < std::min(failures.size(), max_lines); ++i) {
    os << failures[i] << "\n";
  }
  if (failures.size() > max_lines) {
    os << "... (" << failures.size() - max_lines << " more)\n";
  }
  return os.str();
}

CheckResult check(const Program& p, const Expectation& e,
                  const ExecutionOutcome& out) {
  return Checker(p, e, out).run();
}

CheckResult check(const Program& p, const ExecutionOutcome& out) {
  const Expectation e = oracle(p);
  return check(p, e, out);
}

std::string BackendEquivalence::summary(std::size_t max_lines) const {
  if (ok) return "ok";
  std::ostringstream os;
  for (std::size_t i = 0; i < std::min(failures.size(), max_lines); ++i) {
    os << failures[i] << "\n";
  }
  if (failures.size() > max_lines) {
    os << "... (" << failures.size() - max_lines << " more)\n";
  }
  return os.str();
}

BackendEquivalence check_across_backends(const Program& p) {
  const Expectation e = oracle(p);
  const minimpi::FaultOptions& f = p.options.faults;
  const bool lossy = f.drop_prob > 0.0 || f.dup_prob > 0.0;
  const bool kills = f.kill_rank >= 0 && f.kill_at_call > 0;
  const bool compare_digests = !lossy && !kills;

  BackendEquivalence eq;
  std::string threads_digest;
  for (const minimpi::BackendKind kind :
       {minimpi::BackendKind::kThreads, minimpi::BackendKind::kTcp}) {
    Program variant = p;
    variant.options.backend.kind = kind;
    const ExecutionOutcome out = execute(variant);
    const CheckResult res = check(variant, e, out);
    const char* name = minimpi::to_string(kind);
    for (const std::string& fail : res.failures) {
      eq.ok = false;
      eq.failures.push_back(std::string(name) + ": " + fail);
    }
    const std::string d = digest(variant, e, out);
    if (kind == minimpi::BackendKind::kThreads) {
      threads_digest = d;
    } else if (compare_digests && d != threads_digest) {
      eq.ok = false;
      eq.failures.push_back(std::string(name) + ": outcome digest " + d +
                            " differs from threads digest " +
                            threads_digest);
    }
  }
  return eq;
}

std::string digest(const Program& p, const Expectation& e,
                   const ExecutionOutcome& out) {
  std::ostringstream os;
  os << "ran=" << out.ran << ";err=" << fnv1a_str(out.error) << ";";
  // Any-source matches and posted-irecv windows account simulated time in
  // real-schedule order, so their clocks are not reproducible; everything
  // else in the digest still is.
  const bool stable_timing = !p.has_any_source_window() &&
                             !p.has_racy_irecv_window() &&
                             !p.has_icollective();
  if (out.ran) {
    for (int r = 0; r < p.nranks; ++r) {
      const auto& st = out.result.rank_stats[static_cast<std::size_t>(r)];
      os << "r" << r << ":c=";
      for (const std::uint64_t c : st.calls) os << c << ",";
      os << ";p2p=" << st.p2p_bytes_sent << "," << st.p2p_messages_sent
         << "," << st.p2p_bytes_received << "," << st.p2p_messages_received;
      if (stable_timing) {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g",
                      out.result.sim_times[static_cast<std::size_t>(r)]);
        os << ";t=" << buf;
        os << ";f=" << st.fault_drops << "," << st.fault_dups << ","
           << st.fault_delays << "," << st.reliable_retries << ","
           << st.reliable_timeouts << "," << st.reliable_duplicates;
      }
      os << ";";
    }
    for (const minimpi::ChannelTraffic& t : out.result.channels) {
      os << "ch" << t.src << ">" << t.dst << "=" << t.bytes_sent << ","
         << t.messages_sent << "," << t.bytes_received << ","
         << t.messages_received << ";";
    }
  }
  // Observations: canonicalise any-source window groups by sorting each
  // group's (source, payload hash) pairs.
  for (int r = 0; r < p.nranks; ++r) {
    const auto& obs = out.obs[static_cast<std::size_t>(r)];
    const auto& want = e.obs[static_cast<std::size_t>(r)];
    std::map<std::uint32_t, std::vector<std::pair<int, std::uint64_t>>>
        windows;
    os << "o" << r << "=";
    for (std::size_t i = 0; i < obs.size(); ++i) {
      const Observation& g = obs[i];
      const std::uint64_t h = fnv1a(g.bytes.data(), g.bytes.size());
      const bool window = i < want.size() && want[i].window;
      if (window) {
        windows[g.event].push_back({g.source, h});
      } else {
        os << g.event << "/" << g.source << "/" << g.tag << "/" << h << ",";
      }
    }
    for (auto& [event, entries] : windows) {
      std::sort(entries.begin(), entries.end());
      os << "w" << event << "[";
      for (const auto& [src, h] : entries) os << src << "/" << h << ",";
      os << "]";
    }
    os << ";";
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(fnv1a_str(os.str())));
  if (std::getenv("DIPDC_FUZZ_DIGEST_DUMP") != nullptr) {
    std::fprintf(stderr, "DIGEST %s %s\n%s\n",
                 minimpi::to_string(p.options.backend.kind), buf,
                 os.str().c_str());
  }
  return buf;
}

}  // namespace dipdc::fuzz
