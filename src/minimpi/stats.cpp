#include "minimpi/stats.hpp"

#include <map>
#include <sstream>
#include <string>

#include "minimpi/runtime.hpp"
#include "minimpi/trace.hpp"

namespace dipdc::minimpi {

CommStats& CommStats::operator+=(const CommStats& other) {
  for (std::size_t i = 0; i < kPrimitiveCount; ++i) {
    calls[i] += other.calls[i];
  }
  p2p_bytes_sent += other.p2p_bytes_sent;
  p2p_messages_sent += other.p2p_messages_sent;
  p2p_bytes_received += other.p2p_bytes_received;
  p2p_messages_received += other.p2p_messages_received;
  transport_bytes_sent += other.transport_bytes_sent;
  transport_messages_sent += other.transport_messages_sent;
  pool_hits += other.pool_hits;
  pool_misses += other.pool_misses;
  inline_messages += other.inline_messages;
  zero_copy_bytes += other.zero_copy_bytes;
  copied_bytes += other.copied_bytes;
  rendezvous_stalls += other.rendezvous_stalls;
  futile_wakeups += other.futile_wakeups;
  backend_frames += other.backend_frames;
  backend_wire_bytes += other.backend_wire_bytes;
  fault_drops += other.fault_drops;
  fault_dups += other.fault_dups;
  fault_delays += other.fault_delays;
  reliable_retries += other.reliable_retries;
  reliable_timeouts += other.reliable_timeouts;
  reliable_duplicates += other.reliable_duplicates;
  for (std::size_t i = 0; i < kCollectiveAlgoCount; ++i) {
    algo_uses[i] += other.algo_uses[i];
  }
  sim_compute_seconds += other.sim_compute_seconds;
  sim_comm_seconds += other.sim_comm_seconds;
  sim_idle_seconds += other.sim_idle_seconds;
  return *this;
}

std::string transport_report(const CommStats& stats) {
  std::ostringstream os;
  os << "transport: " << stats.transport_messages_sent << " messages, "
     << stats.transport_bytes_sent << " bytes\n";
  os << "  inline messages: " << stats.inline_messages << "\n";
  os << "  bytes zero-copy: " << stats.zero_copy_bytes
     << ", copied: " << stats.copied_bytes << "\n";
  if (stats.backend_frames != 0) {
    os << "  backend frames: " << stats.backend_frames << ", wire bytes: "
       << stats.backend_wire_bytes << "\n";
  }
  if (stats.fault_drops != 0 || stats.fault_dups != 0 ||
      stats.fault_delays != 0 || stats.reliable_retries != 0 ||
      stats.reliable_timeouts != 0 || stats.reliable_duplicates != 0) {
    os << "fault injection: " << stats.fault_drops << " dropped, "
       << stats.fault_dups << " duplicated, " << stats.fault_delays
       << " delayed\n";
    os << "  reliable delivery: " << stats.reliable_retries << " retries, "
       << stats.reliable_timeouts << " timeouts, "
       << stats.reliable_duplicates << " duplicates filtered\n";
  }
  bool any_algo = false;
  for (std::size_t i = 0; i < kCollectiveAlgoCount; ++i) {
    if (stats.algo_uses[i] == 0) continue;
    if (!any_algo) {
      os << "collective algorithms (rank-invocations):\n";
      any_algo = true;
    }
    os << "  " << collective_algo_name(static_cast<CollectiveAlgo>(i))
       << ": " << stats.algo_uses[i] << "\n";
  }
  // Last, so no line above it depends on them: whether a buffer is back
  // in the pool when the next one is acquired, whether a rendezvous
  // sender got there before its receiver, and how often a blocked rank
  // woke too early depend on which rank thread the host scheduled first.
  os << kHostScheduleLabel << " payload pool " << stats.pool_hits
     << " hits, " << stats.pool_misses << " misses; rendezvous stalls "
     << stats.rendezvous_stalls << "; futile wake-ups "
     << stats.futile_wakeups << "\n";
  return os.str();
}

void register_comm_stats(obs::Registry& reg, const CommStats& stats) {
  for (std::size_t i = 0; i < kPrimitiveCount; ++i) {
    if (stats.calls[i] == 0) continue;
    const auto p = static_cast<Primitive>(i);
    reg.set_counter(std::string("calls.") + std::string(primitive_name(p)),
                    stats.calls[i]);
  }
  reg.set_counter("p2p.bytes_sent", stats.p2p_bytes_sent);
  reg.set_counter("p2p.messages_sent", stats.p2p_messages_sent);
  reg.set_counter("p2p.bytes_received", stats.p2p_bytes_received);
  reg.set_counter("p2p.messages_received", stats.p2p_messages_received);
  reg.set_counter("transport.bytes_sent", stats.transport_bytes_sent);
  reg.set_counter("transport.messages_sent", stats.transport_messages_sent);
  constexpr obs::Clock kHost = obs::Clock::kHostSchedule;
  reg.set_counter("pool.hits", stats.pool_hits, kHost);
  reg.set_counter("pool.misses", stats.pool_misses, kHost);
  reg.set_counter("transport.inline_messages", stats.inline_messages);
  reg.set_counter("transport.zero_copy_bytes", stats.zero_copy_bytes);
  reg.set_counter("transport.copied_bytes", stats.copied_bytes);
  reg.set_counter("transport.rendezvous_stalls", stats.rendezvous_stalls,
                  kHost);
  reg.set_counter("transport.futile_wakeups", stats.futile_wakeups, kHost);
  if (stats.backend_frames != 0) {
    reg.set_counter("transport.backend_frames", stats.backend_frames);
    reg.set_counter("transport.backend_wire_bytes", stats.backend_wire_bytes);
  }
  if (stats.fault_drops != 0) reg.set_counter("fault.drops", stats.fault_drops);
  if (stats.fault_dups != 0) reg.set_counter("fault.dups", stats.fault_dups);
  if (stats.fault_delays != 0) {
    reg.set_counter("fault.delays", stats.fault_delays);
  }
  if (stats.reliable_retries != 0) {
    reg.set_counter("reliable.retries", stats.reliable_retries);
  }
  if (stats.reliable_timeouts != 0) {
    reg.set_counter("reliable.timeouts", stats.reliable_timeouts);
  }
  if (stats.reliable_duplicates != 0) {
    reg.set_counter("reliable.duplicates", stats.reliable_duplicates);
  }
  for (std::size_t i = 0; i < kCollectiveAlgoCount; ++i) {
    if (stats.algo_uses[i] == 0) continue;
    const auto a = static_cast<CollectiveAlgo>(i);
    reg.set_counter(
        std::string("algo.") + std::string(collective_algo_name(a)),
        stats.algo_uses[i]);
  }
  reg.set_gauge("time.compute", stats.sim_compute_seconds, "s");
  reg.set_gauge("time.comm", stats.sim_comm_seconds, "s");
  reg.set_gauge("time.idle", stats.sim_idle_seconds, "s");
}

obs::Registry build_metrics(const RunResult& result) {
  obs::Registry reg;
  reg.set_gauge("sim.makespan", result.max_sim_time(), "s");
  register_comm_stats(reg, result.total_stats());
  // Message-size distribution over user p2p send events; phase timers from
  // the recorded phase spans (both empty unless record_trace was on).
  std::map<std::string_view, std::pair<double, std::uint64_t>> phases;
  for (const TraceEvent& e : result.trace) {
    if (e.cat == obs::Category::kP2P && e.seq_out != 0) {
      reg.observe("msg.bytes", static_cast<double>(e.bytes));
    }
    if (e.cat == obs::Category::kPhase) {
      auto& [seconds, calls] = phases[e.name];
      seconds += e.t_end - e.t_start;
      ++calls;
    }
  }
  for (const auto& [name, agg] : phases) {
    const std::string key = "phase." + std::string(name);
    reg.set_gauge(key + ".seconds", agg.first, "s");
    reg.set_counter(key + ".calls", agg.second);
  }
  return reg;
}

}  // namespace dipdc::minimpi
