// Metrics registry: named counters, gauges and log2-bucketed histograms
// behind one report.  minimpi registers its CommStats, fault-injection and
// per-phase timers here (see minimpi/stats.hpp build_metrics), so every
// subsystem's numbers come out of a single `report()` / `to_csv()` instead
// of scattered ad-hoc printers.
//
// Entries keep insertion order (reports are meant to be read top-to-bottom
// and diffed), and re-registering a name updates the existing entry.
//
// Every entry has a clock class.  A deterministic entry is the same on
// every run of one program; a host-schedule entry depends on which rank
// thread the host scheduled first (payload pool reuse, rendezvous stalls,
// wake-ups).  report() prints the host-schedule entries last, after one
// line starting with kHostScheduleLabel, so everything above that line can
// be compared byte for byte across runs.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace dipdc::obs {

/// Starts the line after which a report lists only values that vary from
/// run to run with host thread scheduling.
inline constexpr const char* kHostScheduleLabel =
    "host schedule (varies run to run):";

/// Clock class of a registry entry (see the file comment).
enum class Clock : std::uint8_t { kDeterministic, kHostSchedule };

/// Power-of-two bucketed distribution.  Bucket 0 holds values < 1 (and
/// everything non-positive); bucket i >= 1 holds [2^(i-1), 2^i).
struct Histogram {
  static constexpr std::size_t kBuckets = 64;

  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  std::array<std::uint64_t, kBuckets> buckets{};

  void observe(double value);
  [[nodiscard]] double mean() const {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }

  /// Value at quantile q in [0, 1] estimated from the log2 buckets:
  /// the target rank is located in its bucket and interpolated linearly
  /// between the bucket's bounds [2^(i-1), 2^i) — module 4's serving
  /// report reads its p50/p99 latencies out of this.  The first and
  /// last populated buckets are clamped to the observed min/max so the
  /// estimate never leaves the data's range; the top rank (q = 1, or any
  /// q reaching the last observation) returns the observed max exactly.
  /// Returns 0 when empty.
  [[nodiscard]] double quantile(double q) const;
};

class Registry {
 public:
  /// Sets (creating if needed) an integer counter of the given class.
  void set_counter(std::string_view name, std::uint64_t value,
                   Clock clock = Clock::kDeterministic);
  /// Adds to an integer counter, creating it at zero first.
  void add_counter(std::string_view name, std::uint64_t delta);
  /// Sets (creating if needed) a floating-point gauge; `unit` is a display
  /// suffix ("s", "B/s", ...).
  void set_gauge(std::string_view name, double value,
                 std::string_view unit = "");
  /// Records one observation into a histogram, creating it if needed.
  void observe(std::string_view name, double value);

  /// Counter value; 0 when absent.
  [[nodiscard]] std::uint64_t counter(std::string_view name) const;
  /// Gauge value; 0.0 when absent.
  [[nodiscard]] double gauge(std::string_view name) const;
  /// Histogram by name; nullptr when absent.
  [[nodiscard]] const Histogram* histogram(std::string_view name) const;

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] bool empty() const { return entries_.empty(); }

  /// Aligned human-readable report, one entry per line, insertion order
  /// within each class: deterministic entries, then (if any) the
  /// kHostScheduleLabel line and the host-schedule entries.
  [[nodiscard]] std::string report() const;

  /// CSV dump: `name,type,value,count,sum,min,max,clock` in insertion order
  /// (value is the counter or gauge; histogram rows fill the statistical
  /// columns instead; clock is `deterministic` or `host-schedule`).
  [[nodiscard]] std::string to_csv() const;

 private:
  enum class Type : std::uint8_t { kCounter, kGauge, kHistogram };

  struct Entry {
    std::string name;
    Type type = Type::kCounter;
    std::uint64_t value_u64 = 0;
    double value_f64 = 0.0;
    std::string unit;
    Histogram hist;
    Clock clock = Clock::kDeterministic;
  };

  Entry& entry(std::string_view name, Type type);
  [[nodiscard]] const Entry* find(std::string_view name, Type type) const;

  std::vector<Entry> entries_;
};

}  // namespace dipdc::obs
