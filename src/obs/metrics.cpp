#include "obs/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <sstream>

#include "support/format.hpp"

namespace dipdc::obs {

void Histogram::observe(double value) {
  if (count == 0) {
    min = max = value;
  } else {
    min = std::min(min, value);
    max = std::max(max, value);
  }
  ++count;
  sum += value;
  std::size_t bucket = 0;
  if (value >= 1.0) {
    const auto v = static_cast<std::uint64_t>(value);
    bucket = static_cast<std::size_t>(std::bit_width(v));
    bucket = std::min(bucket, kBuckets - 1);
  }
  ++buckets[bucket];
}

double Histogram::quantile(double q) const {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the target observation (1-based, nearest-rank rounded up).
  const auto target = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(count)));
  // The top rank is the observed maximum exactly (nearest-rank p100);
  // interpolation would report the middle of the max's bucket instead.
  if (target >= count) return max;
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    if (buckets[i] == 0) continue;
    if (seen + buckets[i] < std::max<std::uint64_t>(target, 1)) {
      seen += buckets[i];
      continue;
    }
    // Bucket bounds: bucket 0 is [<1], bucket i >= 1 is [2^(i-1), 2^i),
    // clamped into [min, max] so sparse tails do not overshoot.
    double lo = i == 0 ? 0.0 : std::ldexp(1.0, static_cast<int>(i) - 1);
    double hi = std::ldexp(1.0, static_cast<int>(i));
    lo = std::max(lo, min);
    hi = std::min(hi, max);
    if (hi < lo) return lo;
    const double within =
        (static_cast<double>(std::max<std::uint64_t>(target, 1) - seen) -
         0.5) /
        static_cast<double>(buckets[i]);
    return lo + (hi - lo) * std::clamp(within, 0.0, 1.0);
  }
  return max;
}

Registry::Entry& Registry::entry(std::string_view name, Type type) {
  for (Entry& e : entries_) {
    if (e.name == name) {
      e.type = type;
      return e;
    }
  }
  Entry& e = entries_.emplace_back();
  e.name = std::string(name);
  e.type = type;
  return e;
}

const Registry::Entry* Registry::find(std::string_view name,
                                      Type type) const {
  for (const Entry& e : entries_) {
    if (e.name == name && e.type == type) return &e;
  }
  return nullptr;
}

void Registry::set_counter(std::string_view name, std::uint64_t value,
                           Clock clock) {
  Entry& e = entry(name, Type::kCounter);
  e.value_u64 = value;
  e.clock = clock;
}

void Registry::add_counter(std::string_view name, std::uint64_t delta) {
  entry(name, Type::kCounter).value_u64 += delta;
}

void Registry::set_gauge(std::string_view name, double value,
                         std::string_view unit) {
  Entry& e = entry(name, Type::kGauge);
  e.value_f64 = value;
  e.unit = std::string(unit);
}

void Registry::observe(std::string_view name, double value) {
  entry(name, Type::kHistogram).hist.observe(value);
}

std::uint64_t Registry::counter(std::string_view name) const {
  const Entry* e = find(name, Type::kCounter);
  return e == nullptr ? 0 : e->value_u64;
}

double Registry::gauge(std::string_view name) const {
  const Entry* e = find(name, Type::kGauge);
  return e == nullptr ? 0.0 : e->value_f64;
}

const Histogram* Registry::histogram(std::string_view name) const {
  const Entry* e = find(name, Type::kHistogram);
  return e == nullptr ? nullptr : &e->hist;
}

std::string Registry::report() const {
  std::size_t name_width = 0;
  for (const Entry& e : entries_) {
    name_width = std::max(name_width, e.name.size());
  }
  std::ostringstream os;
  const auto print = [&](Clock clock) {
    for (const Entry& e : entries_) {
      if (e.clock != clock) continue;
      os << "  " << e.name
         << std::string(name_width - e.name.size() + 2, ' ');
      switch (e.type) {
        case Type::kCounter:
          os << support::count(e.value_u64);
          break;
        case Type::kGauge:
          os << support::fixed(e.value_f64, 6);
          if (!e.unit.empty()) os << " " << e.unit;
          break;
        case Type::kHistogram:
          os << "n=" << e.hist.count
             << " mean=" << support::fixed(e.hist.mean())
             << " min=" << support::fixed(e.hist.min)
             << " max=" << support::fixed(e.hist.max);
          break;
      }
      os << "\n";
    }
  };
  print(Clock::kDeterministic);
  if (std::ranges::any_of(entries_, [](const Entry& e) {
        return e.clock == Clock::kHostSchedule;
      })) {
    os << kHostScheduleLabel << "\n";
    print(Clock::kHostSchedule);
  }
  return os.str();
}

std::string Registry::to_csv() const {
  std::ostringstream os;
  os << "name,type,value,count,sum,min,max,clock\n";
  for (const Entry& e : entries_) {
    os << e.name << ",";
    switch (e.type) {
      case Type::kCounter:
        os << "counter," << e.value_u64 << ",,,,";
        break;
      case Type::kGauge:
        os << "gauge," << support::fixed(e.value_f64, 9) << ",,,,";
        break;
      case Type::kHistogram:
        os << "histogram,," << e.hist.count << ","
           << support::fixed(e.hist.sum, 9) << ","
           << support::fixed(e.hist.min, 9) << ","
           << support::fixed(e.hist.max, 9);
        break;
    }
    os << (e.clock == Clock::kHostSchedule ? ",host-schedule\n"
                                           : ",deterministic\n");
  }
  return os.str();
}

}  // namespace dipdc::obs
