// The metrics registry: counters, gauges, histograms, reports and CSV.
#include <gtest/gtest.h>

#include <string>

#include "obs/metrics.hpp"

namespace obs = dipdc::obs;

TEST(Histogram, BucketsByPowerOfTwo) {
  obs::Histogram h;
  h.observe(0.0);    // bucket 0
  h.observe(0.5);    // bucket 0
  h.observe(1.0);    // bucket 1: [1, 2)
  h.observe(3.0);    // bucket 2: [2, 4)
  h.observe(1024.0); // bucket 11: [1024, 2048)
  EXPECT_EQ(h.count, 5u);
  EXPECT_EQ(h.buckets[0], 2u);
  EXPECT_EQ(h.buckets[1], 1u);
  EXPECT_EQ(h.buckets[2], 1u);
  EXPECT_EQ(h.buckets[11], 1u);
  EXPECT_DOUBLE_EQ(h.min, 0.0);
  EXPECT_DOUBLE_EQ(h.max, 1024.0);
  EXPECT_DOUBLE_EQ(h.mean(), (0.5 + 1.0 + 3.0 + 1024.0) / 5.0);
}

TEST(Histogram, EmptyMeanIsZero) {
  const obs::Histogram h;
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(Registry, CountersSetAndAdd) {
  obs::Registry reg;
  reg.set_counter("a", 3);
  reg.add_counter("a", 2);
  reg.add_counter("b", 7);
  EXPECT_EQ(reg.counter("a"), 5u);
  EXPECT_EQ(reg.counter("b"), 7u);
  EXPECT_EQ(reg.counter("missing"), 0u);
}

TEST(Registry, GaugesAndHistograms) {
  obs::Registry reg;
  reg.set_gauge("t", 1.5, "s");
  reg.set_gauge("t", 2.5, "s");  // re-register updates in place
  EXPECT_DOUBLE_EQ(reg.gauge("t"), 2.5);
  reg.observe("sizes", 8.0);
  reg.observe("sizes", 24.0);
  const obs::Histogram* h = reg.histogram("sizes");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 2u);
  EXPECT_DOUBLE_EQ(h->sum, 32.0);
  EXPECT_EQ(reg.histogram("missing"), nullptr);
}

TEST(Registry, TypeMismatchIsInvisible) {
  obs::Registry reg;
  reg.set_counter("x", 1);
  EXPECT_DOUBLE_EQ(reg.gauge("x"), 0.0);
  EXPECT_EQ(reg.histogram("x"), nullptr);
}

TEST(Registry, ReportKeepsInsertionOrder) {
  obs::Registry reg;
  reg.set_counter("zeta", 1);
  reg.set_gauge("alpha", 2.0, "s");
  const std::string report = reg.report();
  EXPECT_LT(report.find("zeta"), report.find("alpha"));
}

TEST(Registry, CsvHasHeaderAndOneRowPerEntry) {
  obs::Registry reg;
  reg.set_counter("c", 9);
  reg.set_gauge("g", 0.25);
  reg.observe("h", 100.0);
  reg.set_counter("w", 4, obs::Clock::kHostSchedule);
  const std::string csv = reg.to_csv();
  EXPECT_EQ(csv.rfind("name,type,value,count,sum,min,max,clock\n", 0), 0u);
  EXPECT_NE(csv.find("c,counter,9,,,,,deterministic\n"), std::string::npos);
  EXPECT_NE(csv.find("g,gauge,"), std::string::npos);
  EXPECT_NE(csv.find("h,histogram,"), std::string::npos);
  EXPECT_NE(csv.find("w,counter,4,,,,,host-schedule\n"), std::string::npos);
}

TEST(Registry, HostScheduleEntriesFollowTheLabel) {
  // Two runs of one program may differ only in host-schedule counters;
  // their reports must agree byte for byte up to the label line, which
  // appears once, after every deterministic entry.
  const auto make = [](std::uint64_t hits) {
    obs::Registry reg;
    reg.set_counter("calls.send", 12);
    reg.set_counter("pool.hits", hits, obs::Clock::kHostSchedule);
    reg.set_gauge("time.comm", 0.5, "s");
    reg.observe("msg.bytes", 64.0);
    return reg.report();
  };
  const std::string a = make(81);
  const std::string b = make(80);
  ASSERT_NE(a, b);
  const std::size_t label = a.find(obs::kHostScheduleLabel);
  ASSERT_NE(label, std::string::npos) << a;
  EXPECT_EQ(a.rfind(obs::kHostScheduleLabel), label) << "label appears once";
  EXPECT_EQ(a.substr(0, label), b.substr(0, label));
  EXPECT_LT(a.find("time.comm"), label);
  EXPECT_LT(a.find("msg.bytes"), label);
  EXPECT_GT(a.find("pool.hits"), label);

  obs::Registry deterministic_only;
  deterministic_only.set_counter("calls.send", 12);
  EXPECT_EQ(deterministic_only.report().find(obs::kHostScheduleLabel),
            std::string::npos);
}

TEST(Histogram, QuantileEmptyAndSingle) {
  obs::Histogram h;
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
  h.observe(100.0);
  // One observation: every quantile is clamped into [min, max] = [100].
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 100.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 100.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 100.0);
}

TEST(Histogram, QuantileOrderedAndBounded) {
  obs::Histogram h;
  for (int i = 1; i <= 1000; ++i) h.observe(static_cast<double>(i));
  // Quantiles are monotone and stay inside the observed range.
  double prev = h.quantile(0.0);
  for (double q = 0.1; q <= 1.0; q += 0.1) {
    const double v = h.quantile(q);
    EXPECT_GE(v, prev);
    EXPECT_GE(v, h.min);
    EXPECT_LE(v, h.max);
    prev = v;
  }
  // Log2 buckets bound the estimate by a factor of 2: the true p50 of
  // 1..1000 is 500, whose bucket is [256, 512).
  EXPECT_GE(h.quantile(0.5), 256.0);
  EXPECT_LE(h.quantile(0.5), 512.0);
  // p99 = 990 lives in [512, 1000] after the max clamp.
  EXPECT_GE(h.quantile(0.99), 512.0);
  EXPECT_LE(h.quantile(0.99), 1000.0);
}

TEST(Histogram, QuantileSkewedTail) {
  // 99 fast observations and one huge outlier: p50 stays in the fast
  // bucket, p100 is exactly the outlier.
  obs::Histogram h;
  for (int i = 0; i < 99; ++i) h.observe(2.5);
  h.observe(1e6);
  EXPECT_GE(h.quantile(0.5), 2.0);
  EXPECT_LE(h.quantile(0.5), 4.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 1e6);
}

TEST(Histogram, QuantileSubUnitBucket) {
  obs::Histogram h;
  h.observe(0.25);
  h.observe(0.5);
  h.observe(0.75);
  // All three live in bucket 0 (< 1); clamping keeps the estimate inside
  // [0.25, 0.75].
  EXPECT_GE(h.quantile(0.5), 0.25);
  EXPECT_LE(h.quantile(0.5), 0.75);
}
