#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "support/ascii_chart.hpp"
#include "support/error.hpp"
#include "support/format.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"

namespace support = dipdc::support;

TEST(Rng, DeterministicAcrossInstances) {
  support::Xoshiro256 a(1234);
  support::Xoshiro256 b(1234);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a(), b());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  support::Xoshiro256 a(1);
  support::Xoshiro256 b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_EQ(equal, 0);
}

TEST(Rng, UniformInUnitInterval) {
  support::Xoshiro256 g(42);
  for (int i = 0; i < 10000; ++i) {
    const double u = g.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespected) {
  support::Xoshiro256 g(42);
  for (int i = 0; i < 10000; ++i) {
    const double u = g.uniform(-3.0, 7.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 7.0);
  }
}

TEST(Rng, UniformMeanIsCentred) {
  support::Xoshiro256 g(7);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += g.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformIndexInBounds) {
  support::Xoshiro256 g(9);
  std::vector<int> histogram(10, 0);
  for (int i = 0; i < 100000; ++i) {
    const auto k = g.uniform_index(10);
    ASSERT_LT(k, 10u);
    ++histogram[static_cast<std::size_t>(k)];
  }
  // Every bucket hit roughly uniformly.
  for (const int count : histogram) {
    EXPECT_GT(count, 8000);
    EXPECT_LT(count, 12000);
  }
}

TEST(Rng, ExponentialMeanMatchesRate) {
  support::Xoshiro256 g(11);
  const double rate = 2.5;
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = g.exponential(rate);
    ASSERT_GE(x, 0.0);
    sum += x;
  }
  EXPECT_NEAR(sum / n, 1.0 / rate, 0.01);
}

TEST(Rng, NormalMoments) {
  support::Xoshiro256 g(13);
  double sum = 0.0, sumsq = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = g.normal();
    sum += x;
    sumsq += x * x;
  }
  const double mean = sum / n;
  const double var = sumsq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.03);
}

TEST(Rng, NormalScaled) {
  support::Xoshiro256 g(17);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += g.normal(10.0, 0.5);
  EXPECT_NEAR(sum / n, 10.0, 0.02);
}

TEST(Rng, MakeStreamProducesIndependentStreams) {
  auto a = support::make_stream(99, 0);
  auto b = support::make_stream(99, 1);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_EQ(equal, 0);
  // Same (seed, stream) is reproducible.
  auto a2 = support::make_stream(99, 0);
  EXPECT_EQ(support::make_stream(99, 0)(), a2());
}

TEST(Error, RequireThrowsWithContext) {
  try {
    DIPDC_REQUIRE(1 == 2, "math is broken");
    FAIL() << "should have thrown";
  } catch (const support::PreconditionError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("math is broken"), std::string::npos);
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
  }
}

TEST(Error, RequirePassesSilently) {
  EXPECT_NO_THROW(DIPDC_REQUIRE(true, "fine"));
}

TEST(Format, Fixed) {
  EXPECT_EQ(support::fixed(3.14159, 2), "3.14");
  EXPECT_EQ(support::fixed(2.0, 0), "2");
  EXPECT_EQ(support::fixed(-1.5, 1), "-1.5");
}

TEST(Format, Percent) {
  EXPECT_EQ(support::percent(0.4786), "47.86%");
  EXPECT_EQ(support::percent(1.0, 0), "100%");
}

TEST(Format, Bytes) {
  EXPECT_EQ(support::bytes(512), "512 B");
  EXPECT_EQ(support::bytes(1536), "1.50 KiB");
  EXPECT_EQ(support::bytes(3u * 1024 * 1024), "3.00 MiB");
}

TEST(Format, Seconds) {
  EXPECT_EQ(support::seconds(1.5), "1.500 s");
  EXPECT_EQ(support::seconds(0.0025), "2.500 ms");
  EXPECT_EQ(support::seconds(3e-6), "3.000 us");
  EXPECT_EQ(support::seconds(5e-9), "5.0 ns");
  EXPECT_EQ(support::seconds(0.0), "0 s");
}

TEST(Format, Count) {
  EXPECT_EQ(support::count(42), "42");
  EXPECT_EQ(support::count(999999), "999999");
  EXPECT_EQ(support::count(2000000), "2.00e+06");
}

TEST(Table, RendersHeaderAndCells) {
  support::Table t("My Table");
  t.set_header({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_rule();
  t.add_row({"beta", "22"});
  const std::string s = t.render();
  EXPECT_NE(s.find("My Table"), std::string::npos);
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("22"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, HandlesRaggedRows) {
  support::Table t;
  t.set_header({"a", "b", "c"});
  t.add_row({"only-one"});
  EXPECT_NO_THROW({ auto s = t.render(); (void)s; });
}

TEST(AsciiChart, BarChartScalesToMax) {
  const std::string s = support::bar_chart(
      {{"pre", 50.0, '#'}, {"post", 100.0, '='}}, 100.0, 20);
  // The 100-value bar is twice as long as the 50-value bar.
  EXPECT_NE(s.find(std::string(20, '=')), std::string::npos);
  EXPECT_NE(s.find(std::string(10, '#')), std::string::npos);
}

TEST(AsciiChart, LineChartContainsGlyphsAndLegend) {
  support::Series s1{"linear", {1, 2, 3, 4}, {1, 2, 3, 4}, '*'};
  support::Series s2{"flat", {1, 2, 3, 4}, {1, 1, 1, 1}, 'o'};
  const std::string s = support::line_chart({s1, s2}, 40, 10);
  EXPECT_NE(s.find('*'), std::string::npos);
  EXPECT_NE(s.find('o'), std::string::npos);
  EXPECT_NE(s.find("linear"), std::string::npos);
  EXPECT_NE(s.find("flat"), std::string::npos);
}

TEST(AsciiChart, EmptySeriesDoesNotCrash) {
  EXPECT_NO_THROW({ auto s = support::line_chart({}, 10, 5); (void)s; });
  EXPECT_NO_THROW({ auto s = support::bar_chart({}); (void)s; });
}

// ---- PageAllocator ---------------------------------------------------------

#include "support/page_allocator.hpp"

TEST(PageAllocator, VectorsBelowAndAboveTheThresholdStartZeroed) {
  using Vec = std::vector<double, support::PageAllocator<double>>;
  for (const std::size_t bytes :
       {std::size_t{4096}, support::kMappedBytes,
        3 * support::kMappedBytes + sizeof(double)}) {
    // The second vector of each size gets the block the first released,
    // which the first left full of non-zero values.
    for (int round = 0; round < 2; ++round) {
      Vec v(bytes / sizeof(double));
      EXPECT_TRUE(std::all_of(v.begin(), v.end(),
                              [](double x) { return x == 0.0; }))
          << bytes << " bytes, round " << round;
      for (std::size_t i = 0; i < v.size(); ++i) {
        v[i] = static_cast<double>(i) + 1.0;
      }
      EXPECT_EQ(v.back(), static_cast<double>(v.size()));
    }
  }
}

TEST(PageAllocator, ReleasedBlockIsReusedOnlyForItsOwnSize) {
  const std::size_t bytes = support::kMappedBytes + 7 * 4096;
  void* a = support::map_pages(bytes);
  support::unmap_pages(a, bytes);
  void* b = support::map_pages(bytes);
  EXPECT_EQ(a, b);
  void* other = support::map_pages(bytes + 4096);
  void* c = support::map_pages(bytes);  // nothing of this size kept now
  EXPECT_NE(c, b);
  EXPECT_NE(other, b);
  support::unmap_pages(c, bytes);
  support::unmap_pages(other, bytes + 4096);
  support::unmap_pages(b, bytes);
}

// ---- ArgParser -------------------------------------------------------------

#include "support/args.hpp"

namespace {

support::ArgParser parse(std::initializer_list<const char*> tokens) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), tokens.begin(), tokens.end());
  return {static_cast<int>(argv.size()), argv.data()};
}

}  // namespace

TEST(Args, CommandAndEqualsOptions) {
  const auto a = parse({"module3", "--ranks=8", "--policy=histogram"});
  EXPECT_EQ(a.command(), "module3");
  EXPECT_EQ(a.get_int("ranks", 0), 8);
  EXPECT_EQ(a.get("policy"), "histogram");
}

TEST(Args, SpaceSeparatedValues) {
  const auto a = parse({"run", "--n", "42", "--name", "alpha"});
  EXPECT_EQ(a.get_int("n", 0), 42);
  EXPECT_EQ(a.get("name"), "alpha");
}

TEST(Args, BareFlagsAreTrue) {
  const auto a = parse({"run", "--verbose", "--overlap"});
  EXPECT_TRUE(a.get_bool("verbose"));
  EXPECT_TRUE(a.get_bool("overlap"));
  EXPECT_FALSE(a.get_bool("missing", false));
  EXPECT_TRUE(a.get_bool("missing", true));
}

TEST(Args, BooleanSpellings) {
  const auto a = parse({"run", "--a=YES", "--b=0", "--c=off", "--d=True"});
  EXPECT_TRUE(a.get_bool("a"));
  EXPECT_FALSE(a.get_bool("b"));
  EXPECT_FALSE(a.get_bool("c"));
  EXPECT_TRUE(a.get_bool("d"));
}

TEST(Args, NumericErrorsThrow) {
  const auto a = parse({"run", "--n=abc", "--x=1.5"});
  EXPECT_THROW((void)a.get_int("n", 0), support::PreconditionError);
  EXPECT_DOUBLE_EQ(a.get_double("x", 0.0), 1.5);
  EXPECT_THROW((void)a.get_bool("x"), support::PreconditionError);
}

TEST(Args, PositionalsAfterCommand) {
  const auto a = parse({"cmd", "one", "--k=1", "two"});
  EXPECT_EQ(a.command(), "cmd");
  ASSERT_EQ(a.positionals().size(), 2u);
  EXPECT_EQ(a.positionals()[0], "one");
  EXPECT_EQ(a.positionals()[1], "two");
}

TEST(Args, UnusedReportsUnqueriedOptions) {
  const auto a = parse({"cmd", "--used=1", "--typo=2"});
  (void)a.get_int("used", 0);
  const auto u = a.unused();
  ASSERT_EQ(u.size(), 1u);
  EXPECT_EQ(u[0], "typo");
}

TEST(Args, MissingFallbacks) {
  const auto a = parse({"cmd"});
  EXPECT_FALSE(a.has("nope"));
  EXPECT_EQ(a.get("nope", "dflt"), "dflt");
  EXPECT_EQ(a.get_int("nope", 7), 7);
  EXPECT_DOUBLE_EQ(a.get_double("nope", 2.5), 2.5);
}

TEST(Args, TrailingGarbageRejected) {
  // Regression: std::stol("8x") silently parses as 8, hiding the typo.
  const auto a = parse({"run", "--ranks=8x", "--x=1.5e", "--y=2.0ms"});
  EXPECT_THROW((void)a.get_int("ranks", 0), support::PreconditionError);
  EXPECT_THROW((void)a.get_double("x", 0.0), support::PreconditionError);
  EXPECT_THROW((void)a.get_double("y", 0.0), support::PreconditionError);
}

TEST(Args, KeysListsEveryParsedOption) {
  const auto a = parse({"cmd", "--b=1", "--a", "--c=x"});
  const auto k = a.keys();
  ASSERT_EQ(k.size(), 3u);
  EXPECT_EQ(k[0], "a");  // sorted
  EXPECT_EQ(k[1], "b");
  EXPECT_EQ(k[2], "c");
}

TEST(Args, ClosestMatchSuggestsNearbySpellings) {
  const std::vector<std::string> known{"ranks", "nodes", "timeline"};
  EXPECT_EQ(support::closest_match("rnaks", known), "ranks");
  EXPECT_EQ(support::closest_match("timelin", known), "timeline");
  EXPECT_EQ(support::closest_match("zzzzzzzzzz", known), "");
}

TEST(Rng, UniformIndexEmptyRangeThrows) {
  // Regression: uniform_index(0) used to silently return 0, a valid-looking
  // index into an empty container.
  support::Xoshiro256 g(1);
  EXPECT_THROW((void)g.uniform_index(0), support::PreconditionError);
  EXPECT_EQ(g.uniform_index(1), 0u);
}
