#include <gtest/gtest.h>

#include "util/env.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/timeseries.h"
#include "util/units.h"

namespace lgsim {
namespace {

TEST(Units, SerializationTime) {
  // 1538 B on wire at 100G = 123.04 ns -> rounded up to 124.
  EXPECT_EQ(serialization_time(kMtuFrameOnWire, gbps(100)), 124);
  // At 25G: 492.16 -> 493.
  EXPECT_EQ(serialization_time(kMtuFrameOnWire, gbps(25)), 493);
  // At 10G: 1230.4 -> 1231.
  EXPECT_EQ(serialization_time(kMtuFrameOnWire, gbps(10)), 1231);
  // 64 B + 20 B overhead at 100G = 6.72 -> 7.
  EXPECT_EQ(serialization_time(84, gbps(100)), 7);
}

TEST(Units, TimeConversions) {
  EXPECT_EQ(usec(7), 7'000);
  EXPECT_EQ(msec(1), 1'000'000);
  EXPECT_EQ(sec(2), 2'000'000'000);
  EXPECT_DOUBLE_EQ(to_usec(7'500), 7.5);
  EXPECT_DOUBLE_EQ(to_sec(sec(3)), 3.0);
}

TEST(Units, BytesInTime) {
  // 100G for 1 us = 12500 bytes.
  EXPECT_EQ(bytes_in_time(usec(1), gbps(100)), 12'500);
  EXPECT_EQ(bytes_in_time(usec(1), gbps(25)), 3'125);
}

TEST(RunningStats, Basic) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0);
  s.add(2.0);
  s.add(4.0);
  s.add(6.0);
  EXPECT_EQ(s.count(), 3);
  EXPECT_DOUBLE_EQ(s.mean(), 4.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 6.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);
}

TEST(RunningStats, SingleSampleHasZeroVariance) {
  RunningStats s;
  s.add(42.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(PercentileTracker, PercentilesInterpolate) {
  PercentileTracker t;
  for (int i = 1; i <= 100; ++i) t.add(i);
  EXPECT_DOUBLE_EQ(t.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(t.percentile(100), 100.0);
  EXPECT_NEAR(t.percentile(50), 50.5, 1e-9);
  EXPECT_NEAR(t.percentile(99), 99.01, 1e-9);
  EXPECT_DOUBLE_EQ(t.min(), 1.0);
  EXPECT_DOUBLE_EQ(t.max(), 100.0);
}

TEST(PercentileTracker, CdfAt) {
  PercentileTracker t;
  for (int i = 1; i <= 10; ++i) t.add(i);
  EXPECT_DOUBLE_EQ(t.cdf_at(5.0), 0.5);
  EXPECT_DOUBLE_EQ(t.cdf_at(0.0), 0.0);
  EXPECT_DOUBLE_EQ(t.cdf_at(10.0), 1.0);
}

TEST(PercentileTracker, EmptyIsSafe) {
  PercentileTracker t;
  EXPECT_TRUE(t.empty());
  EXPECT_DOUBLE_EQ(t.percentile(99), 0.0);
  EXPECT_DOUBLE_EQ(t.mean(), 0.0);
}

TEST(PercentileTracker, AddAfterQueryResorts) {
  PercentileTracker t;
  t.add(10.0);
  EXPECT_DOUBLE_EQ(t.percentile(50), 10.0);
  t.add(0.0);
  EXPECT_DOUBLE_EQ(t.percentile(0), 0.0);
  EXPECT_DOUBLE_EQ(t.percentile(100), 10.0);
}

TEST(CountHistogram, BasicCounts) {
  CountHistogram h;
  h.add(1);
  h.add(1);
  h.add(3);
  EXPECT_EQ(h.total(), 3);
  EXPECT_EQ(h.count_at(1), 2);
  EXPECT_EQ(h.count_at(2), 0);
  EXPECT_EQ(h.count_at(3), 1);
  EXPECT_EQ(h.max_value(), 3);
  EXPECT_DOUBLE_EQ(h.cdf_at(1), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(h.cdf_at(3), 1.0);
}

TEST(TimeSeries, WindowQueries) {
  TimeSeries ts;
  ts.record(10, 1.0);
  ts.record(20, 3.0);
  ts.record(30, 5.0);
  EXPECT_DOUBLE_EQ(ts.mean_in(0, 25), 2.0);
  EXPECT_DOUBLE_EQ(ts.mean_in(100, 200), 0.0);
}

TEST(EnvParse, PositiveDoubleAcceptsNormalValues) {
  EXPECT_DOUBLE_EQ(parse_positive_double("0.1", 1.0), 0.1);
  EXPECT_DOUBLE_EQ(parse_positive_double("10", 1.0), 10.0);
  EXPECT_DOUBLE_EQ(parse_positive_double("2.5e-1", 1.0), 0.25);
  EXPECT_DOUBLE_EQ(parse_positive_double("3 ", 1.0), 3.0);  // trailing space ok
}

TEST(EnvParse, PositiveDoubleRejectsNanAndInf) {
  // std::atof would let these straight into loop bounds (LGSIM_BENCH_SCALE);
  // the parser must fall back instead.
  EXPECT_DOUBLE_EQ(parse_positive_double("nan", 1.0), 1.0);
  EXPECT_DOUBLE_EQ(parse_positive_double("NaN", 1.0), 1.0);
  EXPECT_DOUBLE_EQ(parse_positive_double("inf", 1.0), 1.0);
  EXPECT_DOUBLE_EQ(parse_positive_double("-inf", 1.0), 1.0);
  EXPECT_DOUBLE_EQ(parse_positive_double("Infinity", 1.0), 1.0);
  EXPECT_DOUBLE_EQ(parse_positive_double("1e999", 1.0), 1.0);  // overflows to inf
}

TEST(EnvParse, PositiveDoubleRejectsGarbageZeroAndNegative) {
  EXPECT_DOUBLE_EQ(parse_positive_double(nullptr, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(parse_positive_double("", 1.0), 1.0);
  EXPECT_DOUBLE_EQ(parse_positive_double("fast", 1.0), 1.0);
  EXPECT_DOUBLE_EQ(parse_positive_double("0", 1.0), 1.0);
  EXPECT_DOUBLE_EQ(parse_positive_double("-2", 1.0), 1.0);
  EXPECT_DOUBLE_EQ(parse_positive_double("1.5x", 1.0), 1.0);  // trailing junk
}

TEST(EnvParse, PositiveCount) {
  EXPECT_EQ(parse_positive_count("8", 4), 8u);
  EXPECT_EQ(parse_positive_count("1", 4), 1u);
  EXPECT_EQ(parse_positive_count(nullptr, 4), 4u);
  EXPECT_EQ(parse_positive_count("0", 4), 4u);
  EXPECT_EQ(parse_positive_count("-3", 4), 4u);
  EXPECT_EQ(parse_positive_count("many", 4), 4u);
  EXPECT_EQ(parse_positive_count("7.5", 4), 4u);      // trailing junk
  EXPECT_EQ(parse_positive_count("999999", 4), 1024u);  // capped
}

TEST(PercentileTracker, MergeIsOrderIndependent) {
  PercentileTracker all, a, b;
  for (int i = 1; i <= 100; ++i) {
    all.add(i);
    (i % 3 == 0 ? a : b).add(i);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  for (double p : {0.0, 50.0, 99.0, 100.0}) {
    EXPECT_DOUBLE_EQ(a.percentile(p), all.percentile(p));
  }
  EXPECT_DOUBLE_EQ(a.cdf_at(50.0), all.cdf_at(50.0));
}

TEST(PercentileTracker, MergeAfterQueryResorts) {
  PercentileTracker a, b;
  a.add(5.0);
  EXPECT_DOUBLE_EQ(a.percentile(50), 5.0);  // forces sort
  b.add(1.0);
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(a.percentile(100), 5.0);
}

TEST(CountHistogram, MergeSumsBins) {
  CountHistogram a, b;
  a.add(1);
  a.add(3);
  b.add(3);
  b.add(7, 2);
  a.merge(b);
  EXPECT_EQ(a.total(), 5);
  EXPECT_EQ(a.count_at(1), 1);
  EXPECT_EQ(a.count_at(3), 2);
  EXPECT_EQ(a.count_at(7), 2);
  EXPECT_EQ(a.max_value(), 7);
  // Merging the longer histogram into the shorter grew the bins; the other
  // direction must give the same result.
  CountHistogram c, d;
  c.add(7, 2);
  d.add(1);
  c.merge(d);
  EXPECT_EQ(c.total(), 3);
  EXPECT_EQ(c.count_at(1), 1);
  EXPECT_EQ(c.max_value(), 7);
}

TEST(TablePrinter, FormatsNumbers) {
  EXPECT_EQ(TablePrinter::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::sci(0.00123, 1), "1.2e-03");
}

}  // namespace
}  // namespace lgsim
