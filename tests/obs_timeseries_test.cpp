// Unit tests for the sic::obs time-series registry: ring eviction and
// dropped accounting, name-ordered deterministic CSV/JSONL exports, and the
// thread-local attach point.

#include "obs/timeseries.hpp"

#include <string>

#include <gtest/gtest.h>

#include "obs/context.hpp"

namespace sic::obs {
namespace {

TEST(TimeSeries, RecordsPointsOldestFirst) {
  TimeSeries s{4};
  s.record(0, 1.0);
  s.record(1, 2.0);
  s.record(2, 3.0);
  ASSERT_EQ(s.size(), 3u);
  EXPECT_EQ(s.capacity(), 4u);
  EXPECT_EQ(s.dropped(), 0u);
  EXPECT_EQ(s.point(0).epoch, 0u);
  EXPECT_DOUBLE_EQ(s.point(0).value, 1.0);
  EXPECT_EQ(s.point(2).epoch, 2u);
  EXPECT_DOUBLE_EQ(s.point(2).value, 3.0);
}

TEST(TimeSeries, FullRingEvictsOldestAndCountsDrops) {
  TimeSeries s{3};
  for (std::uint64_t e = 0; e < 7; ++e) {
    s.record(e, static_cast<double>(e) * 10.0);
  }
  ASSERT_EQ(s.size(), 3u);
  EXPECT_EQ(s.dropped(), 4u);
  // The last three samples survive, oldest first.
  EXPECT_EQ(s.point(0).epoch, 4u);
  EXPECT_EQ(s.point(1).epoch, 5u);
  EXPECT_EQ(s.point(2).epoch, 6u);
  EXPECT_DOUBLE_EQ(s.point(2).value, 60.0);
}

TEST(TimeSeriesRegistry, SeriesHaveStableAddressesAndKeepCapacity) {
  TimeSeriesRegistry reg{8};
  TimeSeries& a = reg.series("a");
  EXPECT_EQ(a.capacity(), 8u);
  TimeSeries& b = reg.series("b", 2);
  EXPECT_EQ(b.capacity(), 2u);
  for (int i = 0; i < 50; ++i) {
    reg.series("s" + std::to_string(i));
  }
  EXPECT_EQ(&a, &reg.series("a"));
  // An existing series keeps its original capacity.
  EXPECT_EQ(reg.series("b", 64).capacity(), 2u);
  EXPECT_EQ(reg.n_series(), 52u);
}

TEST(TimeSeriesRegistry, CsvIsWideSortedAndBlankWhereAbsent) {
  TimeSeriesRegistry reg;
  reg.series("z.late").record(1, 2.5);
  reg.series("a.early").record(0, 1.0);
  reg.series("a.early").record(1, 1.5);
  const std::string csv = reg.csv();
  // Header name-ordered; row per distinct epoch; blank cell where a
  // series has no sample.
  EXPECT_EQ(csv,
            "epoch,a.early,z.late\n"
            "0,1,\n"
            "1,1.5,2.5\n");
}

TEST(TimeSeriesRegistry, CsvLastSampleWinsWithinAnEpoch) {
  TimeSeriesRegistry reg;
  reg.series("x").record(3, 1.0);
  reg.series("x").record(3, 9.0);
  EXPECT_EQ(reg.csv(), "epoch,x\n3,9\n");
}

TEST(TimeSeriesRegistry, JsonlIsNameOrderedWithDropCounts) {
  TimeSeriesRegistry reg;
  reg.series("b", 1).record(0, 1.0);
  reg.series("b", 1).record(1, 2.0);  // evicts epoch 0
  reg.series("a").record(5, 0.5);
  EXPECT_EQ(reg.jsonl(),
            "{\"series\":\"a\",\"dropped\":0,\"points\":[[5,0.5]]}\n"
            "{\"series\":\"b\",\"dropped\":1,\"points\":[[1,2]]}\n");
}

TEST(TimeSeriesRegistry, JsonObjectEmbedsAllSeries) {
  TimeSeriesRegistry reg;
  reg.series("one").record(0, 1.0);
  reg.series("two").record(2, 0.25);
  EXPECT_EQ(reg.json_object(),
            "{\"one\":[[0,1]],\"two\":[[2,0.25]]}");
}

TEST(TimeSeriesRegistry, ExportsAreByteIdenticalAcrossRuns) {
  const auto run = [] {
    TimeSeriesRegistry reg;
    reg.series("deploy.health").record(0, 0.1 + 0.2);  // round-trip format
    reg.series("deploy.health").record(1, 1.0 / 3.0);
    reg.series("deploy.offered").record(1, 32.0);
    return reg.csv() + "|" + reg.jsonl() + "|" + reg.json_object();
  };
  EXPECT_EQ(run(), run());
}

TEST(TimeSeriesGlobalAttachPoint, SetReturnsPrevious) {
  ASSERT_EQ(timeseries(), nullptr);
  TimeSeriesRegistry reg;
  {
    const Attach a{Context{.timeseries = &reg}};
    EXPECT_EQ(timeseries(), &reg);
  }
  EXPECT_EQ(timeseries(), nullptr);
}

}  // namespace
}  // namespace sic::obs
