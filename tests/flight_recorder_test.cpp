// Unit tests for the deployment flight recorder: event ring behavior,
// latching trip semantics, post-mortem windowing, config emission (numeric
// vs quoted), and byte-determinism of the document.

#include "obs/flight_recorder.hpp"

#include <string>

#include <gtest/gtest.h>

#include "obs/context.hpp"
#include "obs/timeseries.hpp"

namespace sic::obs {
namespace {

FlightEvent ev(std::uint64_t epoch, const char* kind, int ap = -1,
               int client = -1, std::string detail = {}) {
  FlightEvent e;
  e.epoch = epoch;
  e.ap = ap;
  e.client = client;
  e.kind = kind;
  e.detail = std::move(detail);
  return e;
}

TEST(FlightRecorder, RingEvictsOldestAndCountsDrops) {
  FlightRecorder fr{3};
  for (std::uint64_t e = 0; e < 5; ++e) {
    fr.record(ev(e, "chaos.outage"));
  }
  ASSERT_EQ(fr.size(), 3u);
  EXPECT_EQ(fr.capacity(), 3u);
  EXPECT_EQ(fr.events_dropped(), 2u);
  EXPECT_EQ(fr.event(0).epoch, 2u);
  EXPECT_EQ(fr.event(2).epoch, 4u);
}

TEST(FlightRecorder, TripLatchesAndReturnsTrueExactlyOnce) {
  FlightRecorder fr;
  EXPECT_FALSE(fr.tripped());
  EXPECT_TRUE(fr.trip("watchdog fire: ap 1", 7));
  // A cascading second fault must not win the latch: one trip, one
  // post-mortem, and the original reason survives.
  EXPECT_FALSE(fr.trip("invariant violation", 9));
  EXPECT_TRUE(fr.tripped());
  EXPECT_EQ(fr.trip_reason(), "watchdog fire: ap 1");
  EXPECT_EQ(fr.trip_epoch(), 7u);
}

TEST(FlightRecorder, PostmortemWindowsEventsAroundTripEpoch) {
  FlightRecorder fr;
  for (std::uint64_t e = 0; e < 30; ++e) {
    fr.record(ev(e, "handoff", /*ap=*/1, /*client=*/2, "from_ap=0"));
  }
  EXPECT_TRUE(fr.trip("watchdog fire: ap 1", 20));
  // window 4 anchored at 20 keeps epochs 17..20 only.
  const std::string pm = fr.postmortem_json(nullptr, /*window_epochs=*/4);
  EXPECT_EQ(pm.find("\"epoch\":16,"), std::string::npos);
  EXPECT_NE(pm.find("\"epoch\":17,"), std::string::npos);
  EXPECT_NE(pm.find("\"epoch\":20,"), std::string::npos);
  EXPECT_EQ(pm.find("\"epoch\":21,"), std::string::npos);
  EXPECT_NE(pm.find("\"reason\":\"watchdog fire: ap 1\""),
            std::string::npos);
  EXPECT_NE(pm.find("\"trip_epoch\":20"), std::string::npos);
}

TEST(FlightRecorder, UntrippedPostmortemAnchorsAtNewestEvent) {
  FlightRecorder fr;
  fr.record(ev(3, "associate", 0, 1));
  fr.record(ev(9, "ladder.down", 0, -1, "level=1"));
  const std::string pm = fr.postmortem_json(nullptr, 4);
  EXPECT_NE(pm.find("\"reason\":\"requested\""), std::string::npos);
  EXPECT_NE(pm.find("\"trip_epoch\":9"), std::string::npos);
  // Epoch 3 is outside the 4-epoch window [6, 9].
  EXPECT_EQ(pm.find("\"kind\":\"associate\""), std::string::npos);
  EXPECT_NE(pm.find("\"kind\":\"ladder.down\""), std::string::npos);
}

TEST(FlightRecorder, ConfigEmitsNumbersUnquotedAndStringsQuoted) {
  FlightRecorder fr;
  fr.set_config("seed", "42");
  fr.set_config("drift_sigma_db", "2.5");
  fr.set_config("chaos_profile", "outage");
  fr.set_config("seed", "7");  // last write per key wins
  const std::string pm = fr.postmortem_json(nullptr);
  EXPECT_NE(pm.find("\"chaos_profile\":\"outage\""), std::string::npos);
  EXPECT_NE(pm.find("\"drift_sigma_db\":2.5"), std::string::npos);
  EXPECT_NE(pm.find("\"seed\":7"), std::string::npos);
  EXPECT_EQ(pm.find("\"seed\":42"), std::string::npos);
}

TEST(FlightRecorder, PostmortemEmbedsTimeSeries) {
  FlightRecorder fr;
  fr.record(ev(0, "associate", 0, 0));
  TimeSeriesRegistry series;
  series.series("deploy.mean_health").record(0, 0.75);
  const std::string pm = fr.postmortem_json(&series);
  EXPECT_NE(pm.find("\"timeseries\":{\"deploy.mean_health\":[[0,0.75]]}"),
            std::string::npos);
  // Null registry degrades to an empty object, not a crash.
  EXPECT_NE(fr.postmortem_json(nullptr).find("\"timeseries\":{}"),
            std::string::npos);
}

TEST(FlightRecorder, PostmortemIsByteDeterministic) {
  const auto build = [] {
    FlightRecorder fr;
    fr.set_config("aps", "3");
    fr.record(ev(0, "chaos.outage", 2, -1, "down_for=3"));
    fr.record(ev(1, "handoff", 1, 4, "from_ap=2"));
    EXPECT_TRUE(fr.trip("watchdog fire: ap 2", 1));
    TimeSeriesRegistry series;
    series.series("deploy.confirmation_rate").record(0, 1.0 / 3.0);
    return fr.postmortem_json(&series);
  };
  EXPECT_EQ(build(), build());
}

TEST(FlightGlobalAttachPoint, SetReturnsPrevious) {
  ASSERT_EQ(flight(), nullptr);
  FlightRecorder fr;
  {
    const Attach a{Context{.flight = &fr}};
    EXPECT_EQ(flight(), &fr);
  }
  EXPECT_EQ(flight(), nullptr);
}

}  // namespace
}  // namespace sic::obs
