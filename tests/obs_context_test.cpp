/// The one obs attach point: Attach installs and restores a whole
/// per-thread context, and observed_parallel_for gives every chunk only a
/// scratch registry of its own, folded back in chunk order.

#include "obs/context.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace_sink.hpp"

namespace sic::obs {
namespace {

constexpr int kThreadCounts[] = {1, 4, 7};

/// Caller-side sinks for one test: one of each slot.
struct Sinks {
  std::ostringstream trace_os;
  MetricsRegistry metrics;
  TraceSink trace{trace_os};
  TimeSeriesRegistry timeseries;
  FlightRecorder flight;

  [[nodiscard]] Context context() {
    return Context{&metrics, &trace, &timeseries, &flight};
  }
};

TEST(ObsContext, AttachInstallsEverySlotAndRestoresThePrevious) {
  ASSERT_EQ(context(), Context{});
  Sinks outer;
  Sinks inner;
  {
    const Attach a{outer.context()};
    EXPECT_EQ(metrics(), &outer.metrics);
    EXPECT_EQ(trace(), &outer.trace);
    EXPECT_EQ(timeseries(), &outer.timeseries);
    EXPECT_EQ(flight(), &outer.flight);
    {
      const Attach b{Context{.trace = &inner.trace}};
      EXPECT_EQ(metrics(), nullptr);
      EXPECT_EQ(trace(), &inner.trace);
      EXPECT_EQ(timeseries(), nullptr);
      EXPECT_EQ(flight(), nullptr);
    }
    EXPECT_EQ(context(), outer.context());
  }
  EXPECT_EQ(context(), Context{});
}

TEST(ObsContext, AttachRestoresThePreviousContextOnException) {
  Sinks outer;
  Sinks inner;
  const Attach a{outer.context()};
  EXPECT_THROW(
      {
        const Attach b{inner.context()};
        EXPECT_EQ(metrics(), &inner.metrics);
        throw std::runtime_error("chunk failed");
      },
      std::runtime_error);
  EXPECT_EQ(context(), outer.context());
}

TEST(ObsContext, ChunksSeeOnlyTheirScratchRegistryOnEveryThread) {
  constexpr std::int64_t kN = 60;
  constexpr std::int64_t kChunk = 4;
  for (const int threads : kThreadCounts) {
    ThreadPool pool{threads};
    Sinks caller;
    const Attach attach{caller.context()};
    std::mutex mu;
    std::vector<Context> seen;
    observed_parallel_for(pool, kN, kChunk,
                          [&](std::int64_t begin, std::int64_t end) {
                            metrics()->counter("chunks").inc();
                            metrics()->counter("items").inc(
                                static_cast<std::uint64_t>(end - begin));
                            const std::lock_guard<std::mutex> lock{mu};
                            seen.push_back(context());
                          });
    ASSERT_EQ(seen.size(), static_cast<std::size_t>(kN / kChunk));
    std::set<MetricsRegistry*> scratch;
    for (const Context& c : seen) {
      ASSERT_NE(c.metrics, nullptr) << threads << " threads";
      EXPECT_NE(c.metrics, &caller.metrics);
      EXPECT_EQ(c.trace, nullptr);
      EXPECT_EQ(c.timeseries, nullptr);
      EXPECT_EQ(c.flight, nullptr);
      scratch.insert(c.metrics);
    }
    EXPECT_EQ(scratch.size(), seen.size()) << "one registry per chunk";
    EXPECT_EQ(context(), caller.context()) << "caller context restored";
    EXPECT_EQ(caller.trace.events_written(), 0u);
    EXPECT_EQ(caller.timeseries.n_series(), 0u);
    EXPECT_EQ(caller.flight.size(), 0u);
    EXPECT_EQ(caller.metrics.counter("chunks").value(),
              static_cast<std::uint64_t>(kN / kChunk));
    EXPECT_EQ(caller.metrics.counter("items").value(),
              static_cast<std::uint64_t>(kN));
  }
}

TEST(ObsContext, ChunkOrderFoldIsByteIdenticalAcrossThreadCounts) {
  // Floating-point histogram sums depend on the fold order; observing
  // chunk-dependent values makes any order but chunk order show.
  const auto snapshot = [](int threads) {
    ThreadPool pool{threads};
    MetricsRegistry reg;
    reg.histogram("value").observe(0.3);
    const Attach attach{{.metrics = &reg}};
    observed_parallel_for(pool, 997, 7,
                          [](std::int64_t begin, std::int64_t end) {
                            for (std::int64_t i = begin; i < end; ++i) {
                              metrics()->histogram("value").observe(
                                  1.0 / static_cast<double>(3 * i + 1));
                            }
                            metrics()->gauge("last").set(
                                static_cast<double>(begin),
                                static_cast<std::uint64_t>(begin));
                          });
    return reg.json_snapshot();
  };
  const std::string one = snapshot(1);
  EXPECT_NE(one.find("\"value\":{\"count\":998"), std::string::npos) << one;
  for (const int threads : kThreadCounts) {
    EXPECT_EQ(snapshot(threads), one) << threads << " threads";
  }
}

TEST(ObsContext, DetachedCallerCreatesNoRegistry) {
  for (const int threads : kThreadCounts) {
    ThreadPool pool{threads};
    std::mutex mu;
    std::vector<Context> seen;
    const auto record = [&](std::int64_t, std::int64_t) {
      const std::lock_guard<std::mutex> lock{mu};
      seen.push_back(context());
    };
    observed_parallel_for(pool, 40, 3, record);
    // A trace-only caller has no registry to fold into: its chunks run
    // with an empty context too, so they neither trace nor publish.
    Sinks caller;
    {
      const Attach attach{{.trace = &caller.trace}};
      observed_parallel_for(pool, 40, 3, record);
    }
    ASSERT_EQ(seen.size(), 28u);
    for (const Context& c : seen) EXPECT_EQ(c, Context{});
    EXPECT_EQ(caller.trace.events_written(), 0u);
  }
}

}  // namespace
}  // namespace sic::obs
