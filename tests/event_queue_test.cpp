#include "mac/event_queue.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <vector>

namespace sic::mac {
namespace {

TEST(EventQueue, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(30, [&] { order.push_back(3); });
  q.schedule_at(10, [&] { order.push_back(1); });
  q.schedule_at(20, [&] { order.push_back(2); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), 30);
}

TEST(EventQueue, FifoAtEqualTimestamps) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.schedule_at(100, [&order, i] { order.push_back(i); });
  }
  q.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, ScheduleAfterUsesNow) {
  EventQueue q;
  SimTime seen = -1;
  q.schedule_at(50, [&] {
    q.schedule_after(25, [&] { seen = q.now(); });
  });
  q.run();
  EXPECT_EQ(seen, 75);
}

TEST(EventQueue, RunUntilLeavesLaterEvents) {
  EventQueue q;
  int fired = 0;
  q.schedule_at(10, [&] { ++fired; });
  q.schedule_at(100, [&] { ++fired; });
  q.run_until(50);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(q.pending(), 1u);
  q.run();
  EXPECT_EQ(fired, 2);
}

TEST(EventQueue, SchedulingIntoThePastRejected) {
  EventQueue q;
  q.schedule_at(10, [] {});
  q.run();
  EXPECT_THROW(q.schedule_at(5, [] {}), std::logic_error);
}

TEST(EventQueue, EventsCanCascade) {
  EventQueue q;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 10) q.schedule_after(1, recurse);
  };
  q.schedule_at(0, recurse);
  q.run();
  EXPECT_EQ(depth, 10);
  EXPECT_EQ(q.now(), 9);
}

TEST(EventQueue, LargeCaptureRunsExactlyOnceInOrder) {
  // Captures past std::function's small buffer (two pointers) used to
  // heap-allocate; the queue now stores them inline and moves each event
  // off the heap before running it. Every callback must still run exactly
  // once, in (time, seq) order, including ones scheduled from a callback.
  EventQueue q;
  std::vector<std::uint64_t> order;
  std::vector<int> runs(6, 0);
  const auto schedule = [&](SimTime at, int id) {
    const std::uint64_t a = 10U * static_cast<std::uint64_t>(id);
    const std::uint64_t b = a + 1;
    const std::uint64_t c = a + 2;
    q.schedule_at(at, [&order, &runs, id, a, b, c] {
      ++runs[static_cast<std::size_t>(id)];
      order.push_back(a + b + c);
    });
  };
  schedule(20, 0);
  schedule(10, 1);
  schedule(20, 2);
  q.schedule_at(10, [&] {
    schedule(10, 3);  // same time, later seq: after id 1
    schedule(15, 4);
  });
  schedule(5, 5);
  q.run();
  EXPECT_EQ(runs, (std::vector<int>{1, 1, 1, 1, 1, 1}));
  // ids in run order: 5 (t=5), 1 (t=10), the spawner, 3 (t=10), 4 (t=15),
  // 0 then 2 (t=20, FIFO).
  EXPECT_EQ(order, (std::vector<std::uint64_t>{153, 33, 93, 123, 3, 63}));
  EXPECT_EQ(q.now(), 20);
}

TEST(EventQueue, ResetDropsPendingEventsAndRewindsClock) {
  EventQueue q;
  int fired = 0;
  q.schedule_at(10, [&] { ++fired; });
  q.schedule_at(100, [&] { ++fired; });
  q.run_until(50);
  q.reset();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.now(), 0);
  q.schedule_at(5, [&] { fired += 10; });
  q.run();
  EXPECT_EQ(fired, 11);
}

TEST(SimTimeHelpers, Conversions) {
  EXPECT_EQ(from_seconds(1.5), 1'500'000'000);
  EXPECT_DOUBLE_EQ(to_seconds(2'000'000'000), 2.0);
  EXPECT_EQ(from_micros(9.0), 9'000);
}

}  // namespace
}  // namespace sic::mac
