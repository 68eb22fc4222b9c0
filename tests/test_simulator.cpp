#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace bansim::sim {
namespace {

using namespace bansim::sim::literals;

TEST(Simulator, ClockStartsAtZero) {
  Simulator s;
  EXPECT_EQ(s.now(), TimePoint::zero());
  EXPECT_EQ(s.events_executed(), 0u);
}

TEST(Simulator, ExecutesAtScheduledTime) {
  Simulator s;
  TimePoint observed;
  s.schedule_in(5_ms, [&] { observed = s.now(); });
  s.run();
  EXPECT_EQ(observed, TimePoint::zero() + 5_ms);
  EXPECT_EQ(s.now(), TimePoint::zero() + 5_ms);
}

TEST(Simulator, RunUntilStopsClockAtHorizon) {
  Simulator s;
  bool late_ran = false;
  TimePoint fired_at;
  // The only pending event: the queue holds it in its front register.
  s.schedule_in(10_ms, [&] {
    late_ran = true;
    fired_at = s.now();
  });
  s.run_until(TimePoint::zero() + 4_ms);
  EXPECT_FALSE(late_ran);
  EXPECT_EQ(s.now(), TimePoint::zero() + 4_ms);
  EXPECT_EQ(s.events_pending(), 1u);
  EXPECT_EQ(s.events_executed(), 0u);
  // Still pending past a second horizon short of it...
  s.run_until(TimePoint::zero() + 9_ms);
  EXPECT_FALSE(late_ran);
  EXPECT_EQ(s.now(), TimePoint::zero() + 9_ms);
  EXPECT_EQ(s.events_pending(), 1u);
  // ...and it fires at its own time on the next run_until that reaches it.
  s.run_until(TimePoint::zero() + 12_ms);
  EXPECT_TRUE(late_ran);
  EXPECT_EQ(fired_at, TimePoint::zero() + 10_ms);
  EXPECT_EQ(s.now(), TimePoint::zero() + 12_ms);
  EXPECT_EQ(s.events_pending(), 0u);
  EXPECT_EQ(s.events_executed(), 1u);
}

TEST(Simulator, RunUntilIncludesBoundary) {
  Simulator s;
  bool ran = false;
  s.schedule_in(4_ms, [&] { ran = true; });
  s.run_until(TimePoint::zero() + 4_ms);
  EXPECT_TRUE(ran);
}

TEST(Simulator, EventsCanScheduleEvents) {
  Simulator s;
  std::vector<double> times;
  s.schedule_in(1_ms, [&] {
    times.push_back(s.now().to_milliseconds());
    s.schedule_in(2_ms, [&] { times.push_back(s.now().to_milliseconds()); });
  });
  s.run();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_DOUBLE_EQ(times[0], 1.0);
  EXPECT_DOUBLE_EQ(times[1], 3.0);
}

TEST(Simulator, NegativeDelayClampsToNow) {
  Simulator s;
  s.schedule_in(5_ms, [&] {
    bool ran = false;
    s.schedule_in(-3 * 1_ms, [&] { ran = true; });
    // Runs later in the same instant, not in the past.
    EXPECT_FALSE(ran);
  });
  s.run();
  EXPECT_EQ(s.now(), TimePoint::zero() + 5_ms);
}

TEST(Simulator, ScheduleAtClampsToPast) {
  Simulator s;
  TimePoint fired;
  s.schedule_in(5_ms, [&] {
    s.schedule_at(TimePoint::zero() + 1_ms, [&] { fired = s.now(); });
  });
  s.run();
  EXPECT_EQ(fired, TimePoint::zero() + 5_ms);
}

TEST(Simulator, ResetRestoresInitialState) {
  Simulator s;
  s.schedule_in(1_ms, [] {});
  s.schedule_in(2_ms, [] {});
  s.run_until(TimePoint::zero() + 1_ms);
  s.reset();
  EXPECT_EQ(s.now(), TimePoint::zero());
  EXPECT_EQ(s.events_pending(), 0u);
  EXPECT_EQ(s.events_executed(), 0u);
}

TEST(Simulator, CountsExecutedEvents) {
  Simulator s;
  for (int i = 0; i < 25; ++i) s.schedule_in(Duration::microseconds(i), [] {});
  s.run();
  EXPECT_EQ(s.events_executed(), 25u);
}

TEST(Simulator, RunUntilAdvancesIdleClock) {
  Simulator s;  // no events at all
  s.run_until(TimePoint::zero() + 1_s);
  EXPECT_EQ(s.now(), TimePoint::zero() + 1_s);
}

TEST(Simulator, HandleCancellationFromWithinEvent) {
  Simulator s;
  bool victim_ran = false;
  EventHandle victim = s.schedule_in(10_ms, [&] { victim_ran = true; });
  s.schedule_in(5_ms, [&] { victim.cancel(); });
  s.run();
  EXPECT_FALSE(victim_ran);
}

}  // namespace
}  // namespace bansim::sim
