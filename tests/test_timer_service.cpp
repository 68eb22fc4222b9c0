#include "os/timer_service.hpp"

#include <gtest/gtest.h>

#include "sim/context.hpp"

#include <string>
#include <vector>

namespace bansim::os {
namespace {

using namespace bansim::sim::literals;
using sim::Duration;
using sim::TimePoint;

struct TimerServiceFixture : ::testing::Test {
  sim::SimContext context;
  sim::Simulator& simulator = context.simulator;
  sim::Tracer& tracer = context.tracer;
  hw::McuParams params;
  double skew{0.0};

  struct Stack {
    hw::Mcu mcu;
    hw::TimerUnit unit;
    PowerManager power;
    NullProbe probe;
    TaskScheduler scheduler;
    TimerService timers;

    Stack(sim::SimContext& context, const hw::McuParams& params, double skew)
        : mcu{context, "n", params, skew},
          unit{context.simulator, mcu},
          scheduler{context, mcu, power, "n", probe},
          timers{context.simulator, mcu, unit, scheduler, power} {}
  };

  Stack make(double node_skew = 0.0) {
    return Stack{context, params, node_skew};
  }
};

TEST_F(TimerServiceFixture, OneShotFiresOnce) {
  auto s = make();
  std::vector<TimePoint> fires;
  s.timers.start_oneshot("t", 5_ms, [&] { fires.push_back(simulator.now()); });
  simulator.run_until(TimePoint::zero() + 100_ms);
  ASSERT_EQ(fires.size(), 1u);
  // Fires at 5 ms + ISR dispatch latency (wake-up + service cycles).
  EXPECT_GE(fires[0], TimePoint::zero() + 5_ms);
  EXPECT_LT(fires[0], TimePoint::zero() + Duration::from_milliseconds(5.1));
}

TEST_F(TimerServiceFixture, PeriodicCadence) {
  auto s = make();
  std::vector<double> fires_ms;
  s.timers.start_periodic("p", 10_ms,
                          [&] { fires_ms.push_back(simulator.now().to_milliseconds()); });
  simulator.run_until(TimePoint::zero() + 100_ms);
  // ~10 firings at ~10, 20, ..., with small dispatch latency each.
  ASSERT_GE(fires_ms.size(), 9u);
  for (std::size_t i = 0; i < fires_ms.size(); ++i) {
    EXPECT_NEAR(fires_ms[i], 10.0 * static_cast<double>(i + 1), 0.2);
  }
}

TEST_F(TimerServiceFixture, PeriodicDoesNotDriftFromDispatchLatency) {
  // Deadlines advance by the period, not by (period + dispatch), so the
  // average cadence over many firings is exactly the period.
  auto s = make();
  int fires = 0;
  s.timers.start_periodic("p", 1_ms, [&] { ++fires; });
  simulator.run_until(TimePoint::zero() + 1_s);
  EXPECT_NEAR(fires, 1000, 2);
}

TEST_F(TimerServiceFixture, SkewStretchesPeriod) {
  auto s = make(+2e-3);
  int fires = 0;
  s.timers.start_periodic("p", 10_ms, [&] { ++fires; });
  simulator.run_until(TimePoint::zero() + 1_s);
  // A +0.2 % slow clock fires ~2 fewer times in a true second.
  EXPECT_NEAR(fires, 99, 1);
}

TEST_F(TimerServiceFixture, StopCancelsPending) {
  auto s = make();
  bool fired = false;
  const auto id = s.timers.start_oneshot("t", 5_ms, [&] { fired = true; });
  EXPECT_TRUE(s.timers.active(id));
  s.timers.stop(id);
  EXPECT_FALSE(s.timers.active(id));
  simulator.run_until(TimePoint::zero() + 20_ms);
  EXPECT_FALSE(fired);
}

TEST_F(TimerServiceFixture, StopOnePeriodicKeepsOthers) {
  auto s = make();
  int a = 0, b = 0;
  const auto ta = s.timers.start_periodic("a", 10_ms, [&] { ++a; });
  s.timers.start_periodic("b", 10_ms, [&] { ++b; });
  simulator.run_until(TimePoint::zero() + 35_ms);
  s.timers.stop(ta);
  simulator.run_until(TimePoint::zero() + 100_ms);
  EXPECT_EQ(a, 3);
  EXPECT_GE(b, 9);
}

TEST_F(TimerServiceFixture, ManyTimersFireInDeadlineOrder) {
  auto s = make();
  std::vector<int> order;
  s.timers.start_oneshot("late", 30_ms, [&] { order.push_back(3); });
  s.timers.start_oneshot("early", 10_ms, [&] { order.push_back(1); });
  s.timers.start_oneshot("mid", 20_ms, [&] { order.push_back(2); });
  simulator.run_until(TimePoint::zero() + 100_ms);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST_F(TimerServiceFixture, SlotReuseAfterStop) {
  auto s = make();
  const auto a = s.timers.start_oneshot("a", 5_ms, [] {});
  s.timers.stop(a);
  const auto b = s.timers.start_oneshot("b", 5_ms, [] {});
  EXPECT_EQ(a, b);  // dead slot recycled
  EXPECT_EQ(s.timers.active_count(), 1u);
}

TEST_F(TimerServiceFixture, OneShotSlotFreedAfterFiring) {
  auto s = make();
  s.timers.start_oneshot("a", 1_ms, [] {});
  simulator.run_until(TimePoint::zero() + 10_ms);
  EXPECT_EQ(s.timers.active_count(), 0u);
}

TEST_F(TimerServiceFixture, ExpiryWakesMcuFromLpm) {
  auto s = make();
  s.power.register_peripheral("x", ClockConstraint::kSmclk);
  s.timers.start_oneshot("t", 10_ms, [] {});
  // The boot path keeps the MCU active until the first task drains.
  s.scheduler.post("boot", 10, nullptr);
  simulator.run_until(TimePoint::zero() + 5_ms);
  EXPECT_EQ(s.mcu.mode(), hw::McuMode::kLpm1);  // asleep while waiting
  simulator.run_until(TimePoint::zero() + 50_ms);
  EXPECT_GE(s.mcu.wakeups(), 1u);
}

// An expiry that has been raised as an interrupt but not yet dispatched
// (the MCU is busy with a long task) belongs to the interrupt: stopping
// the timer, or reusing its id for a new timer, does not change what runs.

TEST_F(TimerServiceFixture, RaisedOneShotRunsAfterStopAndIdReuse) {
  auto s = make();
  std::vector<std::string> ran;
  s.scheduler.post("busy", 80000, nullptr);  // MCU busy until 10 ms
  const auto id =
      s.timers.start_oneshot("first", 2_ms, [&] { ran.emplace_back("first"); });
  TimerService::TimerId reused = TimerService::kInvalidTimer;
  simulator.schedule_at(TimePoint::zero() + 5_ms, [&] {
    s.timers.stop(id);
    reused = s.timers.start_oneshot("second", 20_ms,
                                    [&] { ran.emplace_back("second"); });
  });
  simulator.run_until(TimePoint::zero() + 100_ms);
  EXPECT_EQ(reused, id);  // the fired timer's slot was recycled
  EXPECT_EQ(ran, (std::vector<std::string>{"first", "second"}));
}

TEST_F(TimerServiceFixture, RaisedPeriodicExpiriesRunAfterStopAndIdReuse) {
  auto s = make();
  int ticks = 0;
  int other = 0;
  s.scheduler.post("busy", 80000, nullptr);  // MCU busy until 10 ms
  const auto id = s.timers.start_periodic("tick", 4_ms, [&] { ++ticks; });
  TimerService::TimerId reused = TimerService::kInvalidTimer;
  simulator.schedule_at(TimePoint::zero() + 9_ms, [&] {
    s.timers.stop(id);
    reused = s.timers.start_oneshot("other", 30_ms, [&] { ++other; });
  });
  simulator.run_until(TimePoint::zero() + 100_ms);
  EXPECT_EQ(reused, id);
  EXPECT_EQ(ticks, 2);  // the expiries raised at 4 and 8 ms, no more
  EXPECT_EQ(other, 1);
}

TEST_F(TimerServiceFixture, SameInstantExpiriesKeepTheirInterruptOrder) {
  // Due timers are raised in slot order; the first finds the scheduler idle
  // and dispatches at once, the later ones jump the queue newest first.
  auto s = make();
  std::vector<int> order;
  s.timers.start_oneshot("a", 5_ms, [&] { order.push_back(0); });
  s.timers.start_oneshot("b", 5_ms, [&] { order.push_back(1); });
  s.timers.start_oneshot("c", 5_ms, [&] { order.push_back(2); });
  simulator.run_until(TimePoint::zero() + 20_ms);
  EXPECT_EQ(order, (std::vector<int>{0, 2, 1}));
}

TEST_F(TimerServiceFixture, HandlerCanRestartItself) {
  auto s = make();
  int fires = 0;
  std::function<void()> rearm = [&] {
    if (++fires < 4) s.timers.start_oneshot("chain", 5_ms, rearm);
  };
  s.timers.start_oneshot("chain", 5_ms, rearm);
  simulator.run_until(TimePoint::zero() + 200_ms);
  EXPECT_EQ(fires, 4);
}

}  // namespace
}  // namespace bansim::os
