#include <gtest/gtest.h>

#include "sim/context.hpp"

#include "hw/mcu.hpp"
#include "hw/timer_unit.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"

namespace bansim::hw {
namespace {

using namespace bansim::sim::literals;
using sim::Duration;
using sim::TimePoint;

struct McuFixture : ::testing::Test {
  sim::SimContext context;
  sim::Simulator& simulator = context.simulator;
  sim::Tracer& tracer = context.tracer;
  McuParams params;
};

TEST_F(McuFixture, StartsActive) {
  Mcu mcu{context, "n", params, 0.0};
  EXPECT_EQ(mcu.mode(), McuMode::kActive);
  EXPECT_EQ(mcu.wakeups(), 0u);
}

TEST_F(McuFixture, CyclesToTimeAtNominalClock) {
  Mcu mcu{context, "n", params, 0.0};
  // 8000 cycles at 8 MHz = 1 ms.
  EXPECT_EQ(mcu.cycles_to_time(8000), 1_ms);
  EXPECT_EQ(mcu.cycles_to_time(0), Duration::zero());
}

TEST_F(McuFixture, CyclesToTimeStretchesWithSkew) {
  Mcu fast{context, "n", params, -1e-3};
  Mcu slow{context, "n", params, +1e-3};
  EXPECT_LT(fast.cycles_to_time(8'000'000), 1000_ms);
  EXPECT_GT(slow.cycles_to_time(8'000'000), 1000_ms);
  EXPECT_EQ(slow.cycles_to_time(8'000'000), Duration::from_milliseconds(1001.0));
}

TEST_F(McuFixture, LocalTrueConversionsInvert) {
  Mcu mcu{context, "n", params, 1.7e-3};
  for (std::int64_t ms : {1, 10, 100, 5000}) {
    const Duration d = Duration::milliseconds(ms);
    const Duration roundtrip = mcu.true_to_local(mcu.local_to_true(d));
    EXPECT_NEAR(static_cast<double>(roundtrip.ticks()),
                static_cast<double>(d.ticks()), 2.0);
  }
}

TEST_F(McuFixture, WakeupLatencyOnlyOnLpmExit) {
  Mcu mcu{context, "n", params, 0.0};
  EXPECT_EQ(mcu.enter(McuMode::kLpm1), Duration::zero());
  EXPECT_EQ(mcu.enter(McuMode::kActive), params.wakeup_latency);
  EXPECT_EQ(mcu.wakeups(), 1u);
  // Re-entering the current mode is free and not a wakeup.
  EXPECT_EQ(mcu.enter(McuMode::kActive), Duration::zero());
  EXPECT_EQ(mcu.wakeups(), 1u);
}

TEST_F(McuFixture, MeterTracksResidency) {
  Mcu mcu{context, "n", params, 0.0};
  simulator.schedule_in(10_ms, [&] { mcu.enter(McuMode::kLpm1); });
  simulator.schedule_in(30_ms, [&] { mcu.enter(McuMode::kActive); });
  simulator.schedule_in(40_ms, [] {});
  simulator.run();
  const TimePoint now = simulator.now();
  // Active 10 ms + 10 ms, LPM1 20 ms.
  EXPECT_NEAR(mcu.meter().energy_in(static_cast<int>(McuMode::kActive), now),
              2e-3 * 2.8 * 0.020, 1e-12);
  EXPECT_NEAR(mcu.meter().energy_in(static_cast<int>(McuMode::kLpm1), now),
              0.66e-3 * 2.8 * 0.020, 1e-12);
}

TEST_F(McuFixture, ModeNames) {
  EXPECT_STREQ(to_string(McuMode::kActive), "active");
  EXPECT_STREQ(to_string(McuMode::kLpm1), "lpm1");
  EXPECT_STREQ(to_string(McuMode::kLpm4), "lpm4");
}

TEST_F(McuFixture, TimerUnitFiresAfterLocalDelay) {
  Mcu mcu{context, "n", params, 0.0};
  TimerUnit unit{simulator, mcu};
  TimePoint fired;
  unit.set_isr([&] { fired = simulator.now(); });
  unit.set_alarm(5_ms);
  EXPECT_TRUE(unit.armed());
  simulator.run();
  EXPECT_EQ(fired, TimePoint::zero() + 5_ms);
  EXPECT_EQ(unit.fired(), 1u);
  EXPECT_FALSE(unit.armed());
}

TEST_F(McuFixture, TimerUnitAppliesSkew) {
  Mcu mcu{context, "n", params, 2e-3};  // +0.2 % slow clock
  TimerUnit unit{simulator, mcu};
  TimePoint fired;
  unit.set_isr([&] { fired = simulator.now(); });
  unit.set_alarm(100_ms);
  simulator.run();
  // Programmed 100 ms local -> 100.2 ms true.
  EXPECT_EQ(fired, TimePoint::zero() + Duration::from_milliseconds(100.2));
}

TEST_F(McuFixture, TimerUnitRearmReplacesPending) {
  Mcu mcu{context, "n", params, 0.0};
  TimerUnit unit{simulator, mcu};
  TimePoint fired;
  unit.set_isr([&] { fired = simulator.now(); });
  unit.set_alarm(5_ms);
  unit.set_alarm(2_ms);
  simulator.run();
  EXPECT_EQ(fired, TimePoint::zero() + 2_ms);
  EXPECT_EQ(unit.fired(), 1u);
}

TEST_F(McuFixture, TimerUnitCancel) {
  Mcu mcu{context, "n", params, 0.0};
  TimerUnit unit{simulator, mcu};
  bool fired = false;
  unit.set_isr([&] { fired = true; });
  unit.set_alarm(5_ms);
  unit.cancel();
  EXPECT_FALSE(unit.armed());
  simulator.run();
  EXPECT_FALSE(fired);
}

}  // namespace
}  // namespace bansim::hw
