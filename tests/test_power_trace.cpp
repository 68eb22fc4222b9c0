// PowerTrace: step monotonicity, same-instant coalescing, integration and
// peak.
#include <gtest/gtest.h>

#include <stdexcept>

#include "energy/power_trace.hpp"

namespace bansim::energy {
namespace {

sim::TimePoint at_ms(std::int64_t ms) {
  return sim::TimePoint::zero() + sim::Duration::milliseconds(ms);
}

TEST(PowerTrace, RejectsTimeRegression) {
  PowerTrace trace;
  trace.step(at_ms(10), 1.0);
  EXPECT_THROW(trace.step(at_ms(9), 2.0), std::invalid_argument);
  // The trace is still usable after the rejected step.
  trace.step(at_ms(10), 2.0);
  trace.step(at_ms(11), 3.0);
  EXPECT_EQ(trace.size(), 2u);
}

TEST(PowerTrace, SameInstantStepsCoalesceToTheLastValue) {
  PowerTrace trace;
  trace.step(at_ms(5), 1.0);
  trace.step(at_ms(5), 4.0);
  trace.step(at_ms(5), 2.5);
  ASSERT_EQ(trace.size(), 1u);
  EXPECT_DOUBLE_EQ(trace.watts_at(0), 2.5);
}

TEST(PowerTrace, EnergyIntegratesTheStepFunction) {
  PowerTrace trace;
  trace.step(at_ms(0), 2.0);    // 2 W for 10 ms  -> 20 mJ
  trace.step(at_ms(10), 10.0);  // 10 W for 5 ms  -> 50 mJ
  trace.step(at_ms(15), 0.0);
  EXPECT_NEAR(trace.energy(at_ms(0), at_ms(15)), 0.070, 1e-12);
  EXPECT_NEAR(trace.energy(at_ms(5), at_ms(12)), 0.030, 1e-12);
  EXPECT_DOUBLE_EQ(trace.energy(at_ms(15), at_ms(99)), 0.0);
}

TEST(PowerTrace, Peak) {
  PowerTrace trace;
  trace.step(at_ms(0), 0.001);
  trace.step(at_ms(3), 0.042);
  trace.step(at_ms(6), 0.002);
  EXPECT_DOUBLE_EQ(trace.peak(), 0.042);
}

}  // namespace
}  // namespace bansim::energy
