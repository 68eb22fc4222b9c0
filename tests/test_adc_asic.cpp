#include <gtest/gtest.h>

#include "sim/context.hpp"

#include <cmath>

#include "hw/adc12.hpp"
#include "hw/board.hpp"
#include "hw/sensor_asic.hpp"

namespace bansim::hw {
namespace {

using namespace bansim::sim::literals;
using sim::Duration;
using sim::TimePoint;

struct AdcFixture : ::testing::Test {
  AdcParams params;
  Adc12 adc{params, 2.5};
};

TEST_F(AdcFixture, QuantizeEndpoints) {
  EXPECT_EQ(adc.quantize(0.0), 0);
  EXPECT_EQ(adc.quantize(2.5), 4095);
  EXPECT_EQ(adc.quantize(1.25), 2048);  // rounds 2047.5 up
}

TEST_F(AdcFixture, QuantizeClamps) {
  EXPECT_EQ(adc.quantize(-1.0), 0);
  EXPECT_EQ(adc.quantize(5.0), 4095);
}

TEST_F(AdcFixture, QuantizeIsMonotone) {
  std::uint16_t prev = 0;
  for (double v = 0.0; v <= 2.5; v += 0.01) {
    const std::uint16_t code = adc.quantize(v);
    EXPECT_GE(code, prev);
    prev = code;
  }
}

TEST(SensorAsic, ReadsAssignedSignals) {
  sim::Simulator simulator;
  AsicParams params;
  SensorAsic asic{simulator, params};
  asic.set_channel_signal(0, [](TimePoint t) {
    return 1.0 + t.to_seconds();
  });
  EXPECT_DOUBLE_EQ(asic.read_channel(0), 1.0);
  simulator.schedule_in(2_s, [] {});
  simulator.run();
  EXPECT_DOUBLE_EQ(asic.read_channel(0), 3.0);
}

TEST(SensorAsic, UnassignedChannelIsZero) {
  sim::Simulator simulator;
  SensorAsic asic{simulator, AsicParams{}};
  EXPECT_DOUBLE_EQ(asic.read_channel(7), 0.0);
  EXPECT_DOUBLE_EQ(asic.read_channel(99), 0.0);  // out of range is safe
}

TEST(SensorAsic, ConstantPowerEnergy) {
  sim::Simulator simulator;
  AsicParams params;  // 10.5 mW
  SensorAsic asic{simulator, params};
  EXPECT_NEAR(asic.energy(TimePoint::zero() + 60_s), 10.5e-3 * 60.0, 1e-9);
}

TEST(Board, BreakdownHasAllComponents) {
  sim::SimContext context;
  sim::Simulator& simulator = context.simulator;
  phy::Channel channel{context};
  Board board{context, channel, "node1", BoardParams{}, 0.0};
  simulator.schedule_in(1_s, [] {});
  simulator.run();
  const auto rows = board.breakdown(simulator.now());
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].component, "mcu");
  EXPECT_EQ(rows[1].component, "radio");
  EXPECT_EQ(rows[2].component, "asic");
  EXPECT_NEAR(rows[2].joules, 10.5e-3, 1e-9);
  // MCU was active the whole second: 2 mA * 2.8 V.
  EXPECT_NEAR(rows[0].joules, 2e-3 * 2.8, 1e-9);
}

}  // namespace
}  // namespace bansim::hw
