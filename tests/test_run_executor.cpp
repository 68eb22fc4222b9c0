// The run executor, core::run: where its join phase opens the window, how
// a poll closes it at a depletion, what the drain runs, and what a missed
// deadline returns.
#include <gtest/gtest.h>

#include "core/experiment.hpp"

namespace bansim {
namespace {

using namespace bansim::sim::literals;
using core::BanConfig;
using core::BanNetwork;
using core::MeasurementProtocol;
using core::RunRecord;
using sim::Duration;
using sim::TimePoint;

BanConfig small_cell(std::size_t nodes) {
  BanConfig config;
  config.num_nodes = nodes;
  config.tdma = mac::TdmaConfig::static_plan(Duration::milliseconds(30), 5);
  return config;
}

TEST(RunExecutor, WindowOpensSettlePastTheJoinPoll) {
  const BanConfig config = small_cell(3);
  BanNetwork network{config};
  const RunRecord record = core::run(
      network, {.measure = 1_s, .settle = 300_ms, .join_deadline = 30_s});
  ASSERT_TRUE(record.joined);

  // The join instant, found independently on the same 50 ms grid.
  BanNetwork probe{config};
  probe.start();
  while (!probe.all_joined()) {
    probe.run_until(probe.simulator().now() + 50_ms);
  }
  const TimePoint joined_at = probe.simulator().now();
  EXPECT_EQ(joined_at.since_epoch().mod(50_ms), Duration::zero());
  EXPECT_GT(joined_at, TimePoint::zero());

  EXPECT_EQ(record.open.at, joined_at + 300_ms);
  EXPECT_EQ(record.close.at, record.open.at + 1_s);
  EXPECT_EQ(network.simulator().now(), record.close.at);
  EXPECT_EQ(record.open.joules.size(), 4u);  // three nodes + base station
  EXPECT_EQ(record.open.mac.size(), 3u);
  EXPECT_GT(record.close.joules[0].total(), record.open.joules[0].total());
  EXPECT_GT(record.close.delivered, record.open.delivered);
}

TEST(RunExecutor, ZeroDeadlineOpensAtTimeZero) {
  BanNetwork network{small_cell(2)};
  const RunRecord record =
      core::run(network, {.measure = 700_ms, .join_deadline = {}});
  ASSERT_TRUE(record.joined);
  EXPECT_EQ(record.open.at, TimePoint::zero());
  EXPECT_EQ(record.close.at, TimePoint::zero() + 700_ms);
  EXPECT_EQ(record.open.joules[0].total(), 0.0);
}

TEST(RunExecutor, PollClosesAtTheFirstBoundaryAfterADeath) {
  BanConfig config = small_cell(2);
  config.storage.enabled = true;
  config.storage.battery.capacity_mah = 0.01;  // dies within seconds

  BanNetwork network{config};
  const Duration poll = 500_ms;
  const RunRecord record = core::run(
      network, {.measure = 60_s, .join_deadline = {}, .poll = poll});
  ASSERT_TRUE(record.joined);
  const TimePoint death = network.storage_driver()->first_death();
  ASSERT_LT(death, TimePoint::zero() + 60_s);

  EXPECT_LT(record.close.at, TimePoint::zero() + 60_s);
  EXPECT_EQ(record.close.at.since_epoch().mod(poll), Duration::zero());
  EXPECT_GE(record.close.at, death);
  EXPECT_LT(record.close.at - poll, death);
}

TEST(RunExecutor, DrainRunsPastTheCloseWithTheInjectorStopped) {
  BanConfig config = small_cell(4);
  config.tdma.missed_beacon_limit = 2;
  config.tdma.search_listen = 150_ms;
  config.tdma.search_backoff_base = 40_ms;
  config.tdma.search_backoff_max = 400_ms;
  config.fault_plan.enabled = true;
  config.fault_plan.crashes.enabled = true;
  config.fault_plan.crashes.rate_hz = 1.0;
  config.fault_plan.crashes.check = 100_ms;
  config.fault_plan.crashes.min_down = 200_ms;
  config.fault_plan.crashes.max_down = 400_ms;
  const MeasurementProtocol undrained{.measure = 4_s, .join_deadline = {}};
  MeasurementProtocol drained = undrained;
  drained.drain = 3_s;

  BanNetwork closed{config};
  const RunRecord at_close = core::run(closed, undrained);
  BanNetwork network{config};
  const RunRecord record = core::run(network, drained);

  EXPECT_EQ(record.close.at, at_close.close.at);
  EXPECT_EQ(network.simulator().now(), record.close.at + 3_s);
  const std::uint64_t crashes =
      closed.fault_injector()->stats().stochastic_crashes;
  EXPECT_GT(crashes, 0u);
  EXPECT_EQ(network.fault_injector()->stats().stochastic_crashes, crashes);
}

TEST(RunExecutor, MissedDeadlineReturnsUnmeasuredAtThePoll) {
  BanNetwork network{small_cell(7)};  // five slots: two nodes never join
  const RunRecord record = core::run(
      network, {.measure = 60_s, .settle = 1_s, .join_deadline = 1020_ms});
  EXPECT_FALSE(record.joined);
  EXPECT_EQ(network.simulator().now(), TimePoint::zero() + 1050_ms);
  EXPECT_TRUE(record.open.joules.empty());
  EXPECT_TRUE(record.close.joules.empty());
}

}  // namespace
}  // namespace bansim
