// Co-located BAN coexistence: independent cells of one BanNetwork sharing
// one channel.
#include "core/ban_network.hpp"

#include <gtest/gtest.h>

namespace bansim::core {
namespace {

using namespace bansim::sim::literals;
using sim::Duration;
using sim::TimePoint;

BanConfig cell_config(std::uint8_t pan, net::NodeId offset, int cycle_ms,
                      std::size_t nodes = 3) {
  BanConfig cfg;
  cfg.num_nodes = nodes;
  cfg.tdma = mac::TdmaConfig::static_plan(Duration::milliseconds(cycle_ms), 5);
  cfg.tdma.pan_id = pan;
  cfg.address_offset = offset;
  cfg.app = AppKind::kEcgStreaming;
  cfg.streaming.sample_rate_hz = 6000.0 / cycle_ms;
  cfg.seed = 77 + pan;
  return cfg;
}

TEST(Coexistence, TwoCellsFormIndependently) {
  BanNetwork net{{cell_config(1, 0, 30), cell_config(2, 100, 60)}};
  net.start();
  ASSERT_TRUE(net.run_until_joined(500_ms, TimePoint::zero() + 30_s));
  EXPECT_EQ(net.base_station_mac(0).joined_nodes(), 3u);
  EXPECT_EQ(net.base_station_mac(1).joined_nodes(), 3u);
  EXPECT_EQ(net.base_station_mac(0).current_cycle(), 30_ms);
  EXPECT_EQ(net.base_station_mac(1).current_cycle(), 60_ms);
}

TEST(Coexistence, NoCrossDelivery) {
  BanNetwork net{{cell_config(1, 0, 30), cell_config(2, 100, 60)}};
  net.start();
  ASSERT_TRUE(net.run_until_joined(500_ms, TimePoint::zero() + 30_s));
  net.run_until(net.simulator().now() + 10_s);

  // Each base station only ever hears its own address range.
  for (const auto& [src, traffic] : net.base_station_app(0).per_node()) {
    EXPECT_GE(src, 1);
    EXPECT_LE(src, 3);
  }
  for (const auto& [src, traffic] : net.base_station_app(1).per_node()) {
    EXPECT_GE(src, 101);
    EXPECT_LE(src, 103);
  }
  EXPECT_GT(net.base_station_app(0).total_packets(), 100u);
  EXPECT_GT(net.base_station_app(1).total_packets(), 100u);
}

TEST(Coexistence, ForeignBeaconsAreHeardAndIgnored) {
  BanNetwork net{{cell_config(1, 0, 30), cell_config(2, 100, 60)}};
  net.start();
  ASSERT_TRUE(net.run_until_joined(500_ms, TimePoint::zero() + 30_s));
  net.run_until(net.simulator().now() + 10_s);

  // During search/guard windows a node inevitably overhears the other
  // cell's broadcast beacons; the PAN filter must have dropped them.
  std::uint64_t foreign = 0;
  for (std::size_t cell = 0; cell < 2; ++cell) {
    for (std::size_t i = 0; i < net.num_nodes(cell); ++i) {
      foreign += net.node(i, cell).mac().stats().foreign_beacons;
      EXPECT_TRUE(net.node(i, cell).mac().joined());
    }
  }
  EXPECT_GT(foreign, 0u);
}

TEST(Coexistence, InterferenceCostsEnergyButNotCorrectness) {
  // Same cell alone vs next to a neighbour: collisions between the
  // unsynchronized cells force beacon losses and dead reckoning, but both
  // networks keep streaming.
  BanConfig solo_cfg = cell_config(1, 0, 30);
  BanNetwork solo{solo_cfg};
  solo.start();
  ASSERT_TRUE(solo.run_until_joined(500_ms, TimePoint::zero() + 30_s));
  const TimePoint solo_t0 = solo.simulator().now();
  const auto solo_before = solo.base_station_app().total_packets();
  solo.run_until(solo_t0 + 10_s);
  const auto solo_packets =
      solo.base_station_app().total_packets() - solo_before;

  BanNetwork pair{{cell_config(1, 0, 30), cell_config(2, 100, 60)}};
  pair.start();
  ASSERT_TRUE(pair.run_until_joined(500_ms, TimePoint::zero() + 30_s));
  const TimePoint pair_t0 = pair.simulator().now();
  const auto pair_before = pair.base_station_app(0).total_packets();
  pair.run_until(pair_t0 + 10_s);
  const auto pair_packets =
      pair.base_station_app(0).total_packets() - pair_before;

  // The interfered cell delivers at least 80 % of its solo throughput.
  EXPECT_GT(pair.channel().collisions(), 0u);
  EXPECT_GT(static_cast<double>(pair_packets),
            0.80 * static_cast<double>(solo_packets));

  // And beacon losses occurred but dead reckoning absorbed them: nobody
  // fell back to a full resync after the join phase.
  std::uint64_t missed = 0;
  for (std::size_t i = 0; i < pair.num_nodes(0); ++i) {
    missed += pair.node(i, 0).mac().stats().beacons_missed;
  }
  EXPECT_GT(missed, 0u);
}

TEST(Coexistence, ThreeCellsStillConverge) {
  BanNetwork net{{cell_config(1, 0, 30, 2), cell_config(2, 100, 40, 2),
                cell_config(3, 200, 60, 2)}};
  net.start();
  EXPECT_TRUE(net.run_until_joined(500_ms, TimePoint::zero() + 40_s));
  for (std::size_t cell = 0; cell < 3; ++cell) {
    EXPECT_EQ(net.base_station_mac(cell).joined_nodes(), 2u);
  }
}

}  // namespace
}  // namespace bansim::core
