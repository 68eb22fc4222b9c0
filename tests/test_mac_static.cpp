// Integration tests of the static TDMA MAC over the full stack
// (hardware + OS + channel), using BanNetwork as the assembly.
#include <gtest/gtest.h>

#include <set>

#include "core/ban_network.hpp"

namespace bansim::mac {
namespace {

using namespace bansim::sim::literals;
using core::AppKind;
using core::BanConfig;
using core::BanNetwork;
using sim::Duration;
using sim::TimePoint;

BanConfig static_config(std::size_t nodes, int cycle_ms,
                        std::uint8_t slots = 5) {
  BanConfig cfg;
  cfg.num_nodes = nodes;
  cfg.tdma = TdmaConfig::static_plan(Duration::milliseconds(cycle_ms), slots);
  cfg.app = AppKind::kNone;
  cfg.seed = 7;
  return cfg;
}

TEST(StaticTdma, AllNodesJoinFixedCycle) {
  BanNetwork net{static_config(5, 60)};
  net.start();
  ASSERT_TRUE(net.run_until_joined(100_ms, TimePoint::zero() + 20_s));
  EXPECT_EQ(net.base_station_mac().joined_nodes(), 5u);
  // Static cycle never changes.
  EXPECT_EQ(net.base_station_mac().current_cycle(), 60_ms);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(net.node(i).mac().known_cycle(), 60_ms);
  }
}

TEST(StaticTdma, SlotAssignmentsAreExclusive) {
  BanNetwork net{static_config(5, 60)};
  net.start();
  ASSERT_TRUE(net.run_until_joined(100_ms, TimePoint::zero() + 20_s));
  std::set<int> slots;
  for (std::size_t i = 0; i < 5; ++i) {
    const int slot = net.node(i).mac().slot_index();
    EXPECT_GE(slot, 0);
    EXPECT_LT(slot, 5);
    slots.insert(slot);
  }
  EXPECT_EQ(slots.size(), 5u);  // no slot shared

  const auto& owners = net.base_station_mac().slot_owners();
  std::set<net::NodeId> owner_set{owners.begin(), owners.end()};
  EXPECT_EQ(owner_set.size(), 5u);
}

TEST(StaticTdma, RejectsNodesBeyondTableSize) {
  // 6 nodes contending for 4 slots: the network fills and stays full.
  BanConfig cfg = static_config(6, 50, 4);
  BanNetwork net{cfg};
  net.start();
  net.run_until(TimePoint::zero() + 20_s);
  EXPECT_EQ(net.base_station_mac().joined_nodes(), 4u);
  std::size_t joined = 0;
  for (std::size_t i = 0; i < 6; ++i) {
    if (net.node(i).mac().joined()) ++joined;
  }
  EXPECT_EQ(joined, 4u);
  EXPECT_GT(net.base_station_mac().stats().requests_rejected, 0u);
}

TEST(StaticTdma, BeaconCadenceMatchesCycle) {
  BanNetwork net{static_config(2, 30)};
  net.start();
  ASSERT_TRUE(net.run_until_joined(100_ms, TimePoint::zero() + 20_s));
  const auto before = net.base_station_mac().stats().beacons_sent;
  net.run_until(net.simulator().now() + 3_s);
  const auto sent = net.base_station_mac().stats().beacons_sent - before;
  EXPECT_NEAR(static_cast<double>(sent), 100.0, 2.0);  // 3 s / 30 ms
}

TEST(StaticTdma, NodesReceiveAlmostEveryBeacon) {
  BanNetwork net{static_config(5, 60)};
  net.start();
  ASSERT_TRUE(net.run_until_joined(100_ms, TimePoint::zero() + 20_s));
  const auto rx0 = net.node(0).mac().stats().beacons_received;
  net.run_until(net.simulator().now() + 6_s);
  const auto got = net.node(0).mac().stats().beacons_received - rx0;
  EXPECT_NEAR(static_cast<double>(got), 100.0, 3.0);  // 6 s / 60 ms
  EXPECT_EQ(net.node(0).mac().stats().beacons_missed, 0u);
}

TEST(StaticTdma, QueuedPayloadIsDeliveredToBaseStation) {
  BanNetwork net{static_config(3, 60)};
  net.start();
  ASSERT_TRUE(net.run_until_joined(100_ms, TimePoint::zero() + 20_s));
  net.node(1).mac().queue_payload({0xAB, 0xCD});
  net.run_until(net.simulator().now() + 200_ms);
  const auto& traffic = net.base_station_app().per_node();
  const auto it = traffic.find(net.node(1).address());
  ASSERT_NE(it, traffic.end());
  EXPECT_EQ(it->second.packets, 1u);
  EXPECT_EQ(it->second.bytes, 2u);
}

TEST(StaticTdma, OnePayloadPerCycle) {
  BanNetwork net{static_config(1, 30)};
  net.start();
  ASSERT_TRUE(net.run_until_joined(100_ms, TimePoint::zero() + 20_s));
  for (int i = 0; i < 3; ++i) net.node(0).mac().queue_payload({1});
  EXPECT_EQ(net.node(0).mac().queue_depth(), 3u);
  net.run_until(net.simulator().now() + 35_ms);
  EXPECT_EQ(net.node(0).mac().queue_depth(), 2u);  // one drained per cycle
  net.run_until(net.simulator().now() + 70_ms);
  EXPECT_EQ(net.node(0).mac().queue_depth(), 0u);
}

TEST(StaticTdma, QueueBoundDropsOldest) {
  BanNetwork net{static_config(1, 30)};
  net.start();
  for (std::size_t i = 0; i < NodeMac::kMaxQueue + 3; ++i) {
    net.node(0).mac().queue_payload({static_cast<std::uint8_t>(i)});
  }
  EXPECT_EQ(net.node(0).mac().queue_depth(), NodeMac::kMaxQueue);
  EXPECT_EQ(net.node(0).mac().stats().payloads_dropped, 3u);
}

TEST(StaticTdma, SurvivesBeaconLossByDeadReckoning) {
  BanNetwork net{static_config(2, 30)};
  net.start();
  ASSERT_TRUE(net.run_until_joined(100_ms, TimePoint::zero() + 20_s));

  // Sever node1 <- bs for a few cycles: node must dead-reckon, not rejoin.
  const auto resyncs_before = net.node(0).mac().stats().resyncs;
  net.channel().set_link(0 /*bs attaches first*/, 1, false);
  net.run_until(net.simulator().now() + 70_ms);  // ~2 lost beacons
  net.channel().set_link(0, 1, true);
  net.run_until(net.simulator().now() + 200_ms);

  EXPECT_TRUE(net.node(0).mac().joined());
  EXPECT_GE(net.node(0).mac().stats().beacons_missed, 1u);
  EXPECT_EQ(net.node(0).mac().stats().resyncs, resyncs_before);
}

TEST(StaticTdma, FallsBackToSearchAfterSustainedLoss) {
  BanNetwork net{static_config(2, 30)};
  net.start();
  ASSERT_TRUE(net.run_until_joined(100_ms, TimePoint::zero() + 20_s));
  const auto resyncs_before = net.node(0).mac().stats().resyncs;

  net.channel().set_link(0, 1, false);
  // Lose far more than missed_beacon_limit beacons.
  net.run_until(net.simulator().now() + 1_s);
  EXPECT_GT(net.node(0).mac().stats().resyncs, resyncs_before);

  // Reconnect: the node re-syncs and keeps its old slot (the BS never
  // evicted it).
  net.channel().set_link(0, 1, true);
  net.run_until(net.simulator().now() + 1_s);
  EXPECT_TRUE(net.node(0).mac().joined());
}

TEST(StaticTdma, DataSlotTransmissionsDoNotCollide) {
  core::BanConfig cfg = static_config(5, 30);
  cfg.app = AppKind::kEcgStreaming;
  cfg.streaming.sample_rate_hz = 205;
  BanNetwork net{cfg};
  net.start();
  ASSERT_TRUE(net.run_until_joined(500_ms, TimePoint::zero() + 20_s));
  const auto collisions_before = net.channel().collisions();
  net.run_until(net.simulator().now() + 5_s);
  // Steady state: slotted transmissions never overlap.
  EXPECT_EQ(net.channel().collisions(), collisions_before);
}

TEST(StaticTdma, StatsToStringStates) {
  EXPECT_STREQ(to_string(NodeMacState::kSearching), "searching");
  EXPECT_STREQ(to_string(NodeMacState::kJoined), "joined");
}

}  // namespace
}  // namespace bansim::mac
