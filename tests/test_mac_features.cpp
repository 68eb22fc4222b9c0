// Tests of the MAC extensions: fast slot grants, link-layer ACK /
// retransmission, and silent-slot reclamation.
#include <gtest/gtest.h>

#include "core/ban_network.hpp"

namespace bansim::mac {
namespace {

using namespace bansim::sim::literals;
using core::AppKind;
using core::BanConfig;
using core::BanNetwork;
using sim::Duration;
using sim::TimePoint;

BanConfig base_config(Protocol protocol, std::size_t nodes) {
  BanConfig cfg;
  cfg.num_nodes = nodes;
  cfg.protocol = protocol;
  cfg.tdma = protocol == Protocol::kStaticTdma
                 ? TdmaConfig::static_plan(60_ms, 5)
                 : TdmaConfig::dynamic_plan();
  cfg.app = AppKind::kNone;
  cfg.seed = 21;
  return cfg;
}

TEST(FastGrant, NodesJoinViaDirectedGrant) {
  BanConfig cfg = base_config(Protocol::kStaticTdma, 3);
  cfg.tdma.fast_grant = true;
  BanNetwork net{cfg};
  net.start();
  ASSERT_TRUE(net.run_until_joined(100_ms, TimePoint::zero() + 20_s));
  EXPECT_GT(net.base_station_mac().stats().grants_sent, 0u);
  std::uint64_t received = 0;
  for (std::size_t i = 0; i < 3; ++i) {
    received += net.node(i).mac().stats().grants_received;
  }
  EXPECT_GT(received, 0u);
}

TEST(FastGrant, JoinsFasterThanBeaconTableAlone) {
  auto join_time = [](bool fast) {
    BanConfig cfg = base_config(Protocol::kStaticTdma, 5);
    cfg.tdma.fast_grant = fast;
    BanNetwork net{cfg};
    net.start();
    EXPECT_TRUE(net.run_until_joined(Duration::zero(),
                                     TimePoint::zero() + 30_s));
    return net.simulator().now();
  };
  // With fast grants a node is joined within the same cycle as its SSR;
  // without, it waits for the next beacon.  (Non-strict: contention noise.)
  EXPECT_LE(join_time(true), join_time(false) + 60_ms);
}

TEST(FastGrant, DisabledMeansNoGrantFrames) {
  BanConfig cfg = base_config(Protocol::kDynamicTdma, 3);
  cfg.tdma.fast_grant = false;
  BanNetwork net{cfg};
  net.start();
  ASSERT_TRUE(net.run_until_joined(100_ms, TimePoint::zero() + 20_s));
  EXPECT_EQ(net.base_station_mac().stats().grants_sent, 0u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(net.node(i).mac().stats().grants_received, 0u);
  }
}

TEST(AckMode, AcksFlowAndQueueDrains) {
  BanConfig cfg = base_config(Protocol::kStaticTdma, 2);
  cfg.tdma.ack_data = true;
  BanNetwork net{cfg};
  net.start();
  ASSERT_TRUE(net.run_until_joined(100_ms, TimePoint::zero() + 20_s));
  net.node(0).mac().queue_payload({1, 2, 3});
  net.node(0).mac().queue_payload({4, 5, 6});
  net.run_until(net.simulator().now() + 300_ms);
  EXPECT_EQ(net.node(0).mac().queue_depth(), 0u);
  EXPECT_EQ(net.node(0).mac().stats().acks_received, 2u);
  EXPECT_GE(net.base_station_mac().stats().acks_sent, 2u);
  EXPECT_EQ(net.node(0).mac().stats().retransmissions, 0u);
}

TEST(AckMode, LostAcksTriggerRetransmission) {
  BanConfig cfg = base_config(Protocol::kStaticTdma, 2);
  cfg.tdma.ack_data = true;
  BanNetwork net{cfg};
  net.start();
  ASSERT_TRUE(net.run_until_joined(100_ms, TimePoint::zero() + 20_s));

  // Sever the downlink only?  The link matrix is symmetric, so severing
  // kills both directions: the data frame itself is lost, which equally
  // exercises the retry path.
  net.channel().set_link(0 /*bs*/, 1 /*node1*/, false);
  net.node(0).mac().queue_payload({9});
  net.run_until(net.simulator().now() + 400_ms);
  EXPECT_GE(net.node(0).mac().stats().retransmissions, 1u);

  // Heal within the retry budget of a fresh payload: delivery resumes.
  net.channel().set_link(0, 1, true);
  net.node(0).mac().queue_payload({7});
  net.run_until(net.simulator().now() + 500_ms);
  EXPECT_EQ(net.node(0).mac().queue_depth(), 0u);
}

TEST(AckMode, GivesUpAfterMaxRetries) {
  BanConfig cfg = base_config(Protocol::kStaticTdma, 2);
  cfg.tdma.ack_data = true;
  cfg.tdma.max_retries = 2;
  BanNetwork net{cfg};
  net.start();
  ASSERT_TRUE(net.run_until_joined(100_ms, TimePoint::zero() + 20_s));
  net.channel().set_link(0, 1, false);
  net.node(0).mac().queue_payload({9});
  net.run_until(net.simulator().now() + 2_s);
  EXPECT_GE(net.node(0).mac().stats().retry_drops, 1u);
  EXPECT_EQ(net.node(0).mac().queue_depth(), 0u);
}

TEST(AckMode, OffByDefaultMeansNoAcks) {
  BanConfig cfg = base_config(Protocol::kStaticTdma, 2);
  BanNetwork net{cfg};
  net.start();
  ASSERT_TRUE(net.run_until_joined(100_ms, TimePoint::zero() + 20_s));
  net.node(0).mac().queue_payload({1});
  net.run_until(net.simulator().now() + 200_ms);
  EXPECT_EQ(net.base_station_mac().stats().acks_sent, 0u);
  EXPECT_EQ(net.node(0).mac().stats().acks_received, 0u);
}

TEST(Reclamation, DynamicCycleShrinksWhenNodeDies) {
  BanConfig cfg = base_config(Protocol::kDynamicTdma, 3);
  cfg.app = AppKind::kEcgStreaming;
  cfg.streaming.sample_rate_hz = 150;  // one payload per 40 ms cycle
  cfg.tdma.reclaim_after_cycles = 25;
  BanNetwork net{cfg};
  net.start();
  ASSERT_TRUE(net.run_until_joined(500_ms, TimePoint::zero() + 30_s));
  ASSERT_EQ(net.base_station_mac().current_cycle(), 40_ms);

  // Kill node3's RF path entirely.
  const std::uint32_t bs = 0, dead = 3;
  net.channel().set_link(bs, dead, false);
  for (std::uint32_t other = 1; other <= 2; ++other) {
    net.channel().set_link(other, dead, false);
  }
  net.run_until(net.simulator().now() + 5_s);

  EXPECT_GE(net.base_station_mac().stats().slots_reclaimed, 1u);
  EXPECT_EQ(net.base_station_mac().joined_nodes(), 2u);
  EXPECT_EQ(net.base_station_mac().current_cycle(), 30_ms);
  // Survivors keep streaming on the shrunk cycle.
  EXPECT_TRUE(net.node(0).mac().joined());
  EXPECT_TRUE(net.node(1).mac().joined());
}

TEST(Reclamation, RevivedNodeRejoins) {
  BanConfig cfg = base_config(Protocol::kDynamicTdma, 2);
  cfg.app = AppKind::kEcgStreaming;
  cfg.streaming.sample_rate_hz = 200;
  cfg.tdma.reclaim_after_cycles = 25;
  BanNetwork net{cfg};
  net.start();
  ASSERT_TRUE(net.run_until_joined(500_ms, TimePoint::zero() + 30_s));

  net.channel().set_link(0, 2, false);  // isolate node2
  net.run_until(net.simulator().now() + 5_s);
  EXPECT_EQ(net.base_station_mac().joined_nodes(), 1u);

  net.channel().set_link(0, 2, true);
  net.run_until(net.simulator().now() + 5_s);
  EXPECT_EQ(net.base_station_mac().joined_nodes(), 2u);
  EXPECT_TRUE(net.node(1).mac().joined());
}

TEST(Reclamation, StaticSlotReopensForNewRequests) {
  BanConfig cfg = base_config(Protocol::kStaticTdma, 2);
  cfg.app = AppKind::kEcgStreaming;
  cfg.streaming.sample_rate_hz = 100;
  cfg.tdma.reclaim_after_cycles = 20;
  BanNetwork net{cfg};
  net.start();
  ASSERT_TRUE(net.run_until_joined(500_ms, TimePoint::zero() + 30_s));

  net.channel().set_link(0, 1, false);
  net.run_until(net.simulator().now() + 4_s);
  EXPECT_EQ(net.base_station_mac().joined_nodes(), 1u);
  // The freed slot shows up as kFreeSlot in the table again.
  std::size_t free_slots = 0;
  for (const net::NodeId owner : net.base_station_mac().slot_owners()) {
    if (owner == kFreeSlot) ++free_slots;
  }
  EXPECT_EQ(free_slots, 4u);
}

TEST(Reclamation, DisabledByDefault) {
  BanConfig cfg = base_config(Protocol::kDynamicTdma, 2);
  BanNetwork net{cfg};
  net.start();
  ASSERT_TRUE(net.run_until_joined(500_ms, TimePoint::zero() + 30_s));
  net.channel().set_link(0, 1, false);
  net.channel().set_link(0, 2, false);
  net.run_until(net.simulator().now() + 5_s);
  // Nobody evicted: silence tolerated indefinitely (Rpeak-style traffic).
  EXPECT_EQ(net.base_station_mac().stats().slots_reclaimed, 0u);
  EXPECT_EQ(net.base_station_mac().joined_nodes(), 2u);
}

}  // namespace
}  // namespace bansim::mac
