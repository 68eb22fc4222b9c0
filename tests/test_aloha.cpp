// Tests of the random-access baseline MAC: delivery at low load, ARQ
// recovery of collisions, congestion collapse at high load, and the
// energy contrast against TDMA.
#include <gtest/gtest.h>

#include "core/aloha_network.hpp"
#include "core/bansim.hpp"

namespace bansim::mac {
namespace {

using namespace bansim::sim::literals;
using core::AlohaNetwork;
using core::AlohaNetworkConfig;
using sim::Duration;
using sim::TimePoint;

AlohaNetworkConfig low_load(std::size_t nodes) {
  AlohaNetworkConfig cfg;
  cfg.num_nodes = nodes;
  cfg.payload_interval = 200_ms;  // sparse traffic
  cfg.seed = 9;
  return cfg;
}

TEST(Aloha, SingleNodeDeliversEverything) {
  AlohaNetwork net{low_load(1)};
  net.start();
  net.run_until(TimePoint::zero() + 10_s);
  const auto generated = net.payloads_generated(0);
  EXPECT_NEAR(static_cast<double>(generated), 50.0, 3.0);
  EXPECT_EQ(net.base_station().stats().data_received,
            net.node_mac(0).stats().data_sent);
  EXPECT_EQ(net.node_mac(0).stats().retry_drops, 0u);
  EXPECT_EQ(net.node_mac(0).stats().acks_received,
            net.node_mac(0).stats().data_sent);
}

TEST(Aloha, SparseMultiNodeTrafficMostlySurvives) {
  AlohaNetwork net{low_load(5)};
  net.start();
  net.run_until(TimePoint::zero() + 10_s);
  std::uint64_t generated = 0;
  std::uint64_t dropped = 0;
  for (std::size_t i = 0; i < 5; ++i) {
    generated += net.payloads_generated(i);
    dropped += net.node_mac(i).stats().retry_drops +
               net.node_mac(i).stats().payloads_dropped;
  }
  // Unique payloads delivered = generated - dropped - still queued.
  EXPECT_GT(generated, 200u);
  EXPECT_LT(static_cast<double>(dropped), 0.05 * static_cast<double>(generated));
  // ARQ recovered any collision: retransmissions may be nonzero.
  EXPECT_GT(net.base_station().stats().data_received, generated * 9 / 10);
}

TEST(Aloha, HighLoadCollapsesDelivery) {
  // 5 nodes each offering a payload every 4 ms over a ~0.5 ms air time
  // channel with ACK turnarounds: far beyond ALOHA's capacity.
  AlohaNetworkConfig cfg;
  cfg.num_nodes = 5;
  cfg.payload_interval = Duration::milliseconds(4);
  cfg.seed = 4;
  AlohaNetwork net{cfg};
  net.start();
  net.run_until(TimePoint::zero() + 5_s);

  std::uint64_t generated = 0;
  std::uint64_t lost = 0;
  for (std::size_t i = 0; i < 5; ++i) {
    generated += net.payloads_generated(i);
    lost += net.node_mac(i).stats().retry_drops +
            net.node_mac(i).stats().payloads_dropped;
  }
  EXPECT_GT(net.channel().collisions(), 100u);
  // A substantial fraction of offered load never makes it.
  EXPECT_GT(static_cast<double>(lost), 0.2 * static_cast<double>(generated));
}

TEST(Aloha, CollisionsTriggerRetransmissions) {
  AlohaNetworkConfig cfg;
  cfg.num_nodes = 4;
  cfg.payload_interval = Duration::milliseconds(12);
  cfg.seed = 21;
  AlohaNetwork net{cfg};
  net.start();
  net.run_until(TimePoint::zero() + 5_s);
  std::uint64_t retransmissions = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    retransmissions += net.node_mac(i).stats().retransmissions;
  }
  EXPECT_GT(net.channel().collisions(), 0u);
  EXPECT_GT(retransmissions, 0u);
}

TEST(Aloha, FireAndForgetModeNeverListens) {
  AlohaNetworkConfig cfg = low_load(2);
  cfg.aloha.ack_data = false;
  AlohaNetwork net{cfg};
  net.start();
  net.run_until(TimePoint::zero() + 5_s);
  const auto& meter = net.node_board(0).radio().meter();
  EXPECT_EQ(meter.time_in(static_cast<int>(hw::RadioState::kRxListen),
                          net.simulator().now()),
            Duration::zero());
  EXPECT_GT(net.base_station().stats().data_received, 40u);
  EXPECT_EQ(net.base_station().stats().acks_sent, 0u);
}

TEST(Aloha, NodeRadioEnergyBelowTdmaAtSparseLoad) {
  // The contrast the comparison bench quantifies: without beacon tracking,
  // the random-access node's radio energy at sparse load is far below the
  // TDMA node's (which pays the listen window every cycle regardless).
  AlohaNetworkConfig cfg = low_load(5);
  AlohaNetwork aloha{cfg};
  aloha.start();
  aloha.run_until(TimePoint::zero() + 10_s);
  const double aloha_radio =
      aloha.node_board(0).radio().meter().total_energy(
          aloha.simulator().now());

  core::PaperSetup setup;
  core::BanConfig tdma_cfg =
      core::rpeak_static_config(setup, Duration::milliseconds(60));
  core::BanNetwork tdma{tdma_cfg};
  tdma.start();
  ASSERT_TRUE(tdma.run_until_joined(500_ms, TimePoint::zero() + 20_s));
  const sim::TimePoint t0 = tdma.simulator().now();
  const double before =
      tdma.node(0).board().radio().meter().total_energy(t0);
  tdma.run_until(t0 + 10_s);
  const double tdma_radio =
      tdma.node(0).board().radio().meter().total_energy(
          tdma.simulator().now()) -
      before;

  EXPECT_LT(aloha_radio, 0.5 * tdma_radio);
}

}  // namespace
}  // namespace bansim::mac
