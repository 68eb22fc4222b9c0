// Tests of the random-access baseline MAC: delivery at low load, ARQ
// recovery of collisions, congestion collapse at high load, and the
// energy contrast against TDMA.  Each runs a BanNetwork ALOHA cell whose
// nodes carry no application; a fixed-rate generator supplies the load.
#include <gtest/gtest.h>

#include <vector>

#include "core/bansim.hpp"

namespace bansim::mac {
namespace {

using namespace bansim::sim::literals;
using namespace bansim::os::literals;
using core::BanConfig;
using core::BanNetwork;
using sim::Duration;
using sim::TimePoint;

/// Node i of the cell queues one 18-byte payload every `interval`, the
/// first at interval·(1 + i/N): the N generators' phases spread over one
/// interval, as independent sensor clocks would spread them.
class FixedRateLoad {
 public:
  FixedRateLoad(BanNetwork& net, Duration interval)
      : generated_(net.num_nodes(), 0) {
    const std::size_t n = net.num_nodes();
    for (std::size_t i = 0; i < n; ++i) {
      core::SensorNode* node = &net.node(i);
      std::uint64_t* generated = &generated_[i];
      const Duration phase = interval * static_cast<std::int64_t>(i) /
                             static_cast<std::int64_t>(n);
      net.simulator().schedule_in(phase, [node, generated, interval] {
        node->node_os().timers().start_periodic(
            "app.generate"_task, interval, [node, generated] {
              ++*generated;
              node->aloha_mac().queue_payload(
                  std::vector<std::uint8_t>(18, 0xEC));
            });
      });
    }
  }

  /// Payloads node `i` has generated so far.
  [[nodiscard]] std::uint64_t generated(std::size_t i) const {
    return generated_[i];
  }

 private:
  std::vector<std::uint64_t> generated_;
};

BanConfig aloha_cell(std::size_t nodes, std::uint64_t seed) {
  BanConfig cfg;
  cfg.num_nodes = nodes;
  cfg.protocol = mac::Protocol::kAloha;
  cfg.app = core::AppKind::kNone;
  cfg.seed = seed;
  return cfg;
}

BanConfig low_load(std::size_t nodes) { return aloha_cell(nodes, 9); }

/// Sparse traffic: one payload per node every 200 ms.
constexpr Duration kSparse = Duration::milliseconds(200);

TEST(Aloha, SingleNodeDeliversEverything) {
  BanNetwork net{low_load(1)};
  net.start();
  const FixedRateLoad load{net, kSparse};
  net.run_until(TimePoint::zero() + 10_s);
  EXPECT_NEAR(static_cast<double>(load.generated(0)), 50.0, 3.0);
  const AlohaNodeStats& node = net.node(0).aloha_mac().stats();
  EXPECT_EQ(net.base_station().mac_base().stats().data_received,
            node.data_sent);
  EXPECT_EQ(node.retry_drops, 0u);
  EXPECT_EQ(node.acks_received, node.data_sent);
}

TEST(Aloha, SparseMultiNodeTrafficMostlySurvives) {
  BanNetwork net{low_load(5)};
  net.start();
  const FixedRateLoad load{net, kSparse};
  net.run_until(TimePoint::zero() + 10_s);
  std::uint64_t generated = 0;
  std::uint64_t dropped = 0;
  for (std::size_t i = 0; i < 5; ++i) {
    generated += load.generated(i);
    dropped += net.node(i).aloha_mac().stats().retry_drops +
               net.node(i).aloha_mac().stats().payloads_dropped;
  }
  // Unique payloads delivered = generated - dropped - still queued.
  EXPECT_GT(generated, 200u);
  EXPECT_LT(static_cast<double>(dropped), 0.05 * static_cast<double>(generated));
  // ARQ recovered any collision: retransmissions may be nonzero.
  EXPECT_GT(net.base_station().mac_base().stats().data_received,
            generated * 9 / 10);
}

TEST(Aloha, HighLoadCollapsesDelivery) {
  // 5 nodes each offering a payload every 4 ms over a ~0.5 ms air time
  // channel with ACK turnarounds: far beyond ALOHA's capacity.
  BanNetwork net{aloha_cell(5, 4)};
  net.start();
  const FixedRateLoad load{net, Duration::milliseconds(4)};
  net.run_until(TimePoint::zero() + 5_s);

  std::uint64_t generated = 0;
  std::uint64_t lost = 0;
  for (std::size_t i = 0; i < 5; ++i) {
    generated += load.generated(i);
    lost += net.node(i).aloha_mac().stats().retry_drops +
            net.node(i).aloha_mac().stats().payloads_dropped;
  }
  EXPECT_GT(net.channel().collisions(), 100u);
  // A substantial fraction of offered load never makes it.
  EXPECT_GT(static_cast<double>(lost), 0.2 * static_cast<double>(generated));
}

TEST(Aloha, CollisionsTriggerRetransmissions) {
  BanNetwork net{aloha_cell(4, 21)};
  net.start();
  const FixedRateLoad load{net, Duration::milliseconds(12)};
  net.run_until(TimePoint::zero() + 5_s);
  std::uint64_t retransmissions = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    retransmissions += net.node(i).aloha_mac().stats().retransmissions;
  }
  EXPECT_GT(net.channel().collisions(), 0u);
  EXPECT_GT(retransmissions, 0u);
}

TEST(Aloha, FireAndForgetModeNeverListens) {
  BanConfig cfg = low_load(2);
  cfg.aloha.ack_data = false;
  BanNetwork net{cfg};
  net.start();
  const FixedRateLoad load{net, kSparse};
  net.run_until(TimePoint::zero() + 5_s);
  const auto& meter = net.node(0).board().radio().meter();
  EXPECT_EQ(meter.time_in(static_cast<int>(hw::RadioState::kRxListen),
                          net.simulator().now()),
            Duration::zero());
  const BaseStationStats& bs = net.base_station().mac_base().stats();
  EXPECT_GT(bs.data_received, 40u);
  EXPECT_EQ(bs.acks_sent, 0u);
}

TEST(Aloha, NodeRadioEnergyBelowTdmaAtSparseLoad) {
  // The contrast the comparison bench quantifies: without beacon tracking,
  // the random-access node's radio energy at sparse load is far below the
  // TDMA node's (which pays the listen window every cycle regardless).
  BanNetwork aloha{low_load(5)};
  aloha.start();
  const FixedRateLoad load{aloha, kSparse};
  aloha.run_until(TimePoint::zero() + 10_s);
  const double aloha_radio =
      aloha.node(0).board().radio().meter().total_energy(
          aloha.simulator().now());

  core::PaperSetup setup;
  BanConfig tdma_cfg =
      core::rpeak_static_config(setup, Duration::milliseconds(60));
  BanNetwork tdma{tdma_cfg};
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
