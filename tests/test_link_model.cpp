#include "phy/link_model.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "core/ban_network.hpp"

namespace bansim::phy {
namespace {

using namespace bansim::sim::literals;
using sim::Duration;
using sim::TimePoint;

LinkModel chest_and_ankle() {
  return LinkModel{{{"hip", 0.10, 0.0, 0.05},
                    {"chest", 0.0, 0.35, 0.08},
                    {"left_ankle", -0.12, -0.95, 0.0}},
                   LinkBudget{},
                   /*seed=*/5};
}

TEST(LinkModel, StandardLayoutShapes) {
  const auto layout = standard_ban_layout(5);
  ASSERT_EQ(layout.size(), 6u);
  EXPECT_EQ(layout[0].site, "hip");
  EXPECT_EQ(layout[1].site, "chest");
  EXPECT_EQ(layout[2].site, "head");
}

TEST(LinkModel, StandardLayoutRejectsMoreThanSixNodes) {
  EXPECT_EQ(standard_ban_layout(6).size(), 7u);
  try {
    (void)standard_ban_layout(7);
    FAIL() << "a 7-node standard layout must be rejected";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("at most 6"), std::string::npos) << what;
    EXPECT_NE(what.find("got 7"), std::string::npos) << what;
  }
}

TEST(LinkModel, DistanceIsSymmetricAndFloored) {
  const LinkModel m = chest_and_ankle();
  EXPECT_DOUBLE_EQ(m.distance_m(0, 1), m.distance_m(1, 0));
  EXPECT_GE(m.distance_m(0, 0), m.budget().reference_distance_m);
  EXPECT_GT(m.distance_m(0, 2), m.distance_m(0, 1));
}

TEST(LinkModel, PathLossGrowsWithDistance) {
  // Shadowing makes single links noisy; compare with shadowing disabled.
  LinkBudget budget;
  budget.shadowing_sigma_db = 0.0;
  LinkModel m{standard_ban_layout(6), budget, 1};
  // hip->chest is the shortest link, hip->head is much longer.
  EXPECT_LT(m.path_loss_db(0, 1), m.path_loss_db(0, 2));
  EXPECT_LT(m.rx_power_dbm(0, 2), m.rx_power_dbm(0, 1));
}

TEST(LinkModel, ShadowingIsReciprocalAndSeeded) {
  const LinkModel a = chest_and_ankle();
  const LinkModel b = chest_and_ankle();
  EXPECT_DOUBLE_EQ(a.path_loss_db(0, 2), a.path_loss_db(2, 0));
  EXPECT_DOUBLE_EQ(a.path_loss_db(0, 2), b.path_loss_db(0, 2));
  const LinkModel c{{{"hip", 0.10, 0.0, 0.05},
                     {"chest", 0.0, 0.35, 0.08},
                     {"left_ankle", -0.12, -0.95, 0.0}},
                    LinkBudget{},
                    /*seed=*/6};
  EXPECT_NE(a.path_loss_db(0, 2), c.path_loss_db(0, 2));
}

TEST(LinkModel, BerAndPerBounds) {
  const LinkModel m = chest_and_ankle();
  for (std::size_t a = 0; a < m.num_devices(); ++a) {
    for (std::size_t b = 0; b < m.num_devices(); ++b) {
      if (a == b) continue;
      const double ber = m.bit_error_rate(a, b);
      const double per = m.frame_error_rate(a, b, 26);
      EXPECT_GE(ber, 0.0);
      EXPECT_LE(ber, 0.5);
      EXPECT_GE(per, 0.0);
      EXPECT_LE(per, 1.0);
    }
  }
}

TEST(LinkModel, PerGrowsWithFrameLength) {
  LinkBudget budget;
  budget.tx_power_dbm = -14.0;  // weaken the worst link into the BER region
  budget.shadowing_sigma_db = 0.0;
  LinkModel m{standard_ban_layout(6), budget, 1};
  ASSERT_TRUE(m.connected(0, 6));
  const double short_frame = m.frame_error_rate(0, 6, 9);
  const double long_frame = m.frame_error_rate(0, 6, 26);
  EXPECT_GT(long_frame, short_frame);
  EXPECT_GT(long_frame, 0.0);
}

TEST(LinkModel, OutOfBudgetLinkIsDisconnected) {
  LinkBudget budget;
  budget.tx_power_dbm = -60.0;  // far below any closing budget
  budget.shadowing_sigma_db = 0.0;
  LinkModel m{standard_ban_layout(6), budget, 1};
  EXPECT_FALSE(m.connected(0, 6));
  EXPECT_DOUBLE_EQ(m.frame_error_rate(0, 6, 26), 1.0);
}

TEST(LinkModel, NominalBanBudgetClosesAllStandardLinks) {
  LinkModel m{standard_ban_layout(6), LinkBudget{}, 42};
  for (std::size_t i = 1; i <= 6; ++i) {
    EXPECT_TRUE(m.connected(0, i)) << "link hip->" << m.position(i).site;
    EXPECT_LT(m.frame_error_rate(0, i, 26), 0.05)
        << "link hip->" << m.position(i).site;
  }
}

/// Two devices exactly at the reference distance with shadowing disabled
/// and reference loss tuned so the link sits precisely at the receiver
/// sensitivity: rx = -5 - 75 = -80 dBm = sensitivity_dbm.
LinkModel at_sensitivity_link() {
  LinkBudget budget;
  budget.reference_loss_db = 75.0;
  budget.shadowing_sigma_db = 0.0;
  return LinkModel{{{"a", 0.0, 0.0, 0.0}, {"b", 0.1, 0.0, 0.0}}, budget, 1};
}

TEST(LinkModel, AtSensitivityLinkIsConnectedEdgeInclusive) {
  const LinkModel m = at_sensitivity_link();
  EXPECT_DOUBLE_EQ(m.rx_power_dbm(0, 1), m.budget().sensitivity_dbm);
  // The sensitivity definition is inclusive: exactly at the limit the
  // receiver still decodes (with the BER the noise floor implies)...
  EXPECT_TRUE(m.connected(0, 1));
  EXPECT_LT(m.frame_error_rate(0, 1, 26), 1.0);
  // ...and any transient loss at all opens the link.
  EXPECT_FALSE(m.connected(0, 1, 0.001));
  EXPECT_DOUBLE_EQ(m.frame_error_rate(0, 1, 26, 0.001), 1.0);
}

TEST(LinkModel, HandComputedBerAndFerAtSensitivity) {
  // At the sensitivity edge: SNR = -80 - (-91) = 11 dB, linear 10^1.1;
  // BER = 0.5 * exp(-10^1.1 / 2)             = 9.230988437601748e-4,
  // FER(26 bytes: 26*8 + 48 = 256 bits)      = 1 - (1-BER)^256
  //                                          = 0.21055289169122127.
  const LinkModel m = at_sensitivity_link();
  EXPECT_NEAR(m.bit_error_rate(0, 1), 9.230988437601748e-4, 1e-15);
  EXPECT_NEAR(m.frame_error_rate(0, 1, 26), 0.21055289169122127, 1e-12);
}

TEST(LinkModel, ZeroByteFrameStillRisksOverheadBits) {
  // A zero-byte frame is all preamble/address/CRC: 48 bits on the air.
  // 1 - (1-BER)^48 = 0.04336102735466363 at the sensitivity-edge BER.
  const LinkModel m = at_sensitivity_link();
  const double fer0 = m.frame_error_rate(0, 1, 0);
  EXPECT_NEAR(fer0, 0.04336102735466363, 1e-12);
  EXPECT_GT(fer0, 0.0);
  EXPECT_LT(fer0, m.frame_error_rate(0, 1, 1));  // +8 payload bits
}

TEST(LinkModel, ExtraLossMatchesEquivalentStaticPathLoss) {
  // Transient extra loss must reproduce a statically lossier link bit for
  // bit: +6 dB of fade == +6 dB of reference loss.
  LinkBudget near_budget;
  near_budget.reference_loss_db = 69.0;
  near_budget.shadowing_sigma_db = 0.0;
  const LinkModel faded{{{"a", 0.0, 0.0, 0.0}, {"b", 0.1, 0.0, 0.0}},
                        near_budget, 1};
  const LinkModel statically_lossy = at_sensitivity_link();  // 75 dB
  EXPECT_DOUBLE_EQ(faded.bit_error_rate(0, 1, 6.0),
                   statically_lossy.bit_error_rate(0, 1));
  EXPECT_DOUBLE_EQ(faded.frame_error_rate(0, 1, 26, 6.0),
                   statically_lossy.frame_error_rate(0, 1, 26));
  EXPECT_EQ(faded.connected(0, 1, 6.0), statically_lossy.connected(0, 1));
}

TEST(LinkModelIntegration, NetworkStillConvergesOnLossyChannel) {
  core::BanConfig cfg;
  cfg.num_nodes = 5;
  cfg.protocol = mac::Protocol::kDynamicTdma;
  cfg.tdma = mac::TdmaConfig::dynamic_plan();
  cfg.app = core::AppKind::kNone;
  cfg.use_link_model = true;
  cfg.link_budget.tx_power_dbm = -12.0;  // weaker than the platform's -5
  core::BanNetwork net{cfg};
  net.start();
  EXPECT_TRUE(net.run_until_joined(200_ms, TimePoint::zero() + 30_s));
}

TEST(LinkModelIntegration, SevenLinkedNodesWithoutPositionsAreRejected) {
  core::BanConfig cfg;
  cfg.num_nodes = 7;
  cfg.use_link_model = true;
  EXPECT_THROW(core::BanNetwork{cfg}, std::invalid_argument);
  // Explicit positions lift the standard layout's limit.
  cfg.body_positions = standard_ban_layout(6);
  cfg.body_positions.push_back({"back", 0.0, 0.30, -0.10});
  EXPECT_NO_THROW(core::BanNetwork{cfg});
}

TEST(LinkModelIntegration, WeakLinksDropFramesAndAckModeRecovers) {
  // Controlled geometry: node1 on the chest (solid link), node2 2.05 m
  // away (~-79.5 dBm received, ~10 % frame error at 26 bytes).
  const std::vector<BodyPosition> positions = {
      {"hip", 0.0, 0.0, 0.0},
      {"chest", 0.0, 0.35, 0.08},
      {"remote", 2.05, 0.0, 0.0},
  };
  auto delivered = [&](bool ack) {
    core::BanConfig cfg;
    cfg.num_nodes = 2;
    cfg.tdma = mac::TdmaConfig::static_plan(60_ms, 5);
    cfg.tdma.ack_data = ack;
    cfg.app = core::AppKind::kEcgStreaming;
    cfg.streaming.sample_rate_hz = 100;
    cfg.use_link_model = true;
    cfg.body_positions = positions;
    cfg.link_budget.shadowing_sigma_db = 0.0;
    core::BanNetwork net{cfg};
    net.start();
    if (!net.run_until_joined(500_ms, TimePoint::zero() + 30_s)) return -1.0;
    const auto sent_before = net.node(1).mac().stats().data_sent;
    const auto got_before = net.base_station_app().per_node().count(2)
                                ? net.base_station_app().per_node().at(2).packets
                                : 0;
    net.run_until(net.simulator().now() + 20_s);
    const auto sent = net.node(1).mac().stats().data_sent - sent_before;
    const auto got = net.base_station_app().per_node().at(2).packets - got_before;
    EXPECT_GT(net.channel().bit_error_drops(), 0u);
    return sent ? static_cast<double>(got) / static_cast<double>(sent) : 0.0;
  };
  const double without_ack = delivered(false);
  const double with_ack = delivered(true);
  ASSERT_GE(without_ack, 0.0);
  ASSERT_GE(with_ack, 0.0);
  EXPECT_LT(without_ack, 1.0);  // the weak link really loses frames
  // ARQ recovers goodput: unique payloads delivered per attempt ratio is
  // not directly comparable, but delivery per *sent frame* must not be
  // worse, and losses must be visible in both.
  EXPECT_GE(with_ack + 0.05, without_ack);
}

TEST(LinkModelIntegration, DisabledByDefaultNoBitErrors) {
  core::BanConfig cfg;
  cfg.num_nodes = 3;
  cfg.tdma = mac::TdmaConfig::static_plan(60_ms, 5);
  cfg.app = core::AppKind::kEcgStreaming;
  cfg.streaming.sample_rate_hz = 105;
  core::BanNetwork net{cfg};
  net.start();
  ASSERT_TRUE(net.run_until_joined(200_ms, TimePoint::zero() + 20_s));
  net.run_until(net.simulator().now() + 5_s);
  EXPECT_EQ(net.channel().bit_error_drops(), 0u);
}

}  // namespace
}  // namespace bansim::phy
