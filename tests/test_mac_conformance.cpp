// Cross-protocol MAC conformance battery: every protocol behind the
// mac::NodeMacBase / mac::BaseStationMacBase seam must satisfy the same
// observable contract — associate and deliver data, survive beacon loss
// (where the protocol has beacons), re-associate after a crash/reboot, and
// interoperate with storage-driven death.  The suite is parameterized over
// mac::Protocol so adding a protocol to the zoo means adding one enum
// value here, not a new test file.
#include <gtest/gtest.h>

#include "check/fault_campaign.hpp"
#include "core/ban_network.hpp"
#include "mac/mac_base.hpp"

namespace bansim {
namespace {

using namespace bansim::sim::literals;
using core::AppKind;
using core::BanConfig;
using core::BanNetwork;
using sim::Duration;
using sim::TimePoint;

/// A hardened 3-node cell of the requested protocol.  Recovery knobs are
/// bounded everywhere so a severed link can never hang a run.
BanConfig protocol_config(mac::Protocol protocol, std::uint64_t seed) {
  BanConfig cfg;
  cfg.num_nodes = 3;
  cfg.seed = seed;
  cfg.app = AppKind::kEcgStreaming;
  cfg.protocol = protocol;
  cfg.tdma = mac::TdmaConfig::static_plan(Duration::milliseconds(30), 4);
  cfg.tdma.missed_beacon_limit = 2;
  cfg.tdma.search_listen = Duration::milliseconds(150);
  cfg.tdma.search_backoff_base = Duration::milliseconds(40);
  cfg.tdma.search_backoff_max = Duration::milliseconds(400);
  if (protocol == mac::Protocol::kDynamicTdma) {
    const auto keep = cfg.tdma;
    cfg.tdma = mac::TdmaConfig::dynamic_plan(Duration::milliseconds(10));
    cfg.tdma.reclaim_after_cycles = 4;
    cfg.tdma.missed_beacon_limit = keep.missed_beacon_limit;
    cfg.tdma.search_listen = keep.search_listen;
    cfg.tdma.search_backoff_base = keep.search_backoff_base;
    cfg.tdma.search_backoff_max = keep.search_backoff_max;
  }
  return cfg;
}

bool has_beacons(mac::Protocol protocol) {
  return protocol != mac::Protocol::kAloha;
}

class MacConformance : public ::testing::TestWithParam<mac::Protocol> {};

TEST_P(MacConformance, AssociatesAndDeliversData) {
  const mac::Protocol protocol = GetParam();
  BanNetwork net{protocol_config(protocol, 101)};
  net.start();
  ASSERT_TRUE(net.run_until_joined(100_ms, TimePoint::zero() + 20_s));

  EXPECT_EQ(net.base_station().mac_base().protocol(), protocol);
  net.run_until(net.simulator().now() + 5_s);

  const auto& per_node = net.base_station_app().per_node();
  for (std::size_t i = 0; i < net.num_nodes(); ++i) {
    core::SensorNode& node = net.node(i);
    EXPECT_EQ(node.mac_base().protocol(), protocol) << node.name();
    const mac::MacStatsSnapshot stats = node.mac_base().stats_snapshot();
    EXPECT_GT(stats.payloads_queued, 0u) << node.name();
    EXPECT_GT(stats.data_sent, 0u) << node.name();
    if (has_beacons(protocol)) {
      EXPECT_GT(stats.beacons_received, 0u) << node.name();
    }
    const auto it = per_node.find(node.address());
    ASSERT_NE(it, per_node.end()) << node.name() << " delivered nothing";
    EXPECT_GT(it->second.packets, 0u) << node.name();
  }
  // Every node made itself known to the base station.
  EXPECT_EQ(net.base_station().mac_base().joined_nodes(), net.num_nodes());
}

TEST_P(MacConformance, BeaconLossTriggersSearchAndReanchor) {
  const mac::Protocol protocol = GetParam();
  if (!has_beacons(protocol)) {
    GTEST_SKIP() << "ALOHA has no beacons to lose";
  }
  BanNetwork net{protocol_config(protocol, 202)};
  net.start();
  ASSERT_TRUE(net.run_until_joined(100_ms, TimePoint::zero() + 20_s));

  const auto before = net.node(0).mac_base().stats_snapshot();

  // Sever base station <-> node 1 (channel ids: 0 = bs, i + 1 = node i).
  net.channel().set_link(0, 1, false);
  net.run_until(net.simulator().now() + 1500_ms);
  const auto starved = net.node(0).mac_base().stats_snapshot();
  EXPECT_GT(starved.beacons_missed, before.beacons_missed);

  // Heal: the node re-anchors and data flows again.
  net.channel().set_link(0, 1, true);
  net.run_until(net.simulator().now() + 3_s);
  const auto healed = net.node(0).mac_base().stats_snapshot();
  EXPECT_GT(healed.beacons_received, starved.beacons_received);
  EXPECT_GT(healed.data_sent, starved.data_sent);
}

TEST_P(MacConformance, CrashRebootReassociates) {
  const mac::Protocol protocol = GetParam();
  BanConfig cfg = protocol_config(protocol, 303);
  cfg.fault_plan.enabled = true;
  fault::FaultEvent crash;
  crash.kind = fault::FaultKind::kCrash;
  crash.node = 2;
  crash.at = TimePoint::zero() + 4_s;
  crash.down = 400_ms;
  cfg.fault_plan.events.push_back(crash);

  const check::CampaignOutcome outcome =
      check::run_fault_campaign(cfg, {.horizon = 10_s, .drain = 3_s});
  EXPECT_EQ(outcome.violations, 0u) << outcome.violation_report;
  ASSERT_EQ(outcome.run.nodes.size(), 3u);
  const fault::NodeOutcome& victim = outcome.run.nodes[1];
  EXPECT_EQ(victim.crashes, 1u);
  EXPECT_EQ(victim.reboots, 1u);
  // The rebooted incarnation went on generating and delivering data.
  EXPECT_GT(victim.payloads_generated, 0u);
  EXPECT_GT(victim.payloads_delivered, 0u);
}

struct CrashRebootPin {
  const char* node;
  double energy_joules;
  std::uint64_t generated;
  std::uint64_t delivered;
  std::uint64_t crashes;
  std::uint64_t reboots;
  std::uint64_t resyncs;
  std::vector<std::int64_t> resync_ns;
  std::vector<std::int64_t> rejoin_ns;
};

std::vector<std::int64_t> ticks(const std::vector<Duration>& durations) {
  std::vector<std::int64_t> out;
  for (const Duration d : durations) out.push_back(d.ticks());
  return out;
}

// The run of CrashRebootReassociates, pinned exactly per node: the crash
// teardown, the reboot and the re-association each protocol runs move
// these numbers if a single timer, draw or frame moves.
TEST_P(MacConformance, CrashRebootGoldenPerNode) {
  const mac::Protocol protocol = GetParam();
  BanConfig cfg = protocol_config(protocol, 303);
  cfg.fault_plan.enabled = true;
  fault::FaultEvent crash;
  crash.kind = fault::FaultKind::kCrash;
  crash.node = 2;
  crash.at = TimePoint::zero() + 4_s;
  crash.down = 400_ms;
  cfg.fault_plan.events.push_back(crash);

  std::vector<CrashRebootPin> want;
  switch (protocol) {
    case mac::Protocol::kStaticTdma:
      want = {
          {"node1", 0.26950671179809721, 443, 430, 0, 0, 1, {4236401}, {}},
          {"node2", 0.26721949433701198, 443, 415, 1, 1, 2,
           {8515207, 22158739}, {47840471}},
          {"node3", 0.27138788044827761, 444, 430, 0, 0, 1, {20071469}, {}},
      };
      break;
    case mac::Protocol::kDynamicTdma:
      want = {
          {"node1", 0.24849266504172601, 443, 325, 0, 0, 2,
           {4066755, 6221159}, {}},
          {"node2", 0.2450434392554568, 443, 311, 1, 1, 3,
           {8345462, 6514497, 1407957}, {8941990}},
          {"node3", 0.24853007145859762, 444, 326, 0, 0, 1, {9864343}, {}},
      };
      break;
    case mac::Protocol::kAloha:
      want = {
          {"node1", 0.21339140459667799, 443, 447, 0, 0, 0, {}, {}},
          {"node2", 0.21823499044965519, 443, 455, 1, 1, 0, {}, {}},
          {"node3", 0.21326856128751601, 444, 456, 0, 0, 0, {}, {}},
      };
      break;
    case mac::Protocol::kCsmaCa:
      want = {
          {"node1", 0.37554354071839635, 443, 522, 0, 0, 1, {4029456}, {}},
          {"node2", 0.3686935660523416, 443, 487, 1, 1, 2,
           {8308163, 21939063}, {24939063}},
          {"node3", 0.37300972530142162, 444, 508, 0, 0, 1, {19864592}, {}},
      };
      break;
  }

  const check::CampaignOutcome outcome =
      check::run_fault_campaign(cfg, {.horizon = 10_s, .drain = 3_s});
  EXPECT_EQ(outcome.violations, 0u) << outcome.violation_report;
  ASSERT_EQ(outcome.run.nodes.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    const fault::NodeOutcome& got = outcome.run.nodes[i];
    SCOPED_TRACE(want[i].node);
    EXPECT_EQ(got.node, want[i].node);
    EXPECT_EQ(got.energy_joules, want[i].energy_joules);
    EXPECT_EQ(got.payloads_generated, want[i].generated);
    EXPECT_EQ(got.payloads_delivered, want[i].delivered);
    EXPECT_EQ(got.crashes, want[i].crashes);
    EXPECT_EQ(got.reboots, want[i].reboots);
    EXPECT_EQ(got.resyncs, want[i].resyncs);
    EXPECT_EQ(ticks(got.resync_times), want[i].resync_ns);
    EXPECT_EQ(ticks(got.rejoin_times), want[i].rejoin_ns);
  }
}

TEST_P(MacConformance, StorageDepletionDeathIsClean) {
  const mac::Protocol protocol = GetParam();
  BanConfig cfg = protocol_config(protocol, 404);
  cfg.storage.enabled = true;
  cfg.storage.kind = hw::StorageKind::kBattery;
  // A few milliamp-seconds: dead well inside the horizon at ~10-30 mW.
  cfg.storage.battery.capacity_mah = 0.004;
  cfg.storage.check = Duration::milliseconds(50);

  const check::LifetimeOutcome outcome = check::run_lifetime_campaign(
      cfg, {.horizon = 10_s, .poll = Duration::milliseconds(250)});
  EXPECT_EQ(outcome.violations, 0u) << outcome.violation_report;
  EXPECT_TRUE(outcome.death_observed);
  EXPECT_GT(outcome.storage.depletion_deaths, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    ProtocolZoo, MacConformance,
    ::testing::Values(mac::Protocol::kStaticTdma,
                      mac::Protocol::kDynamicTdma, mac::Protocol::kAloha,
                      mac::Protocol::kCsmaCa),
    [](const ::testing::TestParamInfo<mac::Protocol>& param) {
      return std::string(mac::to_string(param.param));
    });

}  // namespace
}  // namespace bansim
