// NetworkBuilder roster validation, event-arena pre-sizing, and the checks
// and naming rule of multi-cell BanNetworks.
#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/ban_network.hpp"
#include "core/network_builder.hpp"
#include "mac/tdma_config.hpp"
#include "os/probe.hpp"

namespace bansim {
namespace {

/// What a cell's stacks reference; it outlives every cell it builds.
struct Harness {
  sim::SimContext context{42};
  phy::Channel channel{context};
  os::NullProbe probe;
  os::CycleCostModel costs;

  /// Builds `config` as a lone cell.
  core::BuiltCell build(const core::BanConfig& config) {
    return core::NetworkBuilder::build_cell(context, channel, config, 0, 1,
                                            probe, costs);
  }
};

/// What build_cell's std::invalid_argument says about `config`.
std::string build_error(const core::BanConfig& config) {
  Harness harness;
  try {
    (void)harness.build(config);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

/// What the multi-cell BanNetwork constructor's std::invalid_argument says.
std::string multi_cell_error(const std::vector<core::BanConfig>& cells) {
  try {
    core::BanNetwork network{cells};
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

/// A TDMA cell on PAN `pan`: three nodes from address `offset` + 1.
core::BanConfig cell_of(std::uint8_t pan, net::NodeId offset) {
  core::BanConfig cfg;
  cfg.num_nodes = 3;
  cfg.tdma.pan_id = pan;
  cfg.address_offset = offset;
  cfg.seed = 77 + pan;
  return cfg;
}

// A network's roster of cells must name at least one cell.
TEST(NetworkBuilder, EmptyRosterIsRejected) {
  EXPECT_EQ(multi_cell_error({}), "BanNetwork needs at least one cell");
}

TEST(NetworkBuilder, InvalidTdmaConfigIsRejected) {
  // Programmatic construction bypasses config_io, so the builder re-runs
  // TdmaConfig::validate() — the same degenerate plans hard-error here.
  core::BanConfig config;
  config.num_nodes = 2;
  config.tdma.ack_data = true;
  config.tdma.max_retries = 0;
  EXPECT_NE(build_error(config), "");
  config.tdma = mac::TdmaConfig{};
  config.tdma.tx_queue_cap = 0;
  EXPECT_NE(build_error(config), "");
  config.tdma = mac::TdmaConfig{};
  config.tdma.missed_beacon_limit = 3;
  config.tdma.reclaim_after_cycles = 2;
  EXPECT_NE(build_error(config), "");
}

TEST(NetworkBuilder, ZeroNodeBanConfigIsBaseStationOnly) {
  // num_nodes = 0 with no roster is an explicit beacon-only network.
  core::BanConfig config;
  config.num_nodes = 0;
  core::BanNetwork network{config};
  EXPECT_EQ(network.num_nodes(), 0u);
}

TEST(NetworkBuilder, ExplicitlyAllowedEmptyRosterBuilds) {
  core::BanConfig config;
  config.num_nodes = 0;
  Harness harness;
  const core::BuiltCell cell = harness.build(config);
  EXPECT_NE(cell.bs, nullptr);
  EXPECT_TRUE(cell.nodes.empty());
}

TEST(NetworkBuilder, DuplicateAddressesAreRejected) {
  core::BanConfig config;
  config.roster.resize(3);
  config.roster[0].address = 9;
  config.roster[2].address = 9;  // collides with node 0
  EXPECT_NE(build_error(config), "");
}

TEST(NetworkBuilder, ExplicitAddressCollidingWithPositionalIsRejected) {
  core::BanConfig config;
  config.roster.resize(3);
  // Node 1's positional default is offset + 2 == 2; pinning node 0 to it
  // must hard-error rather than silently cross-deliver frames.
  config.roster[0].address = 2;
  EXPECT_NE(build_error(config), "");
}

TEST(NetworkBuilder, BaseStationAddressCollisionIsRejected) {
  core::BanConfig config;
  config.tdma.pan_id = 1;
  config.roster.resize(2);
  config.roster[0].address = mac::TdmaConfig::bs_address(1);
  EXPECT_NE(build_error(config), "");
}

// Only asserts (compiled out of optimized builds) guarded these before.
TEST(NetworkBuilder, ReservedAddressesAreRejected) {
  core::BanConfig config;
  config.roster.resize(2);
  config.roster[1].address = net::kBroadcastId;
  EXPECT_EQ(build_error(config),
            "node.2.address = 65535 is reserved (broadcast)");
  config.roster[1].address = mac::kFreeSlot;
  EXPECT_EQ(build_error(config),
            "node.2.address = 65534 is reserved (free-slot marker)");
  config.roster[1].address = 65533;
  EXPECT_EQ(build_error(config), "");
}

TEST(NetworkBuilder, StreamingPayloadMustFitOneFrame) {
  core::BanConfig config;
  config.app = core::AppKind::kEcgStreaming;
  config.roster.resize(2);
  for (const std::size_t bytes : {0, 25, 40}) {
    config.streaming.payload_bytes = bytes;
    EXPECT_EQ(build_error(config),
              "streaming.payload_bytes = " + std::to_string(bytes) +
                  " in roster entry 0 is outside 1..24 (one frame's payload)");
  }
  config.streaming.payload_bytes = 24;
  EXPECT_EQ(build_error(config), "");
  // A per-node override is checked on that node.
  config.roster[1].streaming = config.streaming;
  config.roster[1].streaming->payload_bytes = 25;
  EXPECT_EQ(build_error(config),
            "streaming.payload_bytes = 25 in roster entry 1 is outside 1..24 "
            "(one frame's payload)");
  // Nodes that do not stream ignore the section.
  config.roster[1].app = core::AppKind::kRpeak;
  EXPECT_EQ(build_error(config), "");
}

// At 1e12 bpm and above the ECG beat train never advances and a run hangs;
// zero, negative and NaN rates used to run without complaint.
TEST(NetworkBuilder, HeartRateMustBeFiniteAndPhysiological) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const struct {
    double bpm;
    const char* shown;
  } bad[] = {{1e308, "1e+308"}, {inf, "inf"}, {1e12, "1e+12"},
             {0.0, "0"},        {-1.0, "-1"}, {nan, "nan"}};
  for (const auto& [bpm, shown] : bad) {
    core::BanConfig config;
    config.roster.resize(2);
    config.ecg.heart_rate_bpm = bpm;
    EXPECT_EQ(build_error(config),
              std::string("ecg.heart_rate_bpm = ") + shown +
                  " in roster entry 0 is outside 20..300 bpm");
    config.ecg.heart_rate_bpm = 75.0;
    config.roster[1].ecg = config.ecg;
    config.roster[1].ecg->heart_rate_bpm = bpm;
    EXPECT_EQ(build_error(config),
              std::string("ecg.heart_rate_bpm = ") + shown +
                  " in roster entry 1 is outside 20..300 bpm");
  }
  core::BanConfig config;
  config.roster.resize(2);
  config.ecg.heart_rate_bpm = 20.0;
  config.roster[1].ecg = config.ecg;
  config.roster[1].ecg->heart_rate_bpm = 300.0;
  EXPECT_EQ(build_error(config), "");
}

TEST(NetworkBuilder, DistinctExplicitAddressesAreAccepted) {
  core::BanConfig config;
  config.roster.resize(3);
  config.roster[1].address = 77;
  Harness harness;
  EXPECT_EQ(harness.build(config).nodes.size(), 3u);
}

TEST(NetworkBuilder, PreSizesTheEventArena) {
  core::BanConfig config;
  config.num_nodes = 5;
  Harness harness;
  const core::BuiltCell cell = harness.build(config);
  // 16 events per stack, base station included, reserved up front so the
  // first join burst does not grow the arena.
  EXPECT_GE(harness.context.simulator.event_capacity(), 16u * 6u);
}

// A lone cell keeps the single-BAN names; co-located cells suffix their
// index (the stream names follow the same rule and are pinned by
// GoldenEnergy).
TEST(NetworkBuilder, CellNamesFollowTheCellIndex) {
  core::BanNetwork one{cell_of(1, 0)};
  EXPECT_EQ(one.num_cells(), 1u);
  EXPECT_EQ(one.base_station().name(), "bs");
  EXPECT_EQ(one.node(2).name(), "node3");

  core::BanNetwork two{{cell_of(1, 0), cell_of(2, 100)}};
  ASSERT_EQ(two.num_cells(), 2u);
  EXPECT_EQ(two.base_station(0).name(), "bs0");
  EXPECT_EQ(two.base_station(1).name(), "bs1");
  EXPECT_EQ(two.node(2, 1).name(), "node103");
}

// The typed MAC accessors check the protocol in every build type.
TEST(NetworkBuilder, TypedMacAccessorsCheckTheProtocol) {
  core::BanNetwork network{cell_of(1, 0)};
  EXPECT_EQ(&network.node(0).mac(), &network.node(0).mac_base());
  try {
    (void)network.node(0).aloha_mac();
    FAIL() << "a TDMA node handed out its MAC as ALOHA";
  } catch (const std::logic_error& e) {
    EXPECT_STREQ(e.what(), "node1 runs the static_tdma MAC, not aloha");
  }
  EXPECT_THROW((void)network.base_station().csma_mac(), std::logic_error);
}

TEST(NetworkBuilder, MultiCellRejectsARepeatedPanId) {
  EXPECT_EQ(multi_cell_error({cell_of(1, 0), cell_of(1, 100)}),
            "cells 0 and 1 share pan id 1; co-located cells need distinct "
            "pan ids");
}

TEST(NetworkBuilder, MultiCellRejectsOverlappingAddresses) {
  EXPECT_EQ(multi_cell_error({cell_of(1, 0), cell_of(2, 2)}),
            "address 3 is used in cells 0 and 1; co-located cells need "
            "disjoint address ranges");
  // A node may not take another cell's base-station address either.
  core::BanConfig second = cell_of(2, 100);
  second.roster.resize(3);
  second.roster[0].address = mac::TdmaConfig::bs_address(1);
  EXPECT_EQ(multi_cell_error({cell_of(1, 0), second}),
            "address 256 is used in cells 0 and 1; co-located cells need "
            "disjoint address ranges");
}

TEST(NetworkBuilder, MultiCellRejectsLinkModelFaultPlanAndStorage) {
  core::BanConfig linked = cell_of(2, 100);
  linked.use_link_model = true;
  EXPECT_EQ(multi_cell_error({cell_of(1, 0), linked}),
            "cell 1 sets use_link_model, which only a one-cell network "
            "supports");

  core::BanConfig faulted = cell_of(1, 0);
  faulted.fault_plan.enabled = true;
  faulted.fault_plan.crashes.enabled = true;
  EXPECT_EQ(multi_cell_error({faulted, cell_of(2, 100)}),
            "cell 0 sets a fault plan, which only a one-cell network "
            "supports");

  core::BanConfig stored = cell_of(2, 100);
  stored.roster.resize(3);
  stored.roster[1].storage = hw::StorageParams{};
  stored.roster[1].storage->enabled = true;
  EXPECT_EQ(multi_cell_error({cell_of(1, 0), stored}),
            "cell 1 gives node102 energy storage, which only a one-cell "
            "network supports");
}

TEST(NetworkBuilder, MultiCellCannotBeReset) {
  core::BanNetwork network{{cell_of(1, 0), cell_of(2, 100)}};
  try {
    network.reset(cell_of(1, 0));
    FAIL() << "reset of a two-cell network was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "BanNetwork::reset: a network of 2 cells cannot be reset; "
                 "build a new one");
  }
}

}  // namespace
}  // namespace bansim
