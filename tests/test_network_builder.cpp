// NetworkBuilder roster validation and event-arena pre-sizing.
#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>

#include "core/ban_network.hpp"
#include "core/network_builder.hpp"
#include "mac/tdma_config.hpp"
#include "os/probe.hpp"

namespace bansim {
namespace {

TEST(NetworkBuilder, EmptyRosterIsRejected) {
  sim::SimContext context{42};
  phy::Channel channel{context};
  os::NullProbe probe;
  core::CellPlan plan;  // roster left empty
  EXPECT_THROW(core::NetworkBuilder::build_cell(context, channel, plan, probe,
                                                os::CycleCostModel{}),
               std::invalid_argument);
}

TEST(NetworkBuilder, InvalidTdmaConfigIsRejected) {
  // Programmatic construction bypasses config_io, so the builder re-runs
  // TdmaConfig::validate() — the same degenerate plans hard-error here.
  sim::SimContext context{42};
  phy::Channel channel{context};
  os::NullProbe probe;
  core::CellPlan plan;
  plan.roster.resize(2);
  plan.tdma.ack_data = true;
  plan.tdma.max_retries = 0;
  EXPECT_THROW(core::NetworkBuilder::build_cell(context, channel, plan, probe,
                                                os::CycleCostModel{}),
               std::invalid_argument);
  plan.tdma = mac::TdmaConfig{};
  plan.tdma.tx_queue_cap = 0;
  EXPECT_THROW(core::NetworkBuilder::build_cell(context, channel, plan, probe,
                                                os::CycleCostModel{}),
               std::invalid_argument);
  plan.tdma = mac::TdmaConfig{};
  plan.tdma.missed_beacon_limit = 3;
  plan.tdma.reclaim_after_cycles = 2;
  EXPECT_THROW(core::NetworkBuilder::build_cell(context, channel, plan, probe,
                                                os::CycleCostModel{}),
               std::invalid_argument);
}

TEST(NetworkBuilder, ZeroNodeBanConfigIsBaseStationOnly) {
  // num_nodes = 0 is an explicit beacon-only network, not a mistake: the
  // accidental analogue (a CellPlan whose roster was never resized) is the
  // case EmptyRosterIsRejected covers.
  core::BanConfig config;
  config.num_nodes = 0;
  core::BanNetwork network{config};
  EXPECT_EQ(network.num_nodes(), 0u);
}

TEST(NetworkBuilder, ExplicitlyAllowedEmptyRosterBuilds) {
  sim::SimContext context{42};
  phy::Channel channel{context};
  os::NullProbe probe;
  core::CellPlan plan;
  plan.allow_empty_roster = true;
  const core::BuiltCell cell = core::NetworkBuilder::build_cell(
      context, channel, plan, probe, os::CycleCostModel{});
  EXPECT_NE(cell.bs, nullptr);
  EXPECT_TRUE(cell.nodes.empty());
}

TEST(NetworkBuilder, DuplicateAddressesAreRejected) {
  sim::SimContext context{42};
  phy::Channel channel{context};
  os::NullProbe probe;
  core::CellPlan plan;
  plan.roster.resize(3);
  plan.roster[0].address = 9;
  plan.roster[2].address = 9;  // collides with node 0
  EXPECT_THROW(core::NetworkBuilder::build_cell(context, channel, plan, probe,
                                                os::CycleCostModel{}),
               std::invalid_argument);
}

TEST(NetworkBuilder, ExplicitAddressCollidingWithPositionalIsRejected) {
  sim::SimContext context{42};
  phy::Channel channel{context};
  os::NullProbe probe;
  core::CellPlan plan;
  plan.roster.resize(3);
  // Node 1's positional default is offset + 2 == 2; pinning node 0 to it
  // must hard-error rather than silently cross-deliver frames.
  plan.roster[0].address = 2;
  EXPECT_THROW(core::NetworkBuilder::build_cell(context, channel, plan, probe,
                                                os::CycleCostModel{}),
               std::invalid_argument);
}

TEST(NetworkBuilder, BaseStationAddressCollisionIsRejected) {
  sim::SimContext context{42};
  phy::Channel channel{context};
  os::NullProbe probe;
  core::CellPlan plan;
  plan.tdma.pan_id = 1;
  plan.roster.resize(2);
  plan.roster[0].address = mac::TdmaConfig::bs_address(1);
  EXPECT_THROW(core::NetworkBuilder::build_cell(context, channel, plan, probe,
                                                os::CycleCostModel{}),
               std::invalid_argument);
}

/// What build_cell's std::invalid_argument says about `plan`.
std::string build_error(const core::CellPlan& plan) {
  sim::SimContext context{42};
  phy::Channel channel{context};
  os::NullProbe probe;
  try {
    (void)core::NetworkBuilder::build_cell(context, channel, plan, probe,
                                           os::CycleCostModel{});
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

// Only asserts (compiled out of optimized builds) guarded these before.
TEST(NetworkBuilder, ReservedAddressesAreRejected) {
  core::CellPlan plan;
  plan.roster.resize(2);
  plan.roster[1].address = net::kBroadcastId;
  EXPECT_EQ(build_error(plan),
            "node.2.address = 65535 is reserved (broadcast)");
  plan.roster[1].address = mac::kFreeSlot;
  EXPECT_EQ(build_error(plan),
            "node.2.address = 65534 is reserved (free-slot marker)");
  plan.roster[1].address = 65533;
  EXPECT_EQ(build_error(plan), "");
}

TEST(NetworkBuilder, StreamingPayloadMustFitOneFrame) {
  core::CellPlan plan;
  plan.app = core::AppKind::kEcgStreaming;
  plan.roster.resize(2);
  for (const std::size_t bytes : {0, 25, 40}) {
    plan.streaming.payload_bytes = bytes;
    EXPECT_EQ(build_error(plan),
              "streaming.payload_bytes = " + std::to_string(bytes) +
                  " in roster entry 0 is outside 1..24 (one frame's payload)");
  }
  plan.streaming.payload_bytes = 24;
  EXPECT_EQ(build_error(plan), "");
  // A per-node override is checked on that node.
  plan.roster[1].streaming = plan.streaming;
  plan.roster[1].streaming->payload_bytes = 25;
  EXPECT_EQ(build_error(plan),
            "streaming.payload_bytes = 25 in roster entry 1 is outside 1..24 "
            "(one frame's payload)");
  // Nodes that do not stream ignore the section.
  plan.roster[1].app = core::AppKind::kRpeak;
  EXPECT_EQ(build_error(plan), "");
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
    core::CellPlan plan;
    plan.roster.resize(2);
    plan.ecg.heart_rate_bpm = bpm;
    EXPECT_EQ(build_error(plan), std::string("ecg.heart_rate_bpm = ") + shown +
                                     " in roster entry 0 is outside 20..300 bpm");
    plan.ecg.heart_rate_bpm = 75.0;
    plan.roster[1].ecg = plan.ecg;
    plan.roster[1].ecg->heart_rate_bpm = bpm;
    EXPECT_EQ(build_error(plan), std::string("ecg.heart_rate_bpm = ") + shown +
                                     " in roster entry 1 is outside 20..300 bpm");
  }
  core::CellPlan plan;
  plan.roster.resize(2);
  plan.ecg.heart_rate_bpm = 20.0;
  plan.roster[1].ecg = plan.ecg;
  plan.roster[1].ecg->heart_rate_bpm = 300.0;
  EXPECT_EQ(build_error(plan), "");
}

TEST(NetworkBuilder, DistinctExplicitAddressesAreAccepted) {
  sim::SimContext context{42};
  phy::Channel channel{context};
  os::NullProbe probe;
  core::CellPlan plan;
  plan.roster.resize(3);
  plan.roster[1].address = 77;
  const core::BuiltCell cell = core::NetworkBuilder::build_cell(
      context, channel, plan, probe, os::CycleCostModel{});
  EXPECT_EQ(cell.nodes.size(), 3u);
}

TEST(NetworkBuilder, PreSizesTheEventArena) {
  sim::SimContext context{42};
  phy::Channel channel{context};
  os::NullProbe probe;
  core::CellPlan plan;
  plan.roster.resize(5);
  const core::BuiltCell cell = core::NetworkBuilder::build_cell(
      context, channel, plan, probe, os::CycleCostModel{});
  (void)cell;
  // 16 events per stack, base station included, reserved up front so the
  // first join burst does not grow the arena.
  EXPECT_GE(context.simulator.event_capacity(), 16u * 6u);
}

}  // namespace
}  // namespace bansim
