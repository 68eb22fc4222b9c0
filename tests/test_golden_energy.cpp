// Golden-value pinning for the SimContext/NodeStack/NetworkBuilder
// refactor: every number here was captured from the pre-refactor tree
// (seed composition code) and must be reproduced EXACTLY — `==` on
// doubles, no tolerance.  The RNG stream layout (named streams, draw
// order, per-node skew/stagger draws) is part of the public determinism
// contract; any change that shifts a single draw shows up here first.
//
// Windows are short (5 s) so the whole suite stays cheap; the values
// cover both TDMA variants, both apps, both fidelities, per-node
// snapshots, an ALOHA cell, the CSMA/CA ward with GTS, a two-cell
// coexistence run, a brown-out fault campaign and the rows of a
// storage-enabled ward campaign.  The four paper rows also pin the number
// of kernel events each run executes, so a kernel change that keeps the
// energies must keep the event stream too.
#include <gtest/gtest.h>

#include <array>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>

#include "campaign/shard_runner.hpp"
#include "check/fault_campaign.hpp"
#include "core/bansim.hpp"
#include "core/config_io.hpp"
#include "core/paper_experiments.hpp"

namespace bansim::core {
namespace {

using sim::Duration;
using sim::TimePoint;

ScenarioResult run_golden(BanConfig config, Fidelity fidelity) {
  config.fidelity = fidelity;
  MeasurementProtocol protocol;
  protocol.measure = Duration::seconds(5);
  return run_scenario(config, protocol);
}

struct GoldenRow {
  double radio_mj;
  double mcu_mj;
  double asic_mj;
  std::uint64_t packets;
  /// Kernel events over the whole run (ScenarioResult::events), pinned for
  /// the four paper rows: a change that keeps every energy but runs more
  /// or fewer events shows here.
  std::optional<std::uint64_t> events{};
};

void expect_row(const ScenarioResult& r, const GoldenRow& want) {
  EXPECT_TRUE(r.joined);
  EXPECT_EQ(r.radio_mj, want.radio_mj);
  EXPECT_EQ(r.mcu_mj, want.mcu_mj);
  EXPECT_EQ(r.asic_mj, want.asic_mj);
  EXPECT_EQ(r.data_packets, want.packets);
  if (want.events) {
    EXPECT_EQ(r.events, *want.events);
  }
}

TEST(GoldenEnergy, EcgStatic30) {
  PaperSetup setup;
  const BanConfig cfg =
      streaming_static_config(setup, Duration::milliseconds(30));
  expect_row(run_golden(cfg, Fidelity::kReference),
             {35.626988186675206, 14.013109779087998, 52.500000000000007,
              167, 49703});
  expect_row(run_golden(cfg, Fidelity::kModel),
             {38.057575936889599, 13.625614309999998, 52.500000000000007,
              166, 48414});
}

TEST(GoldenEnergy, EcgDynamic5Slots) {
  PaperSetup setup;
  const BanConfig cfg = streaming_dynamic_config(setup, 5);
  expect_row(run_golden(cfg, Fidelity::kReference),
             {18.791883681983997, 11.627069907824001, 52.500000000000007,
              84, 24876});
  expect_row(run_golden(cfg, Fidelity::kModel),
             {19.883508915199993, 11.433161250000003, 52.500000000000007,
              84, 24319});
}

TEST(GoldenEnergy, RpeakStatic120) {
  PaperSetup setup;
  const BanConfig cfg = rpeak_static_config(setup, Duration::milliseconds(120));
  expect_row(run_golden(cfg, Fidelity::kReference),
             {9.4124740137567944, 14.061014718519999, 52.500000000000007, 12,
              41895});
  expect_row(run_golden(cfg, Fidelity::kModel),
             {7.9129459098816, 13.73884498, 52.500000000000007, 12, 40723});
}

TEST(GoldenEnergy, RpeakDynamic3Slots) {
  PaperSetup setup;
  const BanConfig cfg = rpeak_dynamic_config(setup, 3);
  expect_row(run_golden(cfg, Fidelity::kReference),
             {24.380208638419198, 14.154354884655994, 52.5, 13, 27617});
  expect_row(run_golden(cfg, Fidelity::kModel),
             {25.760258508902396, 13.840800890000001, 52.5, 14, 27391});
}

TEST(GoldenEnergy, PerNodeSnapshotOfFiveNodeEcgNetwork) {
  PaperSetup setup;
  BanNetwork net{streaming_static_config(setup, Duration::milliseconds(30))};
  net.start();
  ASSERT_TRUE(net.run_until_joined(Duration::seconds(1),
                                   TimePoint::zero() + Duration::seconds(30)));
  net.run_until(net.simulator().now() + Duration::seconds(5));

  const struct {
    const char* node;
    double total;
  } want[] = {
      {"node1", 0.1259631816041816},   {"node2", 0.12864915742064681},
      {"node3", 0.12784695463841839},  {"node4", 0.12763253980885519},
      {"node5", 0.12526439082913279},  {"bs", 0.49432756199387679},
  };
  const auto snapshot = net.energy_snapshot();
  ASSERT_EQ(snapshot.size(), 6u);
  for (std::size_t i = 0; i < snapshot.size(); ++i) {
    EXPECT_EQ(snapshot[i].node, want[i].node);
    EXPECT_EQ(snapshot[i].total_joules(), want[i].total) << snapshot[i].node;
  }
  // One fully pinned component split.
  EXPECT_EQ(snapshot[0].component_joules("mcu"), 0.017184053881959999);
  EXPECT_EQ(snapshot[0].component_joules("radio"), 0.044729127722221595);
  EXPECT_EQ(snapshot[0].component_joules("asic"), 0.06405000000000001);
}

// The path campaigns take for ALOHA: a BanNetwork cell with [mac] protocol
// = aloha, loaded enough that collisions force retransmissions and drops.
TEST(GoldenEnergy, AlohaBanNetworkPerNodeTotalsAndStats) {
  BanConfig cfg;
  cfg.num_nodes = 5;
  cfg.seed = 515;
  cfg.protocol = mac::Protocol::kAloha;
  cfg.app = AppKind::kEcgStreaming;
  BanNetwork net{cfg};
  net.start();
  net.run_until(TimePoint::zero() + Duration::seconds(5));

  const double totals[] = {0.091228657876622002, 0.097058622559754809,
                           0.092478895395768007, 0.095118159909948,
                           0.090860893097847603, 0.39171764222845962};
  // data_sent, acks_received, retransmissions, retry_drops, payloads_queued,
  // payloads_dropped, crashes, reboots
  const std::array<std::uint64_t, 8> stats[] = {
      {253, 170, 83, 0, 170, 0, 0, 0}, {292, 170, 122, 0, 170, 0, 0, 0},
      {258, 170, 88, 0, 170, 0, 0, 0}, {281, 170, 111, 0, 170, 0, 0, 0},
      {247, 167, 78, 2, 169, 0, 0, 0},
  };
  const auto snapshot = net.energy_snapshot();
  ASSERT_EQ(snapshot.size(), std::size(totals));
  for (std::size_t i = 0; i < snapshot.size(); ++i) {
    EXPECT_EQ(snapshot[i].total_joules(), totals[i]) << snapshot[i].node;
  }
  for (std::size_t i = 0; i < net.num_nodes(); ++i) {
    const mac::AlohaNodeStats& s = net.node(i).aloha_mac().stats();
    EXPECT_EQ((std::array<std::uint64_t, 8>{
                  s.data_sent, s.acks_received, s.retransmissions,
                  s.retry_drops, s.payloads_queued, s.payloads_dropped,
                  s.crashes, s.reboots}),
              stats[i])
        << net.node(i).name();
  }
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in{path, std::ios::binary};
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

// csma_ward.ini: two GTS nodes and two CAP nodes with ACKs, a periodic
// interferer, a shadowing episode and node 3's crash (its GTS re-request)
// inside a 15 s window, at both fidelities.
TEST(GoldenEnergy, CsmaWardWithGtsAtBothFidelities) {
  const BanConfig ward = parse_config(read_file(
      std::filesystem::path{BANSIM_SOURCE_DIR} / "examples" / "configs" /
      "csma_ward.ini"));
  MeasurementProtocol protocol;
  protocol.measure = Duration::seconds(15);

  struct Pin {
    Fidelity fidelity;
    GoldenRow focus;
    double totals[5];
    // beacons_received, beacons_missed, foreign_beacons, resyncs, data_sent,
    // payloads_queued, payloads_dropped, acks_received, retransmissions,
    // retry_drops, cca_attempts, cca_busy, cca_failures, cap_deferrals,
    // gts_requests_sent, grants_received, gts_tx, crashes, reboots
    std::array<std::uint64_t, 19> stats[4];
  };
  const Pin pins[] = {
      {Fidelity::kReference,
       {78.868727666355184, 41.884795244263998, 157.5, 300},
       {0.32057507830320275, 0.50593524651197641, 0.32662797381228559,
        0.45152655281393239, 1.3722199217579889},
       {{296, 45, 0, 1, 339, 583, 268, 307, 31, 0, 3, 1, 0, 0, 2, 1, 339, 0,
         0},
        {291, 48, 0, 5, 872, 584, 0, 547, 288, 37, 903, 31, 0, 216, 0, 0, 0,
         0, 0},
        {326, 3, 0, 2, 326, 583, 271, 296, 30, 0, 3, 0, 0, 0, 3, 2, 326, 1,
         1},
        {305, 36, 0, 1, 748, 582, 0, 581, 166, 1, 790, 42, 0, 207, 0, 0, 0,
         0, 0}}},
      {Fidelity::kModel,
       {79.593819688319996, 40.974699780000002, 157.5, 299},
       {0.31879423682632124, 0.50638942029876199, 0.32522319878900885,
        0.446725615276374, 1.3732822398820002},
       {{277, 64, 0, 1, 338, 584, 278, 298, 39, 0, 4, 1, 0, 0, 3, 1, 338, 0,
         0},
        {285, 52, 0, 6, 834, 583, 0, 545, 251, 38, 853, 19, 0, 208, 0, 0, 0,
         0, 0},
        {328, 1, 0, 2, 327, 583, 277, 292, 35, 0, 3, 0, 0, 0, 3, 1, 327, 1,
         1},
        {303, 38, 0, 1, 721, 583, 0, 583, 138, 0, 757, 36, 0, 204, 0, 0, 0,
         0, 0}}},
  };
  for (const Pin& pin : pins) {
    SCOPED_TRACE(to_string(pin.fidelity));
    BanConfig cfg = ward;
    cfg.fidelity = pin.fidelity;
    expect_row(run_scenario(cfg, protocol), pin.focus);

    // The same run, kept alive for every node's total and counters.
    BanNetwork net{cfg};
    net.start();
    ASSERT_TRUE(net.run_until_joined(
        protocol.settle, TimePoint::zero() + protocol.join_deadline));
    net.run_until(net.simulator().now() + protocol.measure);
    const auto snapshot = net.energy_snapshot();
    ASSERT_EQ(snapshot.size(), std::size(pin.totals));
    for (std::size_t i = 0; i < snapshot.size(); ++i) {
      EXPECT_EQ(snapshot[i].total_joules(), pin.totals[i]) << snapshot[i].node;
    }
    for (std::size_t i = 0; i < net.num_nodes(); ++i) {
      const mac::CsmaNodeStats& s = net.node(i).csma_mac().stats();
      EXPECT_EQ((std::array<std::uint64_t, 19>{
                    s.beacons_received, s.beacons_missed, s.foreign_beacons,
                    s.resyncs, s.data_sent, s.payloads_queued,
                    s.payloads_dropped, s.acks_received, s.retransmissions,
                    s.retry_drops, s.cca_attempts, s.cca_busy, s.cca_failures,
                    s.cap_deferrals, s.gts_requests_sent, s.grants_received,
                    s.gts_tx, s.crashes, s.reboots}),
                pin.stats[i])
          << net.node(i).name();
    }
  }
}

TEST(GoldenEnergy, TwoCellCoexistencePerNodeTotals) {
  auto cell = [](std::uint8_t pan, net::NodeId offset, int cycle_ms) {
    BanConfig cfg;
    cfg.num_nodes = 3;
    cfg.tdma =
        mac::TdmaConfig::static_plan(Duration::milliseconds(cycle_ms), 5);
    cfg.tdma.pan_id = pan;
    cfg.address_offset = offset;
    cfg.app = AppKind::kEcgStreaming;
    cfg.streaming.sample_rate_hz = 6000.0 / cycle_ms;
    cfg.seed = 77 + pan;
    return cfg;
  };
  BanNetwork net{{cell(1, 0, 30), cell(2, 100, 60)}};
  net.start();
  ASSERT_TRUE(net.run_until_joined(Duration::milliseconds(500),
                                   TimePoint::zero() + Duration::seconds(30)));
  net.run_until(net.simulator().now() + Duration::seconds(5));

  const double want[2][3] = {
      {0.17318972373117802, 0.17163197963310001, 0.17270097465688483},
      {0.22684708000117521, 0.22731155495588118, 0.22562166905933756},
  };
  ASSERT_EQ(net.num_cells(), 2u);
  for (std::size_t c = 0; c < net.num_cells(); ++c) {
    ASSERT_EQ(net.num_nodes(c), 3u);
    for (std::size_t i = 0; i < net.num_nodes(c); ++i) {
      double total = 0;
      for (const auto& comp :
           net.node(i, c).board().breakdown(net.simulator().now())) {
        total += comp.joules;
      }
      EXPECT_EQ(total, want[c][i]) << "cell" << c << " node" << i;
    }
  }
}

// The roster is the refactor's new surface: an all-default roster of the
// same length must compose a bit-identical network to the homogeneous
// config (same streams drawn in the same order).
TEST(GoldenEnergy, AllDefaultRosterIsBitIdenticalToHomogeneous) {
  PaperSetup setup;
  BanConfig cfg = streaming_static_config(setup, Duration::milliseconds(30));
  cfg.roster.resize(cfg.num_nodes);  // explicit, all-default roster
  expect_row(run_golden(cfg, Fidelity::kReference),
             {35.626988186675206, 14.013109779087998, 52.500000000000007,
              167});
}

// --- Reset-vs-rebuild equivalence ------------------------------------------
//
// The run-reset protocol's contract: a cell that already ran a same-shape
// decoy config and was reset must reproduce a fresh build EXACTLY — `==`
// on every per-component, per-state joule — for all four MAC protocols.

std::vector<double> flatten_energies(const BanNetwork& network) {
  std::vector<double> flat;
  for (const auto& n : network.energy_snapshot()) {
    for (const auto& c : n.components) {
      flat.push_back(c.joules);
      for (const auto& [state, joules] : c.per_state) flat.push_back(joules);
    }
  }
  return flat;
}

std::vector<double> run_fresh(const BanConfig& config) {
  BanNetwork network{config};
  network.start();
  network.run_until(TimePoint::zero() + Duration::seconds(2));
  return flatten_energies(network);
}

std::vector<double> run_after_reset(const BanConfig& config) {
  BanConfig decoy = config;
  decoy.seed = config.seed ^ 0x517cc1b727220a95ull;
  decoy.ecg.heart_rate_bpm = config.ecg.heart_rate_bpm + 13.0;
  BanNetwork network{decoy};
  network.start();
  network.run_until(TimePoint::zero() + Duration::milliseconds(700));

  network.reset(config);
  network.start();
  network.run_until(TimePoint::zero() + Duration::seconds(2));
  return flatten_energies(network);
}

TEST(GoldenEnergy, ResetEqualsRebuildStaticTdma) {
  BanConfig cfg;
  cfg.num_nodes = 4;
  cfg.seed = 31;
  const auto fresh = run_fresh(cfg);
  ASSERT_FALSE(fresh.empty());
  EXPECT_EQ(run_after_reset(cfg), fresh);
}

TEST(GoldenEnergy, ResetEqualsRebuildDynamicTdma) {
  BanConfig cfg;
  cfg.num_nodes = 4;
  cfg.seed = 32;
  cfg.protocol = mac::Protocol::kDynamicTdma;
  cfg.tdma.max_slots = 0;
  EXPECT_EQ(run_after_reset(cfg), run_fresh(cfg));
}

TEST(GoldenEnergy, ResetEqualsRebuildCsmaCa) {
  BanConfig cfg;
  cfg.num_nodes = 4;
  cfg.seed = 33;
  cfg.protocol = mac::Protocol::kCsmaCa;
  EXPECT_EQ(run_after_reset(cfg), run_fresh(cfg));
}

TEST(GoldenEnergy, ResetEqualsRebuildAloha) {
  BanConfig cfg;
  cfg.num_nodes = 4;
  cfg.seed = 34;
  cfg.protocol = mac::Protocol::kAloha;
  EXPECT_EQ(run_after_reset(cfg), run_fresh(cfg));
}

TEST(GoldenEnergy, ResetEqualsRebuildWithStorageAndFaults) {
  BanConfig cfg;
  cfg.num_nodes = 3;
  cfg.seed = 35;
  cfg.use_link_model = true;
  cfg.storage.enabled = true;
  cfg.storage.battery.capacity_mah = 0.03;
  cfg.fault_plan.enabled = true;
  cfg.fault_plan.fade.enabled = true;
  cfg.fault_plan.fade.fer = 0.1;
  EXPECT_EQ(run_after_reset(cfg), run_fresh(cfg));
}

// The brown-out cell FaultInjector keeps per node is a battery-kind
// hw::EnergyStore: its OCV sag and cutoff set when each node browns out.
// Config of FaultCampaign.BrownoutCrashesThenRecovers: hardened static
// TDMA, seed 23, 0.05 mAh cell, 120 ohm ESR, 3.8 V brown-out threshold.
TEST(GoldenEnergy, BrownoutCampaignPerNodeTotals) {
  BanConfig cfg;
  cfg.num_nodes = 4;
  cfg.seed = 23;
  cfg.tdma = mac::TdmaConfig::static_plan(Duration::milliseconds(60), 5);
  cfg.tdma.missed_beacon_limit = 2;
  cfg.tdma.search_listen = Duration::milliseconds(150);
  cfg.tdma.search_backoff_base = Duration::milliseconds(40);
  cfg.tdma.search_backoff_max = Duration::milliseconds(400);
  cfg.fault_plan.enabled = true;
  cfg.fault_plan.brownout.enabled = true;
  cfg.fault_plan.brownout.capacity_mah = 0.05;
  cfg.fault_plan.brownout.esr_ohms = 120.0;
  cfg.fault_plan.brownout.brownout_volts = 3.8;
  cfg.fault_plan.brownout.check = Duration::milliseconds(100);
  cfg.fault_plan.brownout.recovery = Duration::milliseconds(800);

  const check::CampaignOutcome outcome = check::run_fault_campaign(
      cfg, {.horizon = Duration::seconds(15), .drain = Duration::seconds(3)});
  EXPECT_EQ(outcome.violations, 0u) << outcome.violation_report;
  EXPECT_EQ(outcome.injector.brownouts, 76u);
  EXPECT_EQ(outcome.injector.permanent_deaths, 0u);
  const std::vector<double> energy_joules = {
      0.25425930635964877, 0.2537594982719048, 0.2529755492336408,
      0.25339531797282921};
  ASSERT_EQ(outcome.run.nodes.size(), energy_joules.size());
  for (std::size_t i = 0; i < energy_joules.size(); ++i) {
    EXPECT_EQ(outcome.run.nodes[i].energy_joules, energy_joules[i])
        << outcome.run.nodes[i].node;
  }
}

// perfbench's ward (configs/ward.ini: five ECG streamers on 0.2 mAh cells)
// through campaign::ShardRunner with motion on: patients 0-3 of each MAC,
// 0.5 s windows after a 1 s settle, every field of every row pinned.
// lifetime_hours is pinned with the known defect that reads each node's
// window-open energy after the window ran (see ROADMAP.md): the fix
// re-pins these values on purpose.
TEST(GoldenEnergy, WardCampaignRowsOnFourMacs) {
  campaign::CampaignSpec spec;
  spec.patients = 4;
  spec.shard_size = 4;
  spec.protocols = {mac::Protocol::kStaticTdma, mac::Protocol::kDynamicTdma,
                    mac::Protocol::kAloha, mac::Protocol::kCsmaCa};
  spec.motion = true;
  spec.measure = Duration::milliseconds(500);
  spec.settle = Duration::seconds(1);
  campaign::ShardRunner runner{
      spec, parse_config(read_file(std::filesystem::path{BANSIM_SOURCE_DIR} /
                                   "perfbench" / "configs" / "ward.ini"))};

  // seed, total/radio/mcu/asic mJ, lifetime h, join ms, sent, delivered,
  // joined; four patients per MAC in protocol order.
  const energy::CampaignRunRow pins[] = {
      {13347431128373269488u, 50.531605679116808, 17.227687316268796, 7.0539183628479973, 26.250000000000011, 0.030630176582013422, 150.00000000000003, 85, 84, true},
      {13347430028861641279u, 51.15609048071201, 17.845404834320004, 7.0606856463919998, 26.250000000000011, 0.032159935356956416, 150.00000000000003, 84, 84, true},
      {13347428929350013066u, 51.050169995540813, 17.742604782492794, 7.0575652130480044, 26.250000000000011, 0.026853300246987632, 150.00000000000003, 83, 84, true},
      {13347427829838384857u, 51.092410741187209, 17.785438152787201, 7.0569725884000007, 26.250000000000011, 0.027220985021932587, 150.00000000000003, 84, 84, true},
      {13347431128373269488u, 51.717936072375977, 18.403046445055985, 7.0648896273199995, 26.249999999999996, 0.030636847808404744, 50, 83, 83, true},
      {13347430028861641279u, 51.904369720235216, 18.594676170179209, 7.0596935500559965, 26.250000000000011, 0.032161704924469119, 100, 83, 83, true},
      {13347428929350013066u, 50.952328677420809, 17.644757990204798, 7.0575706872160016, 26.250000000000011, 0.026844267511872282, 100, 83, 84, true},
      {13347427829838384857u, 52.021350595871994, 18.707161635792001, 7.064188960080001, 26.249999999999996, 0.027214636276514319, 50, 83, 83, true},
      {13347431128373269488u, 47.988631326921599, 14.692646162857603, 7.0459851640639997, 26.249999999999996, 0.030633745212141576, 50, 144, 101, true},
      {13347430028861641279u, 40.967983739379193, 7.7282024922591983, 6.9897812471200016, 26.249999999999996, 0.032159882146022681, 50, 95, 89, true},
      {13347428929350013066u, 43.380907144635202, 10.127615879763203, 7.0032912648719989, 26.249999999999996, 0.026742821610459589, 50, 111, 90, true},
      {13347427829838384857u, 40.612992002363193, 7.3741082298911973, 6.988883772471997, 26.249999999999996, 0.02721252333490775, 50, 92, 85, true},
      {13347431128373269488u, 82.681054590064008, 49.308916245120002, 7.1221383449439974, 26.250000000000011, 0.030333402933374845, 100, 139, 90, true},
      {13347430028861641279u, 75.506374838843215, 42.155155450979201, 7.1012193878639964, 26.250000000000011, 0.03200538606299911, 100, 117, 97, true},
      {13347428929350013066u, 84.348444652953631, 50.966787581561618, 7.1316570713920031, 26.250000000000011, 0.026808460386193448, 100, 140, 97, true},
      {13347427829838384857u, 68.070775226159995, 34.739535902399979, 7.0812393237600011, 26.250000000000011, 0.027128761257848438, 100, 96, 88, true},
  };
  std::vector<energy::CampaignRunRow> rows;
  for (const campaign::ShardSpec& shard : campaign::plan_shards(spec)) {
    const campaign::ShardResult result = runner.run(shard);
    rows.insert(rows.end(), result.rows.begin(), result.rows.end());
  }
  ASSERT_EQ(rows.size(), std::size(pins));
  for (std::size_t i = 0; i < rows.size(); ++i) {
    SCOPED_TRACE("row " + std::to_string(i));
    const energy::CampaignRunRow& row = rows[i];
    const energy::CampaignRunRow& pin = pins[i];
    EXPECT_EQ(row.seed, pin.seed);
    EXPECT_EQ(row.total_mj, pin.total_mj);
    EXPECT_EQ(row.radio_mj, pin.radio_mj);
    EXPECT_EQ(row.mcu_mj, pin.mcu_mj);
    EXPECT_EQ(row.asic_mj, pin.asic_mj);
    EXPECT_EQ(row.lifetime_hours, pin.lifetime_hours);
    EXPECT_EQ(row.join_ms, pin.join_ms);
    EXPECT_EQ(row.data_packets, pin.data_packets);
    EXPECT_EQ(row.delivered_packets, pin.delivered_packets);
    EXPECT_EQ(row.joined, pin.joined);
  }
}

}  // namespace
}  // namespace bansim::core
