#include "core/config_io.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/experiment.hpp"

namespace bansim::core {
namespace {

using namespace bansim::sim::literals;

TEST(ConfigIo, ParsesFullScenario) {
  const BanConfig cfg = parse_config(R"(
    ; the paper's Table 1 first row
    [network]
    nodes = 5
    seed = 42
    app = ecg_streaming

    [tdma]
    variant = static
    max_slots = 5
    cycle_ms = 30
    ack_data = true
    fast_grant = false

    [streaming]
    sample_rate_hz = 205
  )");
  EXPECT_EQ(cfg.num_nodes, 5u);
  EXPECT_EQ(cfg.seed, 42u);
  EXPECT_EQ(cfg.app, AppKind::kEcgStreaming);
  EXPECT_EQ(cfg.protocol, mac::Protocol::kStaticTdma);
  EXPECT_EQ(cfg.tdma.static_cycle(), 30_ms);
  EXPECT_EQ(cfg.tdma.slot, 5_ms);
  EXPECT_TRUE(cfg.tdma.ack_data);
  EXPECT_FALSE(cfg.tdma.fast_grant);
  EXPECT_DOUBLE_EQ(cfg.streaming.sample_rate_hz, 205.0);
}

TEST(ConfigIo, ParsesDynamicAndLink) {
  const BanConfig cfg = parse_config(R"(
    [network]
    nodes = 3
    app = rpeak
    [tdma]
    variant = dynamic
    slot_ms = 10
    radio_power_down = on
    [link]
    enabled = yes
    tx_power_dbm = -12.5
  )");
  EXPECT_EQ(cfg.protocol, mac::Protocol::kDynamicTdma);
  EXPECT_EQ(cfg.tdma.slot, 10_ms);
  EXPECT_TRUE(cfg.tdma.radio_power_down);
  EXPECT_TRUE(cfg.use_link_model);
  EXPECT_DOUBLE_EQ(cfg.link_budget.tx_power_dbm, -12.5);
  EXPECT_EQ(cfg.app, AppKind::kRpeak);
}

TEST(ConfigIo, EegKeysCoupleChannelCounts) {
  const BanConfig cfg = parse_config(R"(
    [network]
    app = eeg_monitoring
    [eeg]
    channels = 12
    sample_rate_hz = 128
    block_samples = 32
  )");
  EXPECT_EQ(cfg.app, AppKind::kEegMonitoring);
  EXPECT_EQ(cfg.eeg.channels, 12u);
  EXPECT_EQ(cfg.eeg_signal.channels, 12u);
  EXPECT_DOUBLE_EQ(cfg.eeg.sample_rate_hz, 128.0);
  EXPECT_EQ(cfg.eeg.block_samples, 32u);
}

TEST(ConfigIo, UnknownKeyIsAnError) {
  EXPECT_THROW(parse_config("[network]\nnods = 5\n"), ConfigError);
  EXPECT_THROW(parse_config("[nonsense]\nnodes = 5\n"), ConfigError);
}

TEST(ConfigIo, MalformedValuesAreErrors) {
  EXPECT_THROW(parse_config("[network]\nnodes = five\n"), ConfigError);
  EXPECT_THROW(parse_config("[tdma]\nack_data = maybe\n"), ConfigError);
  EXPECT_THROW(parse_config("[network]\napp = tetris\n"), ConfigError);
  EXPECT_THROW(parse_config("[network\nnodes = 5\n"), ConfigError);
  EXPECT_THROW(parse_config("nodes 5\n"), ConfigError);
}

TEST(ConfigIo, CommentsAndWhitespaceTolerated) {
  const BanConfig cfg = parse_config(
      "  [network]   # section\n"
      "   nodes=2;inline\n"
      "\n"
      "# full-line comment\n");
  EXPECT_EQ(cfg.num_nodes, 2u);
}

TEST(ConfigIo, SerializeParseRoundTrip) {
  BanConfig original;
  original.num_nodes = 4;
  original.seed = 99;
  original.app = AppKind::kRpeak;
  original.protocol = mac::Protocol::kDynamicTdma;
  original.tdma = mac::TdmaConfig::dynamic_plan();
  original.tdma.ack_data = true;
  original.tdma.radio_power_down = true;
  original.use_link_model = true;
  original.link_budget.tx_power_dbm = -10.0;

  const BanConfig back = parse_config(serialize_config(original));
  EXPECT_EQ(back.num_nodes, original.num_nodes);
  EXPECT_EQ(back.seed, original.seed);
  EXPECT_EQ(back.app, original.app);
  EXPECT_EQ(back.protocol, original.protocol);
  EXPECT_EQ(back.tdma.slot, original.tdma.slot);
  EXPECT_EQ(back.tdma.ack_data, original.tdma.ack_data);
  EXPECT_EQ(back.tdma.radio_power_down, original.tdma.radio_power_down);
  EXPECT_EQ(back.use_link_model, original.use_link_model);
  EXPECT_DOUBLE_EQ(back.link_budget.tx_power_dbm,
                   original.link_budget.tx_power_dbm);
}

TEST(ConfigIo, EnumParsersNameTheOffendingToken) {
  EXPECT_EQ(parse_app_kind("rpeak"), AppKind::kRpeak);
  EXPECT_EQ(parse_tdma_variant("dynamic"), mac::Protocol::kDynamicTdma);
  EXPECT_EQ(parse_fidelity("model"), Fidelity::kModel);
  try {
    (void)parse_app_kind("ecg_streamign");
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string{e.what()}.find("ecg_streamign"), std::string::npos);
  }
  // The CLI historically coerced any non-"dynamic" token to static; the
  // shared parser must reject typos instead.
  EXPECT_THROW((void)parse_tdma_variant("statik"), ConfigError);
  EXPECT_THROW((void)parse_fidelity("reel"), ConfigError);
}

TEST(ConfigIo, NodeSectionsFillTheRoster) {
  const BanConfig cfg = parse_config(R"(
    [network]
    nodes = 4
    app = ecg_streaming
    [node.2]
    app = rpeak
    rpeak.sample_rate_hz = 250
    boot_ms = 3
    [node.3]
    clock_skew = -1e-4
    fidelity = model
  )");
  ASSERT_EQ(cfg.roster.size(), 4u);
  EXPECT_EQ(cfg.effective_nodes(), 4u);
  EXPECT_FALSE(cfg.roster[0].app.has_value());  // inherits the default
  ASSERT_TRUE(cfg.roster[1].app.has_value());
  EXPECT_EQ(*cfg.roster[1].app, AppKind::kRpeak);
  ASSERT_TRUE(cfg.roster[1].rpeak.has_value());
  EXPECT_DOUBLE_EQ(cfg.roster[1].rpeak->sample_rate_hz, 250.0);
  ASSERT_TRUE(cfg.roster[1].boot_offset.has_value());
  EXPECT_EQ(*cfg.roster[1].boot_offset, 3_ms);
  ASSERT_TRUE(cfg.roster[2].clock_skew.has_value());
  EXPECT_DOUBLE_EQ(*cfg.roster[2].clock_skew, -1e-4);
  ASSERT_TRUE(cfg.roster[2].fidelity.has_value());
  EXPECT_EQ(*cfg.roster[2].fidelity, Fidelity::kModel);
}

TEST(ConfigIo, RosterLengthFromLargestIndexWithoutExplicitNodes) {
  const BanConfig cfg = parse_config("[node.3]\napp = rpeak\n");
  EXPECT_EQ(cfg.roster.size(), 3u);
  EXPECT_EQ(cfg.effective_nodes(), 3u);
}

TEST(ConfigIo, NodeIndexBeyondExplicitCountIsAnError) {
  EXPECT_THROW(parse_config("[network]\nnodes = 2\n[node.5]\napp = rpeak\n"),
               ConfigError);
  EXPECT_THROW(parse_config("[node.0]\napp = rpeak\n"), ConfigError);
  EXPECT_THROW(parse_config("[node.x]\napp = rpeak\n"), ConfigError);
  EXPECT_THROW(parse_config("[node.1]\nbogus_key = 1\n"), ConfigError);
}

TEST(ConfigIo, NodeCountsPastTheAddressSpaceAreRejected) {
  // Addresses 1..N must stay below the reserved 65534: both ways of sizing
  // the roster stop at kMaxNodes, before any node is allocated.
  ASSERT_EQ(kMaxNodes, 65533u);
  EXPECT_EQ(parse_config("[network]\nnodes = 65533\n").num_nodes, 65533u);
  EXPECT_EQ(parse_config("[node.65533]\napp = rpeak\n").roster.size(),
            65533u);
  const auto error = [](const std::string& text) -> std::string {
    try {
      (void)parse_config(text);
    } catch (const ConfigError& e) {
      return e.what();
    }
    return "";
  };
  EXPECT_EQ(error("[network]\nnodes = 65534\n"),
            "line 2: 'network.nodes' = 65534 exceeds the 65533-node limit");
  EXPECT_EQ(error("[network]\nnodes = 18446744073709551615\n"),
            "line 2: 'network.nodes' = 18446744073709551615 exceeds the "
            "65533-node limit");
  EXPECT_EQ(error("[node.65534]\napp = rpeak\n"),
            "line 1: [node.65534] exceeds the 65533-node limit");
  EXPECT_EQ(error("[node.4000000000]\napp = rpeak\n"),
            "line 1: [node.4000000000] exceeds the 65533-node limit");
}

TEST(ConfigIo, RosterRoundTrip) {
  BanConfig original;
  original.num_nodes = 3;
  original.seed = 7;
  original.roster.resize(3);
  original.roster[1].app = AppKind::kRpeak;
  original.roster[1].rpeak = original.rpeak;
  original.roster[1].rpeak->sample_rate_hz = 300.0;
  original.roster[2].clock_skew = 2.5e-5;
  original.roster[2].boot_offset = sim::Duration::milliseconds(7);
  original.roster[2].fidelity = Fidelity::kModel;

  const BanConfig back = parse_config(serialize_config(original));
  ASSERT_EQ(back.roster.size(), 3u);
  EXPECT_FALSE(back.roster[0].app.has_value());
  ASSERT_TRUE(back.roster[1].app.has_value());
  EXPECT_EQ(*back.roster[1].app, AppKind::kRpeak);
  ASSERT_TRUE(back.roster[1].rpeak.has_value());
  EXPECT_DOUBLE_EQ(back.roster[1].rpeak->sample_rate_hz, 300.0);
  ASSERT_TRUE(back.roster[2].clock_skew.has_value());
  EXPECT_DOUBLE_EQ(*back.roster[2].clock_skew, 2.5e-5);
  ASSERT_TRUE(back.roster[2].boot_offset.has_value());
  EXPECT_EQ(*back.roster[2].boot_offset, 7_ms);
  ASSERT_TRUE(back.roster[2].fidelity.has_value());
  EXPECT_EQ(*back.roster[2].fidelity, Fidelity::kModel);
}

TEST(ConfigIo, ParsedConfigActuallyRuns) {
  BanConfig cfg = parse_config(R"(
    [network]
    nodes = 2
    app = ecg_streaming
    [tdma]
    variant = static
    max_slots = 5
    cycle_ms = 60
    [streaming]
    sample_rate_hz = 100
  )");
  MeasurementProtocol protocol;
  protocol.measure = sim::Duration::seconds(5);
  const ScenarioResult r = run_scenario(cfg, protocol);
  EXPECT_TRUE(r.joined);
  EXPECT_GT(r.data_packets, 50u);
}

TEST(ConfigIo, TdmaValidationHardErrors) {
  // ack_data with zero retries abandons every payload on the first lost
  // ACK — a config that silently delivers nothing must not parse.
  EXPECT_THROW(parse_config("[tdma]\nack_data = true\nmax_retries = 0\n"),
               ConfigError);
  // A zero-capacity TX queue drops every payload before transmission.
  EXPECT_THROW(parse_config("[tdma]\ntx_queue_cap = 0\n"), ConfigError);
  // Reclaiming at or before the dead-reckoning limit regrants a slot the
  // owner may still legally transmit in.
  EXPECT_THROW(parse_config("[tdma]\nmissed_beacon_limit = 4\n"
                            "reclaim_after_cycles = 4\n"),
               ConfigError);
  EXPECT_THROW(parse_config("[tdma]\nmissed_beacon_limit = 4\n"
                            "reclaim_after_cycles = 3\n"),
               ConfigError);
  // Bounded search needs a sane backoff progression.
  EXPECT_THROW(parse_config("[tdma]\nsearch_listen_ms = 100\n"
                            "search_backoff_factor = 0.5\n"),
               ConfigError);
  // NaN scales a Duration by an undefined cast, and as a parameter that
  // never equals itself it would also fail every BanNetwork::reset.
  EXPECT_THROW(parse_config("[tdma]\nsearch_listen_ms = 100\n"
                            "search_backoff_factor = nan\n"),
               ConfigError);
  EXPECT_THROW(parse_config("[tdma]\nguard_fraction = nan\n"), ConfigError);
  EXPECT_THROW(parse_config("[mac]\nprotocol = csma_ca\n"
                            "[csma]\nguard_fraction = nan\n"),
               ConfigError);
  EXPECT_THROW(parse_config("[tdma]\nsearch_listen_ms = 100\n"
                            "search_backoff_base_ms = 50\n"
                            "search_backoff_max_ms = 10\n"),
               ConfigError);
  // The boundary cases that must still parse.
  EXPECT_NO_THROW(parse_config("[tdma]\nack_data = true\nmax_retries = 1\n"));
  EXPECT_NO_THROW(parse_config("[tdma]\nmissed_beacon_limit = 4\n"
                               "reclaim_after_cycles = 5\n"));
  EXPECT_NO_THROW(parse_config("[tdma]\nreclaim_after_cycles = 0\n"));
}

TEST(ConfigIo, FaultSectionsParse) {
  const BanConfig cfg = parse_config(R"(
    [network]
    nodes = 3
    [fault]
    enabled = true
    [fault.fade]
    enabled = true
    p_enter = 0.03
    p_exit = 0.25
    step_ms = 4
    extra_loss_db = 15
    fer = 0.7
    [fault.interferer]
    enabled = true
    period_ms = 120
    burst_ms = 4
    fer = 0.4
    [fault.crashes]
    enabled = true
    rate_hz = 0.1
    min_down_ms = 150
    max_down_ms = 900
    [fault.brownout]
    enabled = true
    capacity_mah = 0.05
    esr_ohms = 80
    brownout_volts = 3.7
    [fault.episode.1]
    node = 2
    start_ms = 3000
    duration_ms = 1500
    extra_loss_db = 22
    fer = 0.5
    [fault.event.1]
    kind = crash
    node = 1
    at_ms = 5000
    down_ms = 700
    [fault.event.2]
    kind = skew_step
    node = 3
    at_ms = 8000
    skew_delta = -0.001
  )");
  const fault::FaultPlan& plan = cfg.fault_plan;
  ASSERT_TRUE(plan.enabled);
  EXPECT_TRUE(plan.fade.enabled);
  EXPECT_DOUBLE_EQ(plan.fade.p_enter, 0.03);
  EXPECT_DOUBLE_EQ(plan.fade.p_exit, 0.25);
  EXPECT_EQ(plan.fade.step, 4_ms);
  EXPECT_DOUBLE_EQ(plan.fade.extra_loss_db, 15.0);
  EXPECT_DOUBLE_EQ(plan.fade.fer, 0.7);
  EXPECT_TRUE(plan.interferer.enabled);
  EXPECT_EQ(plan.interferer.period, 120_ms);
  EXPECT_EQ(plan.interferer.burst, 4_ms);
  EXPECT_TRUE(plan.crashes.enabled);
  EXPECT_DOUBLE_EQ(plan.crashes.rate_hz, 0.1);
  EXPECT_EQ(plan.crashes.min_down, 150_ms);
  EXPECT_EQ(plan.crashes.max_down, 900_ms);
  EXPECT_TRUE(plan.brownout.enabled);
  EXPECT_DOUBLE_EQ(plan.brownout.capacity_mah, 0.05);
  ASSERT_EQ(plan.episodes.size(), 1u);
  EXPECT_EQ(plan.episodes[0].node, 2u);
  EXPECT_EQ(plan.episodes[0].start, sim::TimePoint::zero() + 3_s);
  EXPECT_EQ(plan.episodes[0].duration, 1500_ms);
  ASSERT_EQ(plan.events.size(), 2u);
  EXPECT_EQ(plan.events[0].kind, fault::FaultKind::kCrash);
  EXPECT_EQ(plan.events[0].node, 1u);
  EXPECT_EQ(plan.events[0].down, 700_ms);
  EXPECT_EQ(plan.events[1].kind, fault::FaultKind::kSkewStep);
  EXPECT_DOUBLE_EQ(plan.events[1].skew_delta, -0.001);
}

TEST(ConfigIo, FaultPlanRoundTripsAndDisabledStaysSilent) {
  // A plan-free config serializes without any [fault sections at all.
  BanConfig plain;
  EXPECT_EQ(serialize_config(plain).find("[fault"), std::string::npos);

  BanConfig cfg;
  cfg.fault_plan.enabled = true;
  cfg.fault_plan.fade.enabled = true;
  cfg.fault_plan.fade.fer = 0.8;
  fault::ShadowEpisode ep;
  ep.node = 1;
  ep.start = sim::TimePoint::zero() + 2_s;
  cfg.fault_plan.episodes.push_back(ep);
  fault::FaultEvent ev;
  ev.kind = fault::FaultKind::kRadioLockup;
  ev.node = 2;
  ev.at = sim::TimePoint::zero() + 4_s;
  cfg.fault_plan.events.push_back(ev);

  const BanConfig round = parse_config(serialize_config(cfg));
  EXPECT_TRUE(round.fault_plan.enabled);
  EXPECT_TRUE(round.fault_plan.fade.enabled);
  EXPECT_DOUBLE_EQ(round.fault_plan.fade.fer, 0.8);
  ASSERT_EQ(round.fault_plan.episodes.size(), 1u);
  EXPECT_EQ(round.fault_plan.episodes[0].node, 1u);
  ASSERT_EQ(round.fault_plan.events.size(), 1u);
  EXPECT_EQ(round.fault_plan.events[0].kind, fault::FaultKind::kRadioLockup);
  EXPECT_EQ(round.fault_plan.events[0].at, sim::TimePoint::zero() + 4_s);
}

TEST(ConfigIo, FaultValidationErrors) {
  // Probabilities outside [0, 1].
  EXPECT_THROW(parse_config("[fault]\nenabled = true\n"
                            "[fault.fade]\nenabled = true\np_enter = 1.5\n"),
               ConfigError);
  // Interferer burst longer than its period.
  EXPECT_THROW(parse_config("[fault]\nenabled = true\n"
                            "[fault.interferer]\nenabled = true\n"
                            "period_ms = 10\nburst_ms = 20\n"),
               ConfigError);
  // Scripted events address nodes 1-based; 0 is reserved for "all" in
  // episodes only.
  EXPECT_THROW(parse_config("[fault]\nenabled = true\n"
                            "[fault.event.1]\nkind = crash\nnode = 0\n"),
               ConfigError);
  // Crash churn with an inverted down-time window.
  EXPECT_THROW(parse_config("[fault]\nenabled = true\n"
                            "[fault.crashes]\nenabled = true\n"
                            "min_down_ms = 500\nmax_down_ms = 100\n"),
               ConfigError);
  // Indexed sections are 1-based.
  EXPECT_THROW(parse_config("[fault.episode.0]\nnode = 1\n"), ConfigError);
  // Unknown fault keys are hard errors like everywhere else.
  EXPECT_THROW(parse_config("[fault.fade]\nspeed = 9\n"), ConfigError);
}

TEST(ConfigIo, StorageSectionsParse) {
  const BanConfig cfg = parse_config(R"(
    [network]
    nodes = 3
    [storage]
    enabled = true
    kind = battery
    check_ms = 50
    [battery]
    capacity_mah = 40
    nominal_volts = 3.1
    full_volts = 4.1
    empty_volts = 3.2
    dead_volts = 2.6
    rated_c = 2
    peukert_exponent = 1.2
    [harvest]
    enabled = true
    profile = square
    watts = 0.004
    floor_watts = 0.0005
    period_ms = 1200
    duty = 0.4
    phase_ms = 100
    [node.2]
    storage.kind = capacitor
    capacitor.capacitance_f = 0.05
    [node.3]
    storage.enabled = false
  )");
  const hw::StorageParams& s = cfg.storage;
  ASSERT_TRUE(s.enabled);
  EXPECT_EQ(s.kind, hw::StorageKind::kBattery);
  EXPECT_EQ(s.check, 50_ms);
  EXPECT_DOUBLE_EQ(s.battery.capacity_mah, 40.0);
  EXPECT_DOUBLE_EQ(s.battery.nominal_volts, 3.1);
  EXPECT_DOUBLE_EQ(s.battery.full_volts, 4.1);
  EXPECT_DOUBLE_EQ(s.battery.empty_volts, 3.2);
  EXPECT_DOUBLE_EQ(s.battery.dead_volts, 2.6);
  EXPECT_DOUBLE_EQ(s.battery.rated_c, 2.0);
  EXPECT_DOUBLE_EQ(s.battery.peukert_exponent, 1.2);
  ASSERT_TRUE(s.harvest.enabled);
  EXPECT_EQ(s.harvest.profile, hw::HarvestParams::Profile::kSquare);
  EXPECT_DOUBLE_EQ(s.harvest.watts, 0.004);
  EXPECT_DOUBLE_EQ(s.harvest.floor_watts, 0.0005);
  EXPECT_EQ(s.harvest.period, 1200_ms);
  EXPECT_DOUBLE_EQ(s.harvest.duty, 0.4);
  EXPECT_EQ(s.harvest.phase, 100_ms);
  // Per-node overrides inherit the globals they do not name.
  ASSERT_EQ(cfg.roster.size(), 3u);
  EXPECT_FALSE(cfg.roster[0].storage.has_value());  // pure global
  ASSERT_TRUE(cfg.roster[1].storage.has_value());
  EXPECT_EQ(cfg.roster[1].storage->kind, hw::StorageKind::kCapacitor);
  EXPECT_DOUBLE_EQ(cfg.roster[1].storage->capacitor.capacitance_farads, 0.05);
  EXPECT_EQ(cfg.roster[1].storage->check, 50_ms);  // inherited
  ASSERT_TRUE(cfg.roster[2].storage.has_value());
  EXPECT_FALSE(cfg.roster[2].storage->enabled);  // bench-supplied node
}

TEST(ConfigIo, StorageRoundTripsAndDisabledStaysSilent) {
  // Storage-free configs serialize without any storage sections at all,
  // byte-compatible with pre-storage builds.
  BanConfig plain;
  const std::string text = serialize_config(plain);
  EXPECT_EQ(text.find("[storage]"), std::string::npos);
  EXPECT_EQ(text.find("[battery]"), std::string::npos);
  EXPECT_EQ(text.find("[harvest]"), std::string::npos);

  BanConfig cfg;
  cfg.storage.enabled = true;
  cfg.storage.kind = hw::StorageKind::kCapacitor;
  cfg.storage.capacitor.capacitance_farads = 0.02;
  cfg.storage.capacitor.turnon_volts = 3.3;
  cfg.storage.check = 25_ms;
  cfg.storage.harvest.enabled = true;
  cfg.storage.harvest.profile = hw::HarvestParams::Profile::kSine;
  cfg.storage.harvest.watts = 0.002;
  cfg.storage.harvest.period = 900_ms;
  cfg.roster.resize(2);
  cfg.num_nodes = 2;
  cfg.roster[1].storage = cfg.storage;
  cfg.roster[1].storage->kind = hw::StorageKind::kBattery;
  cfg.roster[1].storage->battery.capacity_mah = 0.5;

  const BanConfig round = parse_config(serialize_config(cfg));
  ASSERT_TRUE(round.storage.enabled);
  EXPECT_EQ(round.storage.kind, hw::StorageKind::kCapacitor);
  EXPECT_DOUBLE_EQ(round.storage.capacitor.capacitance_farads, 0.02);
  EXPECT_DOUBLE_EQ(round.storage.capacitor.turnon_volts, 3.3);
  EXPECT_EQ(round.storage.check, 25_ms);
  ASSERT_TRUE(round.storage.harvest.enabled);
  EXPECT_EQ(round.storage.harvest.profile, hw::HarvestParams::Profile::kSine);
  EXPECT_DOUBLE_EQ(round.storage.harvest.watts, 0.002);
  EXPECT_EQ(round.storage.harvest.period, 900_ms);
  ASSERT_EQ(round.roster.size(), 2u);
  ASSERT_TRUE(round.roster[1].storage.has_value());
  EXPECT_EQ(round.roster[1].storage->kind, hw::StorageKind::kBattery);
  EXPECT_DOUBLE_EQ(round.roster[1].storage->battery.capacity_mah, 0.5);
}

TEST(ConfigIo, NodeHarvestOffUnderGlobalHarvestRoundTrips) {
  // A [node.K] override starts from the global store, so a node that turns
  // harvest off under an enabled global [harvest] must say so in the dump.
  const BanConfig once = parse_config(
      "[network]\nnodes = 2\n"
      "[storage]\nenabled = true\n"
      "[battery]\ncapacity_mah = 0.05\n"
      "[harvest]\nenabled = true\nwatts = 0.002\n"
      "[node.2]\nharvest.enabled = false\n");
  ASSERT_EQ(once.roster.size(), 2u);
  ASSERT_TRUE(once.roster[1].storage.has_value());
  ASSERT_FALSE(once.roster[1].storage->harvest.enabled);

  const std::string dump = serialize_config(once);
  EXPECT_NE(dump.find("harvest.enabled = false"), std::string::npos) << dump;
  const BanConfig twice = parse_config(dump);
  EXPECT_TRUE(twice.storage.harvest.enabled);
  EXPECT_DOUBLE_EQ(twice.storage.harvest.watts, 0.002);
  ASSERT_EQ(twice.roster.size(), 2u);
  EXPECT_FALSE(twice.roster[0].storage.has_value());
  ASSERT_TRUE(twice.roster[1].storage.has_value());
  EXPECT_FALSE(twice.roster[1].storage->harvest.enabled);
  EXPECT_EQ(twice.roster[1].storage->harvest.watts,
            once.roster[1].storage->harvest.watts);
  EXPECT_EQ(twice.roster[1].storage->battery.capacity_mah, 0.05);
  // The dump is a fixed point.
  EXPECT_EQ(serialize_config(twice), dump);
}

TEST(ConfigIo, StorageValidationErrors) {
  // Enabled battery with nonsense capacity.
  EXPECT_THROW(parse_config("[storage]\nenabled = true\n"
                            "[battery]\ncapacity_mah = -5\n"),
               ConfigError);
  // Sampling interval must be positive.
  EXPECT_THROW(parse_config("[storage]\nenabled = true\ncheck_ms = 0\n"),
               ConfigError);
  // Capacitor hysteresis thresholds out of order.
  EXPECT_THROW(parse_config("[storage]\nenabled = true\nkind = capacitor\n"
                            "[capacitor]\nturnoff_volts = 4\n"
                            "turnon_volts = 3\n"),
               ConfigError);
  // Sine/square harvest needs a period.
  EXPECT_THROW(parse_config("[storage]\nenabled = true\n"
                            "[harvest]\nenabled = true\nprofile = sine\n"
                            "period_ms = 0\n"),
               ConfigError);
  // Per-node overrides are validated with the node named.
  EXPECT_THROW(parse_config("[network]\nnodes = 2\n"
                            "[node.2]\nstorage.enabled = true\n"
                            "battery.capacity_mah = -1\n"),
               ConfigError);
  // Unknown storage keys are hard errors like everywhere else.
  EXPECT_THROW(parse_config("[storage]\nvolts = 3\n"), ConfigError);
  EXPECT_THROW(parse_config("[harvest]\nprofile = triangle\n"), ConfigError);
}

TEST(ConfigIo, NonRoundNumbersRoundTripExactly) {
  const BanConfig cfg = parse_config(
      "[network]\nstagger_ms = 12.3456789\n"
      "[tdma]\nslot_ms = 7.384512\n"
      "[ecg]\nheart_rate_bpm = 72.123456789\n");
  const std::string text = serialize_config(cfg);
  const BanConfig back = parse_config(text);
  EXPECT_EQ(back.stagger, cfg.stagger);
  EXPECT_EQ(back.tdma.slot, cfg.tdma.slot);
  EXPECT_EQ(back.ecg.heart_rate_bpm, cfg.ecg.heart_rate_bpm);  // bit for bit
  EXPECT_NE(text.find("slot_ms = 7.384512\n"), std::string::npos);
  EXPECT_NE(text.find("heart_rate_bpm = 72.123456789\n"), std::string::npos);
  // Values six significant digits capture keep their spelling.
  EXPECT_NE(serialize_config(BanConfig{}).find("guard_fixed_ms = 2.5\n"),
            std::string::npos);
}

TEST(ConfigIo, CycleOverrideKeepsEveryOtherTdmaField) {
  const std::string tuned =
      "[tdma]\nmax_retries = 7\ntx_queue_cap = 3\nguard_fraction = 0.02\n";
  BanConfig cfg = parse_config(tuned);
  apply_static_cycle(cfg, 60_ms);
  EXPECT_EQ(cfg.tdma.slot, 10_ms);
  EXPECT_EQ(cfg.tdma.static_cycle(), 60_ms);
  EXPECT_EQ(cfg.tdma.max_retries, 7u);
  EXPECT_EQ(cfg.tdma.tx_queue_cap, 3u);
  EXPECT_DOUBLE_EQ(cfg.tdma.guard_fraction, 0.02);
  // tdma.cycle_ms in a file is the same override.
  EXPECT_EQ(serialize_config(parse_config(tuned + "cycle_ms = 60\n")),
            serialize_config(cfg));
  // A dynamic plan's slot width is its own parameter.
  BanConfig dynamic = parse_config("[tdma]\nvariant = dynamic\nslot_ms = 7\n");
  apply_static_cycle(dynamic, 60_ms);
  EXPECT_EQ(dynamic.tdma.slot, 7_ms);
}

// ---- the key table, walked entry by entry ---------------------------------

/// INI text under which serialize_config writes the keys of `section` (for
/// [fault.event.K], the fault kind `name` belongs to).
std::string enabling(std::string_view section, std::string_view name) {
  if (section == "aloha") return "[mac]\nprotocol = aloha\n";
  if (section == "csma") return "[mac]\nprotocol = csma_ca\n";
  if (section.starts_with("fault")) {
    std::string text = "[fault]\nenabled = true\n";
    if (section == "fault.event") {
      text += "[fault.event.1]\nkind = ";
      text += name == "skew_delta" ? "skew_step\n" : "crash\n";
    } else if (section != "fault" && section != "fault.episode") {
      text += "[" + std::string(section) + "]\nenabled = true\n";
    }
    return text;
  }
  if (section == "storage" || section == "battery" ||
      section == "capacitor" || section == "harvest") {
    std::string text = "[storage]\nenabled = true\n";
    if (section == "capacitor") text += "kind = capacitor\n";
    if (section == "harvest") text += "[harvest]\nenabled = true\n";
    return text;
  }
  return "";
}

/// The value written for `name` under `[header]`; empty when absent.
std::string value_in(const std::string& ini, const std::string& header,
                     const std::string& name) {
  std::istringstream in{ini};
  std::string line;
  bool inside = false;
  while (std::getline(in, line)) {
    if (!line.empty() && line.front() == '[') {
      inside = line == "[" + header + "]";
    } else if (inside && line.rfind(name + " = ", 0) == 0) {
      return line.substr(name.size() + 3);
    }
  }
  return "";
}

/// A valid, non-default value for `name`, whose default is written as
/// `fallback` ("" when unset).  `error` is what parse_config said about a
/// garbage value, which tells the value's type.  Numbers need more than six
/// significant digits where the field can hold them.
std::string non_default(const std::string& name, const std::string& fallback,
                        const std::string& error) {
  char text[40];
  if (error.starts_with("bad boolean")) {
    // `enabled` switches its section on, which is also what writes it.
    return name.ends_with("enabled") || fallback != "true" ? "true" : "false";
  }
  if (error.starts_with("bad integer")) {
    // reclaim_after_cycles must exceed missed_beacon_limit (4).
    if (name == "reclaim_after_cycles") return "9";
    return std::to_string(std::stoll(fallback.empty() ? "0" : fallback) + 1);
  }
  const auto base = [&] {
    return fallback.empty() ? 0.0 : std::stod(fallback);
  };
  if (error.starts_with("bad numeric") &&
      (name.ends_with("_ms") || name.ends_with("_us"))) {
    // Whole nanoseconds; the +1.234566 ms step keeps tdma.cycle_ms a
    // multiple of its six slots.
    const bool ms = name.ends_with("_ms");
    const long long scale = ms ? 1'000'000 : 1'000;
    const long long ticks =
        std::llround(base() * scale) + (ms ? 1'234'566 : 1'234);
    std::snprintf(text, sizeof text, "%lld.%0*lld", ticks / scale, ms ? 6 : 3,
                  ticks % scale);
    return text;
  }
  if (error.starts_with("bad numeric")) {
    std::snprintf(text, sizeof text, "%.17g",
                  base() + 1.23456789e-4 * (1.0 + std::fabs(base())));
    return text;
  }
  // An enum: the error lists the accepted tokens; take the last one that
  // is not the default.
  const auto first = error.find("(expected ") + 10;
  std::istringstream tokens{error.substr(first, error.rfind(')') - first)};
  std::string token;
  std::string pick;
  while (tokens >> token) {
    if (token != "|" && token != fallback) pick = token;
  }
  return pick;
}

/// Whether two written values denote the same field value.
bool same_value(const std::string& name, const std::string& a,
                const std::string& b) {
  if (a.empty() || b.empty()) return a == b;
  if (name.ends_with("_ms")) {
    return sim::Duration::from_milliseconds(std::stod(a)) ==
           sim::Duration::from_milliseconds(std::stod(b));
  }
  if (name.ends_with("_us")) {
    return sim::Duration::from_microseconds(std::stod(a)) ==
           sim::Duration::from_microseconds(std::stod(b));
  }
  const bool numeric =
      a.find_first_not_of("0123456789.eE+-") == std::string::npos;
  return numeric ? std::stod(a) == std::stod(b) : a == b;
}

/// What parse_config says about `name = value` under `[header]` (after
/// `prelude`); empty when it accepts it.
std::string parse_error(const std::string& prelude, const std::string& header,
                        const std::string& name, const std::string& value) {
  try {
    (void)parse_config(prelude + "[" + header + "]\n" + name + " = " + value +
                       "\n");
  } catch (const ConfigError& e) {
    return e.what();
  }
  return "";
}

/// Sets `name` under `[header]` (after `prelude`) to a non-default value,
/// and requires parse(serialize(parse(text))) to hold that value exactly;
/// a garbage value must be a ConfigError naming the key (or, for an enum,
/// the token).  Every integer field is unsigned, so an integer key also
/// rejects -1 and 2^64 instead of wrapping them, and a time key rejects NaN
/// and a span no Duration holds.
void check_key(const std::string& prelude, const std::string& header,
               const std::string& name, const std::string& fallback) {
  const std::string scoped = header + "." + name;
  SCOPED_TRACE(scoped);
  const std::string error = parse_error(prelude, header, name, "garbage");
  ASSERT_FALSE(error.empty()) << "garbage accepted";
  const bool names_token = error.starts_with("unknown ");
  EXPECT_NE(error.find(names_token ? "'garbage'" : scoped), std::string::npos)
      << error;
  if (error.starts_with("bad integer")) {
    for (const char* wraps : {"-1", "18446744073709551616"}) {
      EXPECT_EQ(parse_error(prelude, header, name, wraps),
                "bad integer value for " + scoped + ": " + wraps);
    }
  }
  if (name.ends_with("_ms") || name.ends_with("_us")) {
    for (const char* beyond : {"nan", "1e300"}) {
      EXPECT_EQ(parse_error(prelude, header, name, beyond),
                "bad duration for " + scoped + ": " + beyond +
                    " (not finite, or beyond 2^63 ns)");
    }
  }
  // A [node.K] protocol only restates the cell's: it has no field.
  if (scoped == "node.1.protocol") return;

  const std::string value = non_default(name, fallback, error);
  ASSERT_FALSE(value.empty());
  // (A section switch is tested on; `fallback` is its prelude's value.)
  if (!name.ends_with("enabled")) {
    EXPECT_FALSE(same_value(name, value, fallback)) << value;
  }
  const std::string text = prelude + "[" + header + "]\n" + name + " = " +
                           value + "\n";
  const BanConfig once = parse_config(text);
  const BanConfig twice = parse_config(serialize_config(once));
  const std::string back = value_in(serialize_config(twice), header, name);
  EXPECT_TRUE(same_value(name, value, back)) << value << " came back as "
                                             << back;
}

// [mac] protocol and [tdma] variant both choose between static and dynamic
// TDMA, so a file naming both must name the same variant, in either order.
TEST(ConfigIo, TdmaProtocolContradictingTheVariantIsRejected) {
  const std::string conflict =
      "'mac.protocol' = static_tdma conflicts with 'tdma.variant' = dynamic";
  EXPECT_EQ(parse_error("[mac]\nprotocol = static_tdma\n", "tdma", "variant",
                        "dynamic"),
            conflict);
  EXPECT_EQ(parse_error("[tdma]\nvariant = dynamic\n", "mac", "protocol",
                        "static_tdma"),
            conflict);

  for (const char* agreeing :
       {"[mac]\nprotocol = dynamic_tdma\n[tdma]\nvariant = dynamic\n",
        "[tdma]\nvariant = dynamic\n[mac]\nprotocol = dynamic_tdma\n"}) {
    EXPECT_EQ(parse_config(agreeing).protocol, mac::Protocol::kDynamicTdma)
        << agreeing;
  }
  // Beside a contention MAC the variant selects nothing, in either order:
  // the [tdma] block waits for a switch to TDMA, which names its own
  // variant, and its cycle_ms is that switch's static cycle.
  for (const char* contention :
       {"[mac]\nprotocol = csma_ca\n[tdma]\nvariant = static\ncycle_ms = 30\n",
        "[tdma]\nvariant = dynamic\ncycle_ms = 30\n"
        "[mac]\nprotocol = csma_ca\n"}) {
    const BanConfig cfg = parse_config(contention);
    EXPECT_EQ(cfg.protocol, mac::Protocol::kCsmaCa) << contention;
    EXPECT_EQ(cfg.tdma.static_cycle(), 30_ms) << contention;
    EXPECT_EQ(serialize_config(cfg).find("variant"), std::string::npos);
  }
}

TEST(ConfigIo, EveryTableKeyRoundTripsBitForBit) {
  std::size_t checked = 0;
  for (const ConfigKey& key : config_keys()) {
    const std::string section{key.section};
    const std::string name{key.name};
    const bool indexed = section == "node" || section == "fault.episode" ||
                         section == "fault.event";
    const std::string header = indexed ? section + ".1" : section;
    const std::string prelude = enabling(key.section, key.name);
    const std::string fallback =
        value_in(serialize_config(parse_config(prelude)), header, name);
    check_key(prelude, header, name, fallback);
    if (key.per_node) {
      // Node 1's copy of the global group, which the prelude switched on.
      check_key(prelude, "node.1", section + "." + name, fallback);
    }
    ++checked;
  }
  EXPECT_GE(checked, 115u);
}

// Out-of-range integers used to wrap into the field (a 44-slot static
// cycle from max_slots = 300, a 255-slot one from -1, a zero beacon limit
// from 256, node4464 from address 70000, pan 44 from 300); a seed above
// INT64_MAX, which --dump-config writes, used to be rejected.
TEST(ConfigIo, IntegersOutsideTheFieldTypeAreRejected) {
  const struct {
    const char* section;
    const char* key;
    const char* value;
  } rejected[] = {
      {"tdma", "max_slots", "300"},
      {"tdma", "max_slots", "-1"},
      {"tdma", "missed_beacon_limit", "256"},
      {"node.1", "address", "70000"},
      {"network", "nodes", "-1"},
      {"csma", "pan_id", "300"},
  };
  for (const auto& r : rejected) {
    const std::string scoped = std::string{r.section} + "." + r.key;
    EXPECT_EQ(parse_error("", r.section, r.key, r.value),
              "bad integer value for " + scoped + ": " + r.value);
  }

  EXPECT_EQ(parse_config("[tdma]\nmax_slots = 255\n").tdma.max_slots, 255u);
  EXPECT_EQ(parse_config("[node.1]\naddress = 65535\n").roster[0].address,
            65535u);
  const BanConfig big = parse_config("[network]\nseed = 18446744073709551615\n");
  EXPECT_EQ(big.seed, 18446744073709551615ull);
  EXPECT_EQ(parse_config(serialize_config(big)).seed, big.seed);
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in{path, std::ios::binary};
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

// tests/config_dumps holds the `bansim_cli --config X --dump-config` output
// of every shipped config; a saved config must keep reading and writing the
// same bytes, so changing a dump has to be deliberate.
TEST(ConfigIo, ShippedConfigsDumpPinnedBytes) {
  const std::filesystem::path root{BANSIM_SOURCE_DIR};
  std::size_t checked = 0;
  for (const char* dir : {"examples", "perfbench"}) {
    for (const auto& entry :
         std::filesystem::directory_iterator(root / dir / "configs")) {
      if (entry.path().extension() != ".ini") continue;
      SCOPED_TRACE(entry.path().string());
      const std::string dump =
          serialize_config(parse_config(read_file(entry.path())));
      EXPECT_EQ(dump, read_file(root / "tests" / "config_dumps" / dir /
                                entry.path().filename()));
      EXPECT_EQ(serialize_config(parse_config(dump)), dump);
      ++checked;
    }
  }
  EXPECT_GE(checked, 14u);
}

}  // namespace
}  // namespace bansim::core
