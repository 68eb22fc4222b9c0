// Fault-injection campaigns: crash/reboot re-association, radio lock-up
// recovery, brown-out, burst fading, and the survey-level comparison of
// static vs dynamic TDMA recovery cost.  Every campaign here runs with the
// InvariantMonitor attached and must finish with zero violations — the
// acceptance bar for the fault subsystem is that no injected fault, at any
// point in the MAC's state machine, can drive the stack into an illegal
// radio transition, a double-booked slot, or an energy-ledger leak.
#include <gtest/gtest.h>

#include "check/fault_campaign.hpp"
#include "core/ban_network.hpp"
#include "fault/degradation_report.hpp"

namespace bansim {
namespace {

using namespace bansim::sim::literals;
using check::CampaignOptions;
using check::CampaignOutcome;
using check::run_fault_campaign;
using core::AppKind;
using core::BanConfig;
using core::BanNetwork;
using sim::Duration;
using sim::TimePoint;

/// A hardened cell: bounded dead reckoning, bounded search listens, slot
/// reclaim at the base station — the recovery machinery under test.
BanConfig hardened_config(mac::Protocol protocol, std::uint64_t seed) {
  BanConfig cfg;
  cfg.num_nodes = 4;
  cfg.seed = seed;
  cfg.protocol = protocol;
  cfg.app = AppKind::kEcgStreaming;
  if (protocol == mac::Protocol::kStaticTdma) {
    // Classic static TDMA: the table is fixed; nobody reclaims anything.
    cfg.tdma = mac::TdmaConfig::static_plan(Duration::milliseconds(60), 5);
  } else {
    // Dynamic TDMA shrinks the cycle with the roster, so reclaiming the
    // slots of silent nodes is part of the variant itself.
    cfg.tdma = mac::TdmaConfig::dynamic_plan(Duration::milliseconds(10));
    cfg.tdma.reclaim_after_cycles = 4;
  }
  cfg.tdma.missed_beacon_limit = 2;
  cfg.tdma.search_listen = Duration::milliseconds(150);
  cfg.tdma.search_backoff_base = Duration::milliseconds(40);
  cfg.tdma.search_backoff_max = Duration::milliseconds(400);
  return cfg;
}

fault::FaultPlan burst_fade_plan() {
  fault::FaultPlan plan;
  plan.enabled = true;
  plan.fade.enabled = true;
  plan.fade.p_enter = 0.04;
  plan.fade.p_exit = 0.12;
  plan.fade.step = Duration::milliseconds(5);
  plan.fade.fer = 0.85;
  return plan;
}

TEST(FaultCampaign, ScriptedCrashRebootsAndReassociates) {
  BanConfig cfg = hardened_config(mac::Protocol::kStaticTdma, 11);
  cfg.fault_plan.enabled = true;
  fault::FaultEvent crash;
  crash.kind = fault::FaultKind::kCrash;
  crash.node = 2;
  crash.at = TimePoint::zero() + 5_s;
  crash.down = 400_ms;
  cfg.fault_plan.events.push_back(crash);

  const CampaignOutcome outcome =
      run_fault_campaign(cfg, {.horizon = 12_s, .drain = 3_s});
  EXPECT_EQ(outcome.violations, 0u) << outcome.violation_report;
  ASSERT_EQ(outcome.run.nodes.size(), 4u);
  const fault::NodeOutcome& victim = outcome.run.nodes[1];
  EXPECT_EQ(victim.crashes, 1u);
  EXPECT_EQ(victim.reboots, 1u);
  // The reboot produced exactly one completed rejoin latency sample, and
  // the node went on delivering data afterwards.
  ASSERT_EQ(victim.rejoin_times.size(), 1u);
  EXPECT_GT(victim.rejoin_times[0], Duration::zero());
  EXPECT_LT(victim.rejoin_times[0], 5_s);
  EXPECT_GT(victim.payloads_delivered, 0u);
  // The other nodes never noticed.
  EXPECT_EQ(outcome.run.nodes[0].crashes, 0u);
  EXPECT_EQ(outcome.run.nodes[2].crashes, 0u);
}

TEST(FaultCampaign, RebootedNodeReassociatesExplicitly) {
  // Watch the handshake itself: after reboot the node must send a slot
  // request even though the beacon still lists its old slot.
  BanConfig cfg = hardened_config(mac::Protocol::kStaticTdma, 3);
  cfg.app = AppKind::kNone;
  BanNetwork net{cfg};
  net.start();
  ASSERT_TRUE(net.run_until_joined(100_ms, TimePoint::zero() + 20_s));

  mac::NodeMac& victim = net.node(0).mac();
  const auto ssr_before = victim.stats().slot_requests_sent;
  victim.crash();
  EXPECT_TRUE(victim.crashed());
  EXPECT_EQ(victim.state(), mac::NodeMacState::kBooting);
  net.run_until(net.simulator().now() + 500_ms);
  victim.reboot();
  net.run_until(net.simulator().now() + 5_s);
  EXPECT_TRUE(victim.joined());
  EXPECT_GT(victim.stats().slot_requests_sent, ssr_before);
  EXPECT_EQ(victim.stats().reboots, 1u);
}

TEST(FaultCampaign, RadioLockupIsClearedByBoundedSearchPowerCycle) {
  // A locked-up receiver hears nothing, so the node dead-reckons to the
  // missed-beacon limit and enters the search; with search_listen bounded
  // the search power-cycles the radio, which clears the latch-up — the
  // recovery path the infinite legacy listen would never reach.
  BanConfig cfg = hardened_config(mac::Protocol::kStaticTdma, 5);
  cfg.fault_plan.enabled = true;
  fault::FaultEvent lockup;
  lockup.kind = fault::FaultKind::kRadioLockup;
  lockup.node = 1;
  lockup.at = TimePoint::zero() + 5_s;
  cfg.fault_plan.events.push_back(lockup);

  const CampaignOutcome outcome =
      run_fault_campaign(cfg, {.horizon = 15_s, .drain = 2_s});
  EXPECT_EQ(outcome.violations, 0u) << outcome.violation_report;
  const fault::NodeOutcome& victim = outcome.run.nodes[0];
  EXPECT_GE(victim.resyncs, 1u);
  ASSERT_GE(victim.resync_times.size(), 1u);
  // Re-locked onto the beacon after the power cycle and kept delivering.
  EXPECT_GT(victim.payloads_delivered, 0u);
}

TEST(FaultCampaign, ClockSkewStepSurvivesWithoutViolations) {
  BanConfig cfg = hardened_config(mac::Protocol::kStaticTdma, 17);
  cfg.fault_plan.enabled = true;
  fault::FaultEvent skew;
  skew.kind = fault::FaultKind::kSkewStep;
  skew.node = 3;
  skew.at = TimePoint::zero() + 4_s;
  skew.skew_delta = 4.0e-4;  // a violent thermal step, ~3x the guard budget
  cfg.fault_plan.events.push_back(skew);

  const CampaignOutcome outcome =
      run_fault_campaign(cfg, {.horizon = 12_s, .drain = 2_s});
  EXPECT_EQ(outcome.violations, 0u) << outcome.violation_report;
  // Whether the node rides it out on the guard time or falls back to a
  // resync, it must end the campaign delivering data again.
  EXPECT_GT(outcome.run.nodes[2].payloads_delivered, 0u);
}

TEST(FaultCampaign, BrownoutCrashesThenRecovers) {
  BanConfig cfg = hardened_config(mac::Protocol::kStaticTdma, 23);
  cfg.fault_plan.enabled = true;
  cfg.fault_plan.brownout.enabled = true;
  cfg.fault_plan.brownout.capacity_mah = 0.05;
  cfg.fault_plan.brownout.esr_ohms = 120.0;
  cfg.fault_plan.brownout.brownout_volts = 3.8;
  cfg.fault_plan.brownout.check = 100_ms;
  cfg.fault_plan.brownout.recovery = 800_ms;

  const CampaignOutcome outcome =
      run_fault_campaign(cfg, {.horizon = 15_s, .drain = 3_s});
  EXPECT_EQ(outcome.violations, 0u) << outcome.violation_report;
  EXPECT_GT(outcome.injector.brownouts, 0u);
  std::uint64_t total_reboots = 0;
  for (const auto& node : outcome.run.nodes) total_reboots += node.reboots;
  EXPECT_GT(total_reboots, 0u);
}

TEST(FaultCampaign, StochasticChurnUnderBurstFadeHoldsInvariants) {
  // The everything-at-once campaign: Gilbert-Elliott fading over the whole
  // medium plus seed-driven crash churn, on the dynamic variant whose slot
  // table breathes with every leave/rejoin.
  BanConfig cfg = hardened_config(mac::Protocol::kDynamicTdma, 29);
  cfg.fault_plan = burst_fade_plan();
  cfg.fault_plan.crashes.enabled = true;
  cfg.fault_plan.crashes.rate_hz = 0.08;
  cfg.fault_plan.crashes.check = 250_ms;
  cfg.fault_plan.crashes.min_down = 300_ms;
  cfg.fault_plan.crashes.max_down = 1200_ms;

  const CampaignOutcome outcome =
      run_fault_campaign(cfg, {.horizon = 20_s, .drain = 4_s});
  EXPECT_EQ(outcome.violations, 0u) << outcome.violation_report;
  EXPECT_GT(outcome.injector.fade_transitions, 0u);
  EXPECT_GT(outcome.run.delivered(), 0u);
  EXPECT_LT(outcome.run.pdr(), 1.0);  // the faults actually bit
}

TEST(FaultCampaign, CampaignIsDeterministic) {
  BanConfig cfg = hardened_config(mac::Protocol::kDynamicTdma, 31);
  cfg.fault_plan = burst_fade_plan();
  const CampaignOptions opts{.horizon = 10_s, .drain = 2_s};
  const CampaignOutcome a = run_fault_campaign(cfg, opts);
  const CampaignOutcome b = run_fault_campaign(cfg, opts);
  ASSERT_EQ(a.run.nodes.size(), b.run.nodes.size());
  for (std::size_t i = 0; i < a.run.nodes.size(); ++i) {
    // Exact-double energy equality: same seed, same plan, same trajectory.
    EXPECT_EQ(a.run.nodes[i].energy_joules, b.run.nodes[i].energy_joules);
    EXPECT_EQ(a.run.nodes[i].payloads_delivered,
              b.run.nodes[i].payloads_delivered);
    EXPECT_EQ(a.run.nodes[i].crashes, b.run.nodes[i].crashes);
  }
  EXPECT_EQ(a.injector.fade_transitions, b.injector.fade_transitions);
}

TEST(FaultCampaign, DisabledPlanIsExactlyTheBaseline) {
  // A config that carries a fully-populated but disabled plan must run the
  // network bit-identically to one that never heard of faults.
  BanConfig plain = hardened_config(mac::Protocol::kStaticTdma, 41);
  BanConfig carrying = plain;
  carrying.fault_plan = burst_fade_plan();
  carrying.fault_plan.enabled = false;  // master switch off

  const CampaignOptions opts{.horizon = 8_s, .drain = 1_s};
  const CampaignOutcome a = run_fault_campaign(plain, opts);
  const CampaignOutcome b = run_fault_campaign(carrying, opts);
  ASSERT_EQ(a.run.nodes.size(), b.run.nodes.size());
  for (std::size_t i = 0; i < a.run.nodes.size(); ++i) {
    EXPECT_EQ(a.run.nodes[i].energy_joules, b.run.nodes[i].energy_joules);
    EXPECT_EQ(a.run.nodes[i].payloads_delivered,
              b.run.nodes[i].payloads_delivered);
  }
}

TEST(FaultCampaign, DynamicTdmaPaysMoreForRecoveryThanStatic) {
  // The qualitative survey result the subsystem must reproduce: under
  // burst fade, dynamic TDMA's recovery costs more energy than static's.
  // A static node that misses beacons keeps its slot and just resyncs;
  // a dynamic node returns to find the cycle reshaped, defers its slot,
  // re-contends in the ES window and re-runs the grant handshake.
  const CampaignOptions opts{.horizon = 20_s, .drain = 3_s};

  BanConfig static_cfg = hardened_config(mac::Protocol::kStaticTdma, 47);
  BanConfig static_base = static_cfg;
  static_cfg.fault_plan = burst_fade_plan();
  const CampaignOutcome static_faulted = run_fault_campaign(static_cfg, opts);
  const CampaignOutcome static_clean = run_fault_campaign(static_base, opts);
  const auto static_report = fault::DegradationReport::build(
      static_faulted.run, static_clean.run);

  BanConfig dynamic_cfg = hardened_config(mac::Protocol::kDynamicTdma, 47);
  BanConfig dynamic_base = dynamic_cfg;
  dynamic_cfg.fault_plan = burst_fade_plan();
  const CampaignOutcome dynamic_faulted =
      run_fault_campaign(dynamic_cfg, opts);
  const CampaignOutcome dynamic_clean = run_fault_campaign(dynamic_base, opts);
  const auto dynamic_report = fault::DegradationReport::build(
      dynamic_faulted.run, dynamic_clean.run);

  EXPECT_EQ(static_faulted.violations, 0u) << static_faulted.violation_report;
  EXPECT_EQ(dynamic_faulted.violations, 0u)
      << dynamic_faulted.violation_report;
  // Both variants took real damage...
  EXPECT_LT(static_report.faulted_pdr, static_report.baseline_pdr);
  EXPECT_LT(dynamic_report.faulted_pdr, dynamic_report.baseline_pdr);
  // ...but recovering a dynamic cell costs measurably more per payload.
  EXPECT_GT(dynamic_report.recovery_overhead_mj_per_payload,
            static_report.recovery_overhead_mj_per_payload);
}

TEST(FaultCampaign, DynamicSlotReclaimAndRegrant) {
  // Dynamic base station reclaims the slot of a silent node and regrants
  // on rejoin; the cycle shrinks while the node is dead and regrows after.
  // The cell streams data, so only the crashed node ever goes silent.
  BanConfig cfg = hardened_config(mac::Protocol::kDynamicTdma, 53);
  BanNetwork net{cfg};
  net.start();
  ASSERT_TRUE(net.run_until_joined(100_ms, TimePoint::zero() + 20_s));
  const auto joined_cycle = net.base_station_mac().current_cycle();
  const auto owners_full = net.base_station_mac().slot_owners().size();
  EXPECT_EQ(owners_full, 4u);

  mac::NodeMac& victim = net.node(2).mac();
  victim.crash();
  net.run_until(net.simulator().now() + 4_s);
  EXPECT_GT(net.base_station_mac().stats().slots_reclaimed, 0u);
  EXPECT_EQ(net.base_station_mac().slot_owners().size(), owners_full - 1);
  EXPECT_LT(net.base_station_mac().current_cycle(), joined_cycle);

  victim.reboot();
  net.run_until(net.simulator().now() + 6_s);
  EXPECT_TRUE(victim.joined());
  EXPECT_EQ(net.base_station_mac().slot_owners().size(), owners_full);
  EXPECT_EQ(net.base_station_mac().current_cycle(), joined_cycle);
  ASSERT_EQ(victim.rejoin_times().size(), 1u);
}

TEST(FaultCampaign, ResyncCountersTrackBoundedSearch) {
  // Satellite regression: the resync/search counters are asserted, not
  // just incremented.  A node that loses enough beacons must record the
  // fall-back search, its power cycles, and a completed resync sample.
  BanConfig cfg = hardened_config(mac::Protocol::kStaticTdma, 59);
  cfg.fault_plan.enabled = true;
  fault::ShadowEpisode blackout;
  blackout.node = 1;
  blackout.start = TimePoint::zero() + 6_s;
  blackout.duration = 2_s;
  blackout.fer = 1.0;  // total shadowing: nothing reaches node 1
  cfg.fault_plan.episodes.push_back(blackout);

  const CampaignOutcome outcome =
      run_fault_campaign(cfg, {.horizon = 14_s, .drain = 2_s});
  EXPECT_EQ(outcome.violations, 0u) << outcome.violation_report;
  const fault::NodeOutcome& victim = outcome.run.nodes[0];
  EXPECT_GE(victim.resyncs, 1u);
  ASSERT_GE(victim.resync_times.size(), 1u);
  for (const Duration& d : victim.resync_times) {
    EXPECT_GT(d, Duration::zero());
  }
}

}  // namespace
}  // namespace bansim
