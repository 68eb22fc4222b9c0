// The checking layer itself: a clean network run raises no violations and
// leaves energies bit-identical, injected breaches are caught, and the
// fuzzer's config generator is deterministic.
#include <gtest/gtest.h>

#include "check/invariant_monitor.hpp"
#include "check/scenario_fuzzer.hpp"
#include "core/ban_network.hpp"
#include "core/config_io.hpp"
#include "hw/mcu.hpp"
#include "hw/radio_nrf2401.hpp"

namespace bansim {
namespace {

core::BanConfig small_config() {
  core::BanConfig config;
  config.num_nodes = 3;
  config.protocol = mac::Protocol::kDynamicTdma;
  config.seed = 7;
  return config;
}

/// Runs `config` to a joined steady state; returns the energy snapshot.
std::vector<energy::NodeEnergy> run_network(
    const core::BanConfig& config, check::InvariantMonitor* monitor) {
  core::BanNetwork network{config};
  if (monitor != nullptr) monitor->watch_network(network);
  network.start();
  EXPECT_TRUE(network.run_until_joined(
      sim::Duration::milliseconds(200),
      sim::TimePoint::zero() + sim::Duration::seconds(12)));
  network.run_until(network.simulator().now() +
                    sim::Duration::milliseconds(400));
  if (monitor != nullptr) monitor->final_audit(network.simulator().now());
  return network.energy_snapshot();
}

TEST(InvariantMonitor, CleanRunHasNoViolations) {
  const core::BanConfig config = small_config();
  core::BanNetwork network{config};
  check::InvariantMonitor monitor{network.context()};
  monitor.watch_network(network);
  network.start();
  ASSERT_TRUE(network.run_until_joined(
      sim::Duration::milliseconds(200),
      sim::TimePoint::zero() + sim::Duration::seconds(12)));
  monitor.audit(network.simulator().now());
  EXPECT_TRUE(monitor.ok()) << monitor.report();

  network.run_until(network.simulator().now() +
                    sim::Duration::milliseconds(400));
  monitor.final_audit(network.simulator().now());
  EXPECT_TRUE(monitor.ok()) << monitor.report();
  EXPECT_GT(monitor.hook_events(), 0u);
  EXPECT_TRUE(monitor.report().empty());
}

TEST(InvariantMonitor, MonitorOnOffEnergiesBitIdentical) {
  const core::BanConfig config = small_config();

  std::vector<energy::NodeEnergy> monitored;
  {
    core::BanNetwork network{config};
    check::InvariantMonitor monitor{network.context()};
    monitor.watch_network(network);
    network.start();
    ASSERT_TRUE(network.run_until_joined(
        sim::Duration::milliseconds(200),
        sim::TimePoint::zero() + sim::Duration::seconds(12)));
    network.run_until(network.simulator().now() +
                      sim::Duration::milliseconds(400));
    monitor.final_audit(network.simulator().now());
    EXPECT_TRUE(monitor.ok()) << monitor.report();
    monitored = network.energy_snapshot();
  }
  const std::vector<energy::NodeEnergy> plain = run_network(config, nullptr);

  ASSERT_EQ(monitored.size(), plain.size());
  for (std::size_t n = 0; n < monitored.size(); ++n) {
    EXPECT_EQ(monitored[n].node, plain[n].node);
    ASSERT_EQ(monitored[n].components.size(), plain[n].components.size());
    for (std::size_t c = 0; c < monitored[n].components.size(); ++c) {
      const auto& mon = monitored[n].components[c];
      const auto& ref = plain[n].components[c];
      EXPECT_EQ(mon.component, ref.component);
      EXPECT_EQ(mon.joules, ref.joules)
          << monitored[n].node << "/" << mon.component;
      ASSERT_EQ(mon.per_state.size(), ref.per_state.size());
      for (std::size_t s = 0; s < mon.per_state.size(); ++s) {
        EXPECT_EQ(mon.per_state[s].second, ref.per_state[s].second)
            << monitored[n].node << "/" << mon.component << "/"
            << mon.per_state[s].first;
      }
    }
  }
}

TEST(InvariantMonitor, IllegalRadioTransitionIsCaught) {
  core::BanNetwork network{small_config()};
  check::InvariantMonitor monitor{network.context()};
  monitor.watch_network(network);

  const void* radio = &network.node(0).board().radio();
  // kPowerDown -> kTxAir skips power-up, clock-in and settling.
  monitor.on_radio_state(radio, static_cast<int>(hw::RadioState::kPowerDown),
                         static_cast<int>(hw::RadioState::kTxAir),
                         network.simulator().now());
  EXPECT_FALSE(monitor.ok());
  EXPECT_NE(monitor.report().find("radio"), std::string::npos)
      << monitor.report();
}

TEST(InvariantMonitor, ShortTxSettleIsCaught) {
  core::BanNetwork network{small_config()};
  check::InvariantMonitor monitor{network.context()};
  monitor.watch_network(network);

  const void* radio = &network.node(0).board().radio();
  const sim::TimePoint t0 = network.simulator().now();
  monitor.on_radio_state(radio, static_cast<int>(hw::RadioState::kPowerDown),
                         static_cast<int>(hw::RadioState::kPoweringUp), t0);
  // Claim standby after only 1 ms instead of the 3 ms crystal start-up.
  monitor.on_radio_state(radio, static_cast<int>(hw::RadioState::kPoweringUp),
                         static_cast<int>(hw::RadioState::kStandby),
                         t0 + sim::Duration::milliseconds(1));
  EXPECT_FALSE(monitor.ok());
}

TEST(InvariantMonitor, UnknownFrameRetireIsCaught) {
  core::BanNetwork network{small_config()};
  check::InvariantMonitor monitor{network.context()};
  monitor.watch_network(network);

  // Frame id far beyond anything transmitted (and beyond the pre-watch
  // baseline) retiring out of nowhere breaks conservation.
  monitor.on_frame_retired(&network.channel(), 1'000'000u,
                           /*corrupted=*/false);
  EXPECT_FALSE(monitor.ok());
  EXPECT_NE(monitor.report().find("conservation"), std::string::npos)
      << monitor.report();
}

TEST(InvariantMonitor, PhantomMeterTransitionBreaksEnergyClosure) {
  core::BanNetwork network{small_config()};
  check::InvariantMonitor monitor{network.context()};
  monitor.watch_network(network);
  network.start();
  network.run_until(sim::TimePoint::zero() + sim::Duration::milliseconds(50));

  // A transition notification the meter never performed desynchronizes the
  // monitor's shadow ledger; the next audit must notice.
  energy::EnergyMeter& meter = network.node(0).board().mcu().meter();
  monitor.on_meter_transition(&meter, static_cast<int>(hw::McuMode::kLpm3),
                              network.simulator().now());
  network.run_until(network.simulator().now() +
                    sim::Duration::milliseconds(50));
  monitor.audit(network.simulator().now());
  EXPECT_FALSE(monitor.ok());
}

TEST(ScenarioFuzzer, ConfigGenerationIsDeterministic) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const core::BanConfig a = check::make_fuzz_config(seed);
    const core::BanConfig b = check::make_fuzz_config(seed);
    EXPECT_EQ(core::serialize_config(a), core::serialize_config(b));
    EXPECT_GE(a.effective_nodes(), 1u);
    EXPECT_LE(a.effective_nodes(), 6u);
    if (a.protocol == mac::Protocol::kStaticTdma) {
      EXPECT_GE(a.tdma.max_slots, a.effective_nodes());
    }
  }
  // Different seeds must not collapse onto one configuration.
  EXPECT_NE(core::serialize_config(check::make_fuzz_config(1)),
            core::serialize_config(check::make_fuzz_config(2)));
}

TEST(ScenarioFuzzer, SmallBatteryPasses) {
  check::FuzzOptions options;
  options.start_seed = 1;
  options.num_seeds = 3;
  options.parallel_oracle_seeds = 2;
  options.measure = sim::Duration::milliseconds(200);
  const check::ScenarioFuzzer fuzzer{options};
  const check::FuzzSummary summary = fuzzer.run();
  EXPECT_EQ(summary.cases_run, 3u);
  EXPECT_TRUE(summary.ok()) << (summary.failed.empty()
                                    ? summary.parallel_oracle_detail
                                    : summary.failed.front().failure);
}

}  // namespace
}  // namespace bansim
