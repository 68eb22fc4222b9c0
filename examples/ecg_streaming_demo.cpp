// ECG streaming scenario (paper Section 5.1) in detail: forms the 5-node
// BAN, streams 2-channel ECG at 205 Hz to the base station, and reports
// what a platform engineer would ask for — delivery statistics, per-node
// energy split, the estimation-model comparison, and where every millijoule
// of the radio went.
#include <cstdio>

#include "core/bansim.hpp"
#include "core/power_profile.hpp"

int main() {
  using namespace bansim;
  using sim::Duration;

  core::PaperSetup setup;
  setup.measure = Duration::seconds(60);

  core::BanConfig config =
      core::streaming_static_config(setup, Duration::milliseconds(30));
  config.streaming.sample_rate_hz = 205;

  std::printf("=== ECG streaming, 5-node BAN, static TDMA (30 ms cycle) ===\n\n");

  // Reference run ("what the bench ammeter would read").
  core::MeasurementProtocol protocol;
  protocol.measure = setup.measure;
  const core::ScenarioResult real = core::run_scenario(config, protocol);
  if (!real.joined) {
    std::printf("network failed to form\n");
    return 1;
  }

  // Estimation-model run (the paper's simulator).
  core::BanConfig model_cfg = config;
  model_cfg.fidelity = core::Fidelity::kModel;
  const core::ScenarioResult sim = core::run_scenario(model_cfg, protocol);

  std::printf("node1 energy over %.0f s (radio + microcontroller):\n",
              real.measured.to_seconds());
  std::printf("  %-22s %10s %10s\n", "", "Real", "Sim");
  std::printf("  %-22s %8.1f mJ %8.1f mJ\n", "radio", real.radio_mj,
              sim.radio_mj);
  std::printf("  %-22s %8.1f mJ %8.1f mJ\n", "microcontroller", real.mcu_mj,
              sim.mcu_mj);
  std::printf("  %-22s %8.1f mJ %8.1f mJ\n", "total (validated)",
              real.total_mj, sim.total_mj);
  std::printf("  %-22s %8.1f mJ  (constant 10.5 mW, excluded from validation)\n",
              "25-ch ASIC", real.asic_mj);
  std::printf("  estimation error: radio %.1f%%, uC %.1f%%\n\n",
              100.0 * std::abs(sim.radio_mj - real.radio_mj) / real.radio_mj,
              100.0 * std::abs(sim.mcu_mj - real.mcu_mj) / real.mcu_mj);

  std::printf("traffic: %llu data packets from node1 (%llu beacons heard, "
              "%llu missed)\n\n",
              static_cast<unsigned long long>(real.data_packets),
              static_cast<unsigned long long>(real.beacons_received),
              static_cast<unsigned long long>(real.beacons_missed));

  // A fresh network for the detailed per-state breakdown.
  core::BanNetwork network{config};
  (void)core::run(network, {.measure = Duration::seconds(10),
                            .settle = Duration::seconds(1)});
  std::printf("per-state energy after 10 s of steady state:\n%s\n",
              energy::render_energy_table(network.energy_snapshot()).c_str());
  std::printf("%s", network.base_station_app().render_summary().c_str());

  // A bench-supply view of node1: two TDMA cycles of instantaneous power.
  core::PowerProfileOptions profile_options;
  profile_options.window = Duration::milliseconds(60);
  profile_options.step = Duration::from_microseconds(250);
  const energy::PowerTrace trace =
      core::capture_power_profile(network, 0, profile_options);
  std::printf("\nnode1 power profile (60 ms = two cycles, %.0f uW floor, "
              "%.1f mW peak):\n",
              1e6 * [&] {
                double floor = 1e9;
                for (std::size_t i = 0; i < trace.size(); ++i) {
                  floor = std::min(floor, trace.watts_at(i));
                }
                return floor;
              }(),
              1e3 * trace.peak());
  const char* levels = " .:-=+*#%@";
  std::string sparkline;
  for (std::size_t i = 0; i < trace.size(); i += trace.size() / 120 + 1) {
    const double frac = trace.watts_at(i) / trace.peak();
    sparkline += levels[static_cast<std::size_t>(frac * 9.0)];
  }
  std::printf("  |%s|\n", sparkline.c_str());
  std::printf("  (sleep floor interrupted by the beacon listen plateau and "
              "the slot TX burst)\n");
  return 0;
}
