// Experiment harness: the one run executor and the paper's scenario
// reduction.  core::run drives a BanNetwork through a MeasurementProtocol
// (join the network, settle, measure a fixed window — 60 s in all of
// Tables 1-4 — then optionally drain) and records every device's meters
// at the window's open and close; run_scenario reduces that record to the
// focus node's per-component energy.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/ban_network.hpp"
#include "energy/energy_report.hpp"

namespace bansim::core {

/// How core::run drives a network.
struct MeasurementProtocol {
  /// Length of the measured window.
  sim::Duration measure{sim::Duration::seconds(60)};
  /// Run after every node has joined, before the window opens.
  sim::Duration settle{sim::Duration::seconds(2)};
  /// The join phase polls every 50 ms and gives up at the first poll at or
  /// past this instant.  Zero skips the join phase: the window opens at
  /// t = 0.
  sim::Duration join_deadline{sim::Duration::seconds(30)};
  /// Non-zero steps the window in `poll` chunks and closes it at the first
  /// chunk that ends with a depleted store.
  sim::Duration poll{};
  /// Run after the window closes, with the fault injector's recurring
  /// processes and the storage driver stopped.
  sim::Duration drain{};
};

/// The first cell's meters at one instant.
struct RunSample {
  sim::TimePoint at{};
  /// Nodes in roster order, then the base station.
  std::vector<hw::Joules> joules;
  std::vector<mac::MacStatsSnapshot> mac;  ///< nodes in roster order
  std::uint64_t delivered{0};  ///< payloads the base station has counted
};

/// What core::run measured.
struct RunRecord {
  /// False when the join phase missed its deadline; then nothing was
  /// measured and the network stands at that poll.
  bool joined{false};
  RunSample open;
  RunSample close;  ///< taken before the drain
};

/// The run executor: starts `network` (built or reset, not yet started),
/// runs the join phase, the window and the drain of `protocol`, and
/// returns the meters at the window's open and close.
[[nodiscard]] RunRecord run(BanNetwork& network,
                            const MeasurementProtocol& protocol);

/// Result of one scenario run for the focus node: node 0, the validated
/// ECG node.
struct ScenarioResult {
  double radio_mj{0};
  double mcu_mj{0};
  double asic_mj{0};
  double total_mj{0};            ///< radio + mcu (paper's validation scope)
  std::uint64_t data_packets{0}; ///< frames the focus node transmitted
  std::uint64_t beacons_received{0};
  std::uint64_t beacons_missed{0};
  std::uint64_t collisions{0};   ///< channel-wide
  std::uint64_t events{0};       ///< kernel events executed over the whole run
  sim::Duration measured{};      ///< actual measurement window
  bool joined{false};            ///< network formed before the deadline
};

/// Runs `config` under `protocol` and reports the focus node's energy over
/// the measurement window (post-join steady state, as the paper measures).
/// Throws std::invalid_argument when the roster is empty.
[[nodiscard]] ScenarioResult run_scenario(const BanConfig& config,
                                          const MeasurementProtocol& protocol,
                                          os::ModelProbe* probe = nullptr);

/// Runs the scenario at both fidelities and builds one validation-table row.
[[nodiscard]] energy::ValidationRow validation_row(
    const BanConfig& config, const MeasurementProtocol& protocol,
    std::string parameter_label, double cycle_ms);

}  // namespace bansim::core
