// Experiment harness: runs a BAN scenario at a chosen fidelity, applies the
// paper's measurement protocol (join the network, then measure a fixed
// window — 60 s in all of Tables 1-4), and extracts per-component energy
// for the node under test.
#pragma once

#include <optional>
#include <string>

#include "core/ban_network.hpp"
#include "energy/energy_report.hpp"

namespace bansim::core {

/// Result of one scenario run for one focus node.
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

struct MeasurementProtocol {
  sim::Duration measure{sim::Duration::seconds(60)};
  sim::Duration settle{sim::Duration::seconds(2)};
  sim::Duration join_deadline{sim::Duration::seconds(30)};
  std::size_t focus_node{0};  ///< index of the validated node (the ECG node)
};

/// Runs `config` under `protocol` and reports the focus node's energy over
/// the measurement window (post-join steady state, as the paper measures).
/// Throws std::invalid_argument when the focus node is not in the roster.
[[nodiscard]] ScenarioResult run_scenario(const BanConfig& config,
                                          const MeasurementProtocol& protocol,
                                          os::ModelProbe* probe = nullptr);

/// Runs the scenario at both fidelities and builds one validation-table row.
[[nodiscard]] energy::ValidationRow validation_row(
    const BanConfig& config, const MeasurementProtocol& protocol,
    std::string parameter_label, double cycle_ms);

}  // namespace bansim::core
