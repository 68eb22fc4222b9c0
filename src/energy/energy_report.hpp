// Formatting of energy results: per-node component breakdowns and the
// paper's Real-vs-Sim comparison tables (text and CSV).
#pragma once

#include <string>
#include <vector>

#include "energy/energy_meter.hpp"

namespace bansim::energy {

/// One node's energy snapshot at the end of a run.
struct NodeEnergy {
  std::string node;
  std::vector<ComponentEnergy> components;

  [[nodiscard]] double total_joules() const;

  /// Energy of one component (0 if the node has no such component).
  [[nodiscard]] double component_joules(const std::string& component) const;
};

/// Renders a per-node, per-component table in millijoules.
[[nodiscard]] std::string render_energy_table(const std::vector<NodeEnergy>& nodes);

/// One row of a paper-style validation table: a swept parameter value plus
/// reference ("Real") and estimated ("Sim") energies for radio and MCU.
struct ValidationRow {
  std::string parameter;   ///< e.g. "205" (Hz) or "3" (nodes)
  double cycle_ms{0};
  double radio_real_mj{0};
  double radio_sim_mj{0};
  double mcu_real_mj{0};
  double mcu_sim_mj{0};

  [[nodiscard]] double radio_error() const;  ///< |sim-real|/real
  [[nodiscard]] double mcu_error() const;
};

/// A full validation table (one of the paper's Tables 1-4).
struct ValidationTable {
  std::string title;
  std::string parameter_name;  ///< header of the swept column
  std::vector<ValidationRow> rows;

  [[nodiscard]] double avg_radio_error() const;
  [[nodiscard]] double avg_mcu_error() const;

  /// Paper-style rendering:
  ///   param  Cycle(ms)  Radio Real  Radio Sim  uC Real  uC Sim
  /// with the average errors appended, matching Tables 1-4.
  [[nodiscard]] std::string render() const;

  [[nodiscard]] std::string render_csv() const;
};

}  // namespace bansim::energy
