#include "core/experiment.hpp"

#include <stdexcept>
#include <string>

namespace bansim::core {

namespace {

double component_mj(const std::vector<energy::ComponentEnergy>& rows,
                    const std::string& name) {
  for (const auto& c : rows) {
    if (c.component == name) return c.joules * 1e3;
  }
  return 0.0;
}

}  // namespace

ScenarioResult run_scenario(const BanConfig& config,
                            const MeasurementProtocol& protocol,
                            os::ModelProbe* probe) {
  if (protocol.focus_node >= config.effective_nodes()) {
    throw std::invalid_argument(
        "focus node " + std::to_string(protocol.focus_node) +
        " is outside the " + std::to_string(config.effective_nodes()) +
        "-node roster");
  }
  BanNetwork network{config, probe};
  network.start();

  ScenarioResult result;
  result.joined = network.run_until_joined(
      protocol.settle, sim::TimePoint::zero() + protocol.join_deadline);
  if (!result.joined) {
    result.events = network.simulator().events_executed();
    return result;
  }

  auto& node = network.node(protocol.focus_node);
  const sim::TimePoint t0 = network.simulator().now();
  const auto before = node.board().breakdown(t0);
  const auto mac_before = node.mac_base().stats_snapshot();

  network.run_until(t0 + protocol.measure);

  const sim::TimePoint t1 = network.simulator().now();
  const auto after = node.board().breakdown(t1);
  const auto mac_after = node.mac_base().stats_snapshot();

  result.radio_mj = component_mj(after, "radio") - component_mj(before, "radio");
  result.mcu_mj = component_mj(after, "mcu") - component_mj(before, "mcu");
  result.asic_mj = component_mj(after, "asic") - component_mj(before, "asic");
  result.total_mj = result.radio_mj + result.mcu_mj;
  result.data_packets = mac_after.data_sent - mac_before.data_sent;
  result.beacons_received =
      mac_after.beacons_received - mac_before.beacons_received;
  result.beacons_missed = mac_after.beacons_missed - mac_before.beacons_missed;
  result.collisions = network.channel().collisions();
  result.events = network.simulator().events_executed();
  result.measured = t1 - t0;
  return result;
}

energy::ValidationRow validation_row(const BanConfig& config,
                                     const MeasurementProtocol& protocol,
                                     std::string parameter_label,
                                     double cycle_ms) {
  BanConfig reference = config;
  reference.fidelity = Fidelity::kReference;
  BanConfig model = config;
  model.fidelity = Fidelity::kModel;

  const ScenarioResult real = run_scenario(reference, protocol);
  const ScenarioResult sim = run_scenario(model, protocol);

  energy::ValidationRow row;
  row.parameter = std::move(parameter_label);
  row.cycle_ms = cycle_ms;
  row.radio_real_mj = real.radio_mj;
  row.radio_sim_mj = sim.radio_mj;
  row.mcu_real_mj = real.mcu_mj;
  row.mcu_sim_mj = sim.mcu_mj;
  return row;
}

}  // namespace bansim::core
