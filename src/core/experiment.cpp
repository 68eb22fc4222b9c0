#include "core/experiment.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace bansim::core {

namespace {

/// Index of the validated node (the ECG node).
constexpr std::size_t kFocusNode = 0;

RunSample sample(BanNetwork& network) {
  RunSample s;
  s.at = network.simulator().now();
  const std::size_t nodes = network.num_nodes();
  s.joules.reserve(nodes + 1);
  s.mac.reserve(nodes);
  for (std::size_t n = 0; n < nodes; ++n) {
    s.joules.push_back(network.node(n).board().joules(s.at));
    s.mac.push_back(network.node(n).mac_base().stats_snapshot());
  }
  s.joules.push_back(network.base_station_board().joules(s.at));
  s.delivered = network.base_station_app().total_packets();
  return s;
}

}  // namespace

RunRecord run(BanNetwork& network, const MeasurementProtocol& protocol) {
  network.start();
  RunRecord record;
  if (protocol.join_deadline.is_positive() &&
      !network.run_until_joined(
          protocol.settle, sim::TimePoint::zero() + protocol.join_deadline)) {
    return record;
  }
  record.joined = true;
  record.open = sample(network);

  const sim::TimePoint horizon = record.open.at + protocol.measure;
  if (protocol.poll.is_positive()) {
    // Chunk boundaries are fixed multiples of poll past the open, so the
    // trajectory is the same whether or not a depletion closes the window.
    const fault::StorageDriver* driver = network.storage_driver();
    for (sim::TimePoint at = record.open.at; at < horizon;) {
      at = std::min(at + protocol.poll, horizon);
      network.run_until(at);
      if (driver != nullptr && driver->stats().depletion_deaths > 0) break;
    }
  } else {
    network.run_until(horizon);
  }
  record.close = sample(network);

  if (auto* injector = network.fault_injector()) injector->stop();
  if (auto* driver = network.storage_driver()) driver->stop();
  network.run_until(record.close.at + protocol.drain);
  return record;
}

ScenarioResult run_scenario(const BanConfig& config,
                            const MeasurementProtocol& protocol,
                            os::ModelProbe* probe) {
  if (kFocusNode >= config.effective_nodes()) {
    throw std::invalid_argument(
        "focus node " + std::to_string(kFocusNode) +
        " is outside the " + std::to_string(config.effective_nodes()) +
        "-node roster");
  }
  BanNetwork network{config, probe};
  const RunRecord record = run(network, protocol);

  ScenarioResult result;
  result.joined = record.joined;
  result.events = network.simulator().events_executed();
  if (!result.joined) return result;

  const hw::Joules& before = record.open.joules[kFocusNode];
  const hw::Joules& after = record.close.joules[kFocusNode];
  const mac::MacStatsSnapshot& mac_before = record.open.mac[kFocusNode];
  const mac::MacStatsSnapshot& mac_after = record.close.mac[kFocusNode];
  result.radio_mj = after.radio * 1e3 - before.radio * 1e3;
  result.mcu_mj = after.mcu * 1e3 - before.mcu * 1e3;
  result.asic_mj = after.asic * 1e3 - before.asic * 1e3;
  result.total_mj = result.radio_mj + result.mcu_mj;
  result.data_packets = mac_after.data_sent - mac_before.data_sent;
  result.beacons_received =
      mac_after.beacons_received - mac_before.beacons_received;
  result.beacons_missed = mac_after.beacons_missed - mac_before.beacons_missed;
  result.collisions = network.channel().collisions();
  result.measured = record.close.at - record.open.at;
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
