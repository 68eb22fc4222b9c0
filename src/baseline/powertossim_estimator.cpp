#include "baseline/powertossim_estimator.hpp"

namespace bansim::baseline {

namespace {
/// Fallback nominal cost for tasks missing from the calibration table.
constexpr std::uint64_t kDefaultTaskCycles = 300;
}  // namespace

PowerTossimEstimator::PowerTossimEstimator(const hw::McuParams& mcu,
                                           const hw::RadioParams& radio,
                                           const phy::PhyConfig& phy,
                                           os::CycleCostModel cost_model,
                                           const EstimatorOptions& options)
    : mcu_{mcu}, radio_{radio}, phy_{phy}, costs_{std::move(cost_model)},
      options_{options} {}

void PowerTossimEstimator::begin_measurement(sim::TimePoint t0) {
  t0_ = t0;
  for (auto& [node, acc] : accounts_) {
    const bool was_listening = acc.listening;
    acc = NodeAccount{};
    acc.listening = was_listening;
    acc.listen_since = t0;
  }
}

PowerTossimEstimator::NodeAccount& PowerTossimEstimator::account(
    std::string_view node) {
  auto it = accounts_.find(node);
  if (it == accounts_.end()) {
    it = accounts_.emplace(std::string{node}, NodeAccount{}).first;
  }
  return it->second;
}

void PowerTossimEstimator::on_task(std::string_view node, std::string_view task,
                                   sim::TimePoint when) {
  if (when < t0_) return;
  NodeAccount& acc = account(node);
  acc.task_cycles += costs_.lookup(os::TaskId{task}, kDefaultTaskCycles);
  ++acc.tasks;
}

void PowerTossimEstimator::on_radio_rx_on(std::string_view node,
                                          sim::TimePoint when) {
  NodeAccount& acc = account(node);
  acc.listening = true;
  acc.listen_since = when < t0_ ? t0_ : when;
}

void PowerTossimEstimator::on_radio_rx_off(std::string_view node,
                                           sim::TimePoint when) {
  NodeAccount& acc = account(node);
  if (acc.listening && when >= t0_) {
    const sim::TimePoint from = acc.listen_since < t0_ ? t0_ : acc.listen_since;
    acc.rx_seconds += (when - from).to_seconds();
  }
  acc.listening = false;
}

void PowerTossimEstimator::on_radio_tx(std::string_view node,
                                       std::size_t frame_bytes,
                                       sim::TimePoint when) {
  if (when < t0_) return;
  NodeAccount& acc = account(node);
  acc.pending_tx_bytes = frame_bytes;
}

void PowerTossimEstimator::on_packet(std::string_view node,
                                     net::PacketType type, bool transmit,
                                     sim::TimePoint when) {
  NodeAccount& acc = account(node);
  const bool is_control = type != net::PacketType::kData;
  if (!transmit) {
    if (when >= t0_ && is_control) ++acc.control_frames;
    return;
  }
  if (when < t0_) {
    acc.pending_tx_bytes = 0;
    return;
  }
  if (is_control) ++acc.control_frames;
  if (is_control && !options_.include_control_packets) {
    acc.pending_tx_bytes = 0;
    return;
  }
  acc.tx_air_seconds +=
      phy::air_time(phy_, acc.pending_tx_bytes).to_seconds();
  ++acc.tx_frames;
  acc.pending_tx_bytes = 0;
}

std::map<std::string, NodeEstimate> PowerTossimEstimator::finalize(
    sim::TimePoint t1) const {
  std::map<std::string, NodeEstimate> out;
  const double window_s = (t1 - t0_).to_seconds();
  for (const auto& [node, acc] : accounts_) {
    NodeEstimate est;
    est.tasks = acc.tasks;
    est.tx_frames = acc.tx_frames;
    est.control_frames = acc.control_frames;

    double rx_s = acc.rx_seconds;
    if (acc.listening) {
      const sim::TimePoint from = acc.listen_since < t0_ ? t0_ : acc.listen_since;
      rx_s += (t1 - from).to_seconds();
    }
    if (!options_.include_listen_windows) rx_s = 0.0;

    est.radio_joules = radio_.supply_volts *
                       (rx_s * radio_.rx_current_amps +
                        acc.tx_air_seconds * radio_.tx_current_amps);

    double active_s = 0.0;
    if (options_.include_mcu_tasks) {
      active_s = static_cast<double>(acc.task_cycles) / mcu_.cpu_hz;
    }
    if (active_s > window_s) active_s = window_s;
    est.mcu_joules = mcu_.supply_volts *
                     (active_s * mcu_.active_current_amps +
                      (window_s - active_s) * mcu_.lpm_current_amps);
    out.emplace(node, est);
  }
  return out;
}

}  // namespace bansim::baseline
