#include "core/ban_network.hpp"

#include <stdexcept>
#include <string>
#include <unordered_map>

namespace bansim::core {

BanNetwork::BanNetwork(const BanConfig& config, os::ModelProbe* probe)
    : BanNetwork(std::vector<BanConfig>(1, config), probe) {}

BanNetwork::BanNetwork(std::vector<BanConfig> cells, os::ModelProbe* probe)
    : context_{cells.empty() ? 1 : cells.front().seed},
      channel_{context_},
      probe_{probe != nullptr ? probe : &null_probe_},
      nominal_costs_{os::CycleCostModel::platform_defaults()} {
  if (cells.empty()) {
    throw std::invalid_argument("BanNetwork needs at least one cell");
  }
  const std::size_t count = cells.size();
  // Base-station and node addresses across cells: a repeat would make the
  // channel's address filter deliver one patient's frames to the other.
  std::unordered_map<net::NodeId, std::size_t> address_cell;
  for (std::size_t c = 0; count > 1 && c < count; ++c) {
    const BanConfig& config = cells[c];
    // The link model, fault injector and storage driver are wired for one
    // cell's channel ids and stores (storage is checked once built).
    if (config.use_link_model || config.fault_plan.any()) {
      throw std::invalid_argument(
          "cell " + std::to_string(c) + " sets " +
          (config.use_link_model ? "use_link_model" : "a fault plan") +
          ", which only a one-cell network supports");
    }
    const auto [it, fresh] = address_cell.emplace(config.bs_address(), c);
    if (!fresh) {
      throw std::invalid_argument(
          "cells " + std::to_string(it->second) + " and " + std::to_string(c) +
          " share pan id " + std::to_string(config.pan_id()) +
          "; co-located cells need distinct pan ids");
    }
  }
  cells_.reserve(count);
  for (std::size_t c = 0; c < count; ++c) {
    Cell& cell = cells_.emplace_back();
    cell.config = std::move(cells[c]);
    cell.built = NetworkBuilder::build_cell(context_, channel_, cell.config, c,
                                            count, *probe_, nominal_costs_);
    bool any_rpeak = false;
    for (const auto& node : cell.built.nodes) {
      any_rpeak = any_rpeak || node->app_kind() == AppKind::kRpeak;
      // EEG reassembly state exists only for the nodes that stream EEG;
      // with a heterogeneous roster the other nodes' payloads bypass the
      // collectors.
      if (node->app_kind() == AppKind::kEegMonitoring) {
        eeg_collectors_.try_emplace(
            node->address(),
            apps::EegCollector{node->eeg_app()->config().channels});
      }
      if (count == 1) continue;
      if (node->energy_store() != nullptr) {
        throw std::invalid_argument(
            "cell " + std::to_string(c) + " gives " + node->name() +
            " energy storage, which only a one-cell network supports");
      }
      const auto [it, fresh] = address_cell.emplace(node->address(), c);
      if (!fresh) {
        throw std::invalid_argument(
            "address " + std::to_string(node->address()) +
            " is used in cells " + std::to_string(it->second) + " and " +
            std::to_string(c) +
            "; co-located cells need disjoint address ranges");
      }
    }
    apps::BaseStationApp* app = &cell.built.bs->app();
    cell.built.bs->set_data_handler(
        [this, app](net::NodeId src, std::span<const std::uint8_t> payload,
                    sim::TimePoint when) {
          app->on_data(src, payload, when);
          const auto it = eeg_collectors_.find(src);
          if (it != eeg_collectors_.end()) it->second.on_payload(payload);
        });
    app->set_decode_beats(any_rpeak);
  }

  // Link model, fault injector and storage driver: one-cell networks only
  // (checked above).
  const BanConfig& config = cells_.front().config;
  BuiltCell& cell = cells_.front().built;
  if (config.use_link_model) {
    // Channel ids follow construction order: bs = 0, node i = i+1, which
    // matches the position vector's convention.
    std::vector<phy::BodyPosition> positions =
        config.body_positions.empty()
            ? phy::standard_ban_layout(cell.nodes.size())
            : config.body_positions;
    link_model_ = std::make_unique<phy::LinkModel>(
        std::move(positions), config.link_budget, config.seed);
    channel_.set_error_model(
        [model = link_model_.get()](std::uint32_t tx, std::uint32_t rx,
                                    std::size_t frame_bytes) {
          return model->frame_error_rate(tx, rx, frame_bytes);
        },
        sim::Rng::stream(config.seed, "channel/ber"));
  }

  if (config.fault_plan.any()) {
    injector_ =
        std::make_unique<fault::FaultInjector>(context_, config.fault_plan);
    // Roster order matches channel-id order (bs = 0, node i = i+1), which
    // is the numbering FaultPlan clauses use.
    for (auto& node : cell.nodes) {
      injector_->add_node(node->mac_base(), node->board());
    }
    if (config.fault_plan.touches_channel()) {
      injector_->install_error_model(channel_, link_model_.get());
    }
  }

  // The storage driver exists only when some node actually carries a live
  // store; nodes whose (possibly overridden) storage stays disabled keep
  // running off the bench supply and are simply not registered.
  for (auto& node : cell.nodes) {
    if (node->energy_store() == nullptr) continue;
    if (!storage_driver_) {
      storage_driver_ = std::make_unique<fault::StorageDriver>(context_);
    }
    storage_driver_->add_node(node->mac_base(), node->board(),
                              *node->energy_store());
  }
}

void BanNetwork::reset(const BanConfig& config) {
  if (cells_.size() != 1) {
    throw std::invalid_argument(
        "BanNetwork::reset: a network of " + std::to_string(cells_.size()) +
        " cells cannot be reset; build a new one");
  }
  if (config.use_link_model != (link_model_ != nullptr)) {
    throw std::invalid_argument(
        "BanNetwork::reset: use_link_model changed; a reset must keep the "
        "network's shape");
  }
  if (config.fault_plan.any() != (injector_ != nullptr) ||
      config.fault_plan.touches_channel() !=
          cells_.front().config.fault_plan.touches_channel()) {
    throw std::invalid_argument(
        "BanNetwork::reset: fault-plan activeness changed; a reset must "
        "keep the network's shape");
  }
  // Order matters: the context reset installs the new seed, which the
  // injector's stream re-derivation and the channel/link streams read.
  context_.reset(config.seed);
  channel_.reset(sim::Rng::stream(config.seed, "channel/ber"));
  if (link_model_) link_model_->reset(config.seed);
  if (injector_) injector_->reset(config.fault_plan);
  if (storage_driver_) storage_driver_->reset();
  NetworkBuilder::reset_cell(cells_.front().built, cells_.front().config,
                             config);
  cells_.front().config = config;
  for (auto& [addr, collector] : eeg_collectors_) collector.reset();
}

void BanNetwork::start() {
  for (Cell& cell : cells_) {
    NetworkBuilder::start_cell(context_, cell.built, cell.config);
  }
  if (injector_) injector_->start();
  if (storage_driver_) storage_driver_->start();
}

void BanNetwork::run_until(sim::TimePoint until) {
  context_.simulator.run_until(until);
}

bool BanNetwork::all_joined() const {
  for (const Cell& cell : cells_) {
    for (const auto& node : cell.built.nodes) {
      if (!node->joined()) return false;
    }
  }
  return true;
}

bool BanNetwork::run_until_joined(sim::Duration settle,
                                  sim::TimePoint deadline) {
  const sim::Duration poll = sim::Duration::milliseconds(50);
  while (!all_joined()) {
    if (context_.simulator.now() >= deadline) return false;
    context_.simulator.run_until(context_.simulator.now() + poll);
  }
  context_.simulator.run_until(context_.simulator.now() + settle);
  return true;
}

apps::EegCollector* BanNetwork::eeg_collector(net::NodeId node) {
  const auto it = eeg_collectors_.find(node);
  return it == eeg_collectors_.end() ? nullptr : &it->second;
}

std::vector<energy::NodeEnergy> BanNetwork::energy_snapshot(
    std::size_t cell) const {
  const BuiltCell& built = cells_[cell].built;
  const sim::TimePoint now = context_.simulator.now();
  std::vector<energy::NodeEnergy> out;
  out.reserve(built.nodes.size() + 1);
  for (const auto& node : built.nodes) out.push_back(node->energy(now));
  out.push_back(built.bs->energy(now));
  return out;
}

}  // namespace bansim::core
