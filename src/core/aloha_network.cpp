#include "core/aloha_network.hpp"

namespace bansim::core {

using namespace os::literals;

AlohaNetwork::AlohaNetwork(const AlohaNetworkConfig& config)
    : config_{config},
      context_{config.seed},
      channel_{context_},
      nominal_costs_{os::CycleCostModel::platform_defaults()} {
  CellPlan plan;
  plan.seed = config_.seed;
  plan.mac = MacKind::kAloha;
  plan.aloha = config_.aloha;
  plan.board = config_.board;
  plan.fidelity = Fidelity::kReference;
  plan.app = AppKind::kNone;
  // Historical stream naming: the ALOHA baseline keys its MAC streams
  // "aloha/<addr>" and staggers boots inside one payload interval.
  plan.streams.mac_prefix = "aloha/";
  plan.streams.key_streams_by_name = false;
  plan.stagger = config_.payload_interval;
  plan.roster.resize(config_.num_nodes);

  cell_ = NetworkBuilder::build_cell(context_, channel_, plan, probe_,
                                     nominal_costs_);
  generators_.resize(cell_.nodes.size());
}

void AlohaNetwork::start() {
  NetworkBuilder::start_cell(
      context_, cell_, [this](std::size_t i, NodeStack& stack) {
        stack.start();
        Generator* gen = &generators_[i];
        mac::AlohaNodeMac* node_mac = &stack.aloha_mac();
        gen->timer = stack.node_os().timers().start_periodic(
            "app.generate"_task, config_.payload_interval,
            [this, gen, node_mac] {
              ++gen->generated;
              node_mac->queue_payload(
                  std::vector<std::uint8_t>(config_.payload_bytes, 0xEC));
            });
      });
}

void AlohaNetwork::run_until(sim::TimePoint until) {
  context_.simulator.run_until(until);
}

}  // namespace bansim::core
