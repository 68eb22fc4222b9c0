#include "core/network_builder.hpp"

#include <cstdio>
#include <stdexcept>
#include <string>
#include <unordered_set>

#include "core/ban_network.hpp"
#include "sim/rng.hpp"

namespace bansim::core {

namespace {

void validate_config(const BanConfig& config) {
  if (config.protocol == mac::Protocol::kCsmaCa) {
    config.csma.validate();  // throws std::invalid_argument with the key name
  } else if (!mac::is_contention(config.protocol)) {
    const std::string problem =
        config.tdma.validate(config.protocol == mac::Protocol::kStaticTdma);
    if (!problem.empty()) throw std::invalid_argument("TdmaConfig: " + problem);
  }
}

/// Roster entry `i`; a homogeneous cell (empty roster) is num_nodes
/// default specs.
const NodeSpec& spec_at(const BanConfig& config, std::size_t i) {
  static const NodeSpec kDefault{};
  return config.roster.empty() ? kDefault : config.roster[i];
}

/// Stream and base-station names of a cell (see network_builder.hpp).
struct CellNames {
  std::string bs;
  std::string skew;
  std::string stagger;
  std::string mac_prefix;
  std::string signal_prefix;
  bool key_by_name;  ///< "mac/node3" (lone cell) vs "mac/cell0/3"
};

CellNames cell_names(std::size_t index, std::size_t count) {
  if (count == 1) return {"bs", "skew", "stagger", "mac/", "ecg/", true};
  const std::string c = std::to_string(index);
  return {"bs" + c,           "skew/cell" + c,     "stagger/" + c,
          "mac/cell" + c + "/", "ecg/cell" + c + "/", false};
}

/// Resolves roster entry `i` into a fully-merged NodeStackInit, consuming
/// exactly one skew draw.
NodeStackInit resolve_node_init(const BanConfig& config, std::size_t i,
                                sim::Rng& skew_rng,
                                std::unordered_set<net::NodeId>& used_addresses,
                                net::NodeId bs_address) {
  const NodeSpec& spec = spec_at(config, i);

  NodeStackInit init;
  init.protocol = config.protocol;
  init.app = spec.app.value_or(config.app);
  init.tdma = config.tdma;
  init.aloha = config.aloha;
  init.csma = config.csma;
  init.csma_gts = spec.csma_gts.value_or(false);
  if (init.csma_gts && config.protocol != mac::Protocol::kCsmaCa) {
    throw std::invalid_argument(
        "roster entry " + std::to_string(i) +
        " requests a GTS but the cell does not run CSMA/CA");
  }
  if (init.csma_gts && config.csma.gts_slots == 0) {
    throw std::invalid_argument(
        "roster entry " + std::to_string(i) +
        " requests a GTS but csma.gts_slots is 0");
  }
  init.streaming = spec.streaming.value_or(config.streaming);
  init.rpeak = spec.rpeak.value_or(config.rpeak);
  init.ecg = spec.ecg.value_or(config.ecg);
  // Every node's front end samples the ECG synthesizer.  At an infinite or
  // astronomical rate its RR interval rounds to 0 ns and the beat train
  // never advances (the run hangs); zero, negative and NaN rates run but
  // model no heart.
  if (!(init.ecg.heart_rate_bpm >= 20.0 && init.ecg.heart_rate_bpm <= 300.0)) {
    char rate[32];
    std::snprintf(rate, sizeof rate, "%g", init.ecg.heart_rate_bpm);
    throw std::invalid_argument(
        "ecg.heart_rate_bpm = " + std::string(rate) + " in roster entry " +
        std::to_string(i) + " is outside 20..300 bpm");
  }
  init.eeg = spec.eeg.value_or(config.eeg);
  init.eeg_signal = spec.eeg_signal.value_or(config.eeg_signal);

  const Fidelity fidelity = spec.fidelity.value_or(config.fidelity);
  init.board = apply_fidelity(spec.board.value_or(config.board), fidelity);

  init.storage = spec.storage.value_or(config.storage);
  if (const std::string problem = init.storage.validate(); !problem.empty()) {
    throw std::invalid_argument("StorageParams (roster entry " +
                                std::to_string(i) + "): " + problem);
  }

  // Always consume the skew stream, even when the spec pins the value:
  // the draw positions of the remaining nodes must not shift.
  const double tol = init.board.mcu.clock_tolerance;
  const double drawn_skew = skew_rng.uniform(-tol, tol);
  init.clock_skew = spec.clock_skew.value_or(drawn_skew);

  init.address = spec.address != 0
                     ? spec.address
                     : static_cast<net::NodeId>(config.address_offset + i + 1);
  // The broadcast address and the slot table's free marker would be
  // mistaken for "everyone" and "nobody" on the air.
  if (init.address == net::kBroadcastId || init.address == mac::kFreeSlot) {
    throw std::invalid_argument(
        "node." + std::to_string(i + 1) + ".address = " +
        std::to_string(init.address) + " is reserved (" +
        (init.address == net::kBroadcastId ? "broadcast" : "free-slot marker") +
        ")");
  }
  if (!used_addresses.insert(init.address).second) {
    throw std::invalid_argument(
        "duplicate radio address " + std::to_string(init.address) +
        " in roster entry " + std::to_string(i) +
        (init.address == bs_address ? " (collides with the base station)"
                                    : ""));
  }
  if (init.app == AppKind::kEcgStreaming &&
      (init.streaming.payload_bytes == 0 ||
       init.streaming.payload_bytes > net::kMaxPayloadBytes)) {
    throw std::invalid_argument(
        "streaming.payload_bytes = " +
        std::to_string(init.streaming.payload_bytes) + " in roster entry " +
        std::to_string(i) + " is outside 1.." +
        std::to_string(net::kMaxPayloadBytes) + " (one frame's payload)");
  }
  init.name = "node" + std::to_string(init.address);
  init.eeg_seed = config.seed ^ sim::fnv1a64("eeg/" + init.name);
  return init;
}

sim::Rng node_stream(const BanConfig& config, const CellNames& names,
                     const NodeStackInit& init, const std::string& prefix) {
  const std::string key =
      names.key_by_name ? init.name : std::to_string(init.address);
  return sim::Rng::stream(config.seed, prefix + key);
}

const os::CycleCostModel* nominal_for(Fidelity fidelity,
                                      const os::CycleCostModel& costs) {
  return fidelity == Fidelity::kModel ? &costs : nullptr;
}

/// Walks the cell in build order — the base station's board and skew
/// draw, then each node's resolved init and streams — for both build_cell
/// and reset_cell, so the two cannot drift apart in draw order or override
/// semantics.  Per-component deterministic randomness: the same seed
/// reproduces the same network, and the skew/signal/mac streams are
/// independent, so a model-fidelity run (which zeroes tolerance) sees
/// identical signal and MAC draws.
template <typename OnBaseStation, typename OnNode>
void walk_cell(const BanConfig& config, const CellNames& names,
               OnBaseStation on_base_station, OnNode on_node) {
  validate_config(config);
  sim::Rng skew_rng = sim::Rng::stream(config.seed, names.skew);
  const hw::BoardParams bs_board =
      apply_fidelity(config.board, config.fidelity);
  const double bs_tol = bs_board.mcu.clock_tolerance;
  on_base_station(bs_board, skew_rng.uniform(-bs_tol, bs_tol));

  // Duplicate radio addresses make the channel's hardware address filter
  // deliver one node's unicast traffic to another — a mis-assembled roster,
  // not a simulatable topology.  Hard-error before that node is touched.
  const net::NodeId bs_address = config.bs_address();
  std::unordered_set<net::NodeId> used_addresses;
  used_addresses.insert(bs_address);
  for (std::size_t i = 0; i < config.effective_nodes(); ++i) {
    const NodeStackInit init =
        resolve_node_init(config, i, skew_rng, used_addresses, bs_address);
    on_node(i, init, node_stream(config, names, init, names.mac_prefix),
            node_stream(config, names, init, names.signal_prefix));
  }
}

}  // namespace

BuiltCell NetworkBuilder::build_cell(sim::SimContext& context,
                                     phy::Channel& channel,
                                     const BanConfig& config,
                                     std::size_t index, std::size_t count,
                                     os::ModelProbe& probe,
                                     const os::CycleCostModel& nominal_costs) {
  // Warm up the kernel before any component constructs: each stack keeps a
  // small constellation of timers/ISRs/frame deliveries in flight, and
  // every component interns its node name once.  Reserving here keeps cell
  // construction and boot staggering from growing the arena incrementally.
  const std::size_t stacks = config.effective_nodes() + 1;  // + base station
  context.simulator.reserve_events(16 * stacks);
  context.tracer.reserve(stacks + 1);  // node names + the global ""

  const CellNames names = cell_names(index, count);
  BuiltCell cell{nullptr, {}, index, count};
  cell.nodes.reserve(stacks - 1);
  walk_cell(
      config, names,
      [&](const hw::BoardParams& board, double skew) {
        cell.bs = std::make_unique<BaseStationStack>(
            context, channel, names.bs, board, skew, config.protocol,
            config.tdma, config.aloha, config.csma, probe,
            nominal_for(config.fidelity, nominal_costs));
      },
      [&](std::size_t i, const NodeStackInit& init, sim::Rng mac_rng,
          sim::Rng signal_rng) {
        const Fidelity fidelity =
            spec_at(config, i).fidelity.value_or(config.fidelity);
        cell.nodes.push_back(std::make_unique<NodeStack>(
            context, channel, init, mac_rng, signal_rng, probe,
            nominal_for(fidelity, nominal_costs)));
      });
  return cell;
}

void NetworkBuilder::reset_cell(BuiltCell& cell, const BanConfig& built,
                                const BanConfig& config) {
  const auto shape_error = [](const std::string& what) {
    return std::invalid_argument("reset_cell: " + what +
                                 "; a reset must keep the cell's shape");
  };
  const std::size_t num_nodes = config.effective_nodes();
  if (num_nodes != cell.nodes.size()) {
    throw shape_error("roster size " + std::to_string(num_nodes) +
                      " does not match the built cell's " +
                      std::to_string(cell.nodes.size()) + " nodes");
  }
  // The built MACs keep their protocol and parameters across a reset.
  if (config.protocol != built.protocol) {
    throw shape_error(std::string("protocol ") +
                      mac::to_string(config.protocol) +
                      " differs from the built cell's " +
                      mac::to_string(built.protocol));
  }
  const char* changed = config.tdma != built.tdma     ? "tdma"
                        : config.aloha != built.aloha ? "aloha"
                        : config.csma != built.csma   ? "csma"
                                                      : nullptr;
  if (changed != nullptr) {
    throw shape_error(std::string("the ") + changed +
                      " parameters differ from the built cell's");
  }

  walk_cell(
      config, cell_names(cell.index, cell.count),
      [&](const hw::BoardParams&, double skew) { cell.bs->reset(skew); },
      [&](std::size_t i, const NodeStackInit& init, sim::Rng mac_rng,
          sim::Rng signal_rng) {
        NodeStack& node = *cell.nodes[i];
        const std::string entry = "roster entry " + std::to_string(i);
        if (init.address != node.address()) {
          throw shape_error(entry + " resolves to address " +
                            std::to_string(init.address) +
                            " but the built node has " +
                            std::to_string(node.address()));
        }
        if (init.app != node.app_kind()) {
          throw shape_error(entry + " runs " + to_string(init.app) +
                            " but the built node runs " +
                            to_string(node.app_kind()));
        }
        if (init.storage.enabled != (node.energy_store() != nullptr)) {
          throw shape_error(entry +
                            (init.storage.enabled ? " enables" : " disables") +
                            " storage");
        }
        node.reset(init, mac_rng, signal_rng);
      });
}

void NetworkBuilder::start_cell(sim::SimContext& context, BuiltCell& cell,
                                const BanConfig& config) {
  cell.bs->start();
  sim::Rng stagger_rng = sim::Rng::stream(
      config.seed, cell_names(cell.index, cell.count).stagger);
  for (std::size_t i = 0; i < cell.nodes.size(); ++i) {
    // As with skew: draw for every node so pinned offsets don't shift the
    // draws of later nodes.
    const double drawn_s =
        stagger_rng.uniform(0.0, config.stagger.to_seconds());
    const sim::Duration offset = spec_at(config, i).boot_offset.value_or(
        sim::Duration::from_seconds(drawn_s));
    NodeStack* stack = cell.nodes[i].get();
    context.simulator.schedule_in(offset, [stack] { stack->start(); });
  }
}

}  // namespace bansim::core
