#include "core/network_builder.hpp"

#include <cstdio>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <utility>

#include "sim/rng.hpp"

namespace bansim::core {

bool BuiltCell::all_joined() const {
  for (const auto& node : nodes) {
    if (!node->joined()) return false;
  }
  return true;
}

std::vector<energy::NodeEnergy> BuiltCell::energy_snapshot(
    sim::TimePoint now) const {
  std::vector<energy::NodeEnergy> out;
  out.reserve(nodes.size() + 1);
  for (const auto& node : nodes) out.push_back(node->energy(now));
  out.push_back(bs->energy(now));
  return out;
}

namespace {

void validate_plan(const CellPlan& plan) {
  if (plan.roster.empty() && !plan.allow_empty_roster) {
    throw std::invalid_argument(
        "CellPlan roster is empty: resize it to the desired node count, or "
        "set allow_empty_roster for a deliberate base-station-only cell");
  }
  if (plan.mac == MacKind::kTdma) {
    if (const std::string problem = plan.tdma.validate(); !problem.empty()) {
      throw std::invalid_argument("TdmaConfig: " + problem);
    }
  } else if (plan.mac == MacKind::kCsmaCa) {
    plan.csma.validate();  // throws std::invalid_argument with the key name
  }
}

net::NodeId plan_bs_address(const CellPlan& plan) {
  if (plan.mac == MacKind::kTdma) {
    return mac::TdmaConfig::bs_address(plan.tdma.pan_id);
  }
  if (plan.mac == MacKind::kCsmaCa) {
    return mac::TdmaConfig::bs_address(plan.csma.pan_id);
  }
  return net::kBaseStationId;
}

/// Resolves roster entry `i` into a fully-merged NodeStackInit, consuming
/// exactly one skew draw — shared by build_cell and reset_cell so the two
/// paths cannot drift apart in stream order or override semantics.
NodeStackInit resolve_node_init(const CellPlan& plan, std::size_t i,
                                sim::Rng& skew_rng,
                                std::unordered_set<net::NodeId>& used_addresses,
                                net::NodeId bs_address) {
  const NodeSpec& spec = plan.roster[i];

  NodeStackInit init;
  init.mac = plan.mac;
  init.app = spec.app.value_or(plan.app);
  init.tdma = plan.tdma;
  init.aloha = plan.aloha;
  init.csma = plan.csma;
  init.csma_gts = spec.csma_gts.value_or(false);
  if (init.csma_gts && plan.mac != MacKind::kCsmaCa) {
    throw std::invalid_argument(
        "roster entry " + std::to_string(i) +
        " requests a GTS but the cell does not run CSMA/CA");
  }
  if (init.csma_gts && plan.csma.gts_slots == 0) {
    throw std::invalid_argument(
        "roster entry " + std::to_string(i) +
        " requests a GTS but csma.gts_slots is 0");
  }
  init.streaming = spec.streaming.value_or(plan.streaming);
  init.rpeak = spec.rpeak.value_or(plan.rpeak);
  init.ecg = spec.ecg.value_or(plan.ecg);
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
  init.eeg = spec.eeg.value_or(plan.eeg);
  init.eeg_signal = spec.eeg_signal.value_or(plan.eeg_signal);

  const Fidelity fidelity = spec.fidelity.value_or(plan.fidelity);
  init.board = apply_fidelity(spec.board.value_or(plan.board), fidelity);

  init.storage = spec.storage.value_or(plan.storage);
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
                     : static_cast<net::NodeId>(plan.address_offset + i + 1);
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
  init.eeg_seed = plan.seed ^ sim::fnv1a64("eeg/" + init.name);
  return init;
}

sim::Rng node_stream(const CellPlan& plan, const NodeStackInit& init,
                     const std::string& prefix) {
  const std::string key = plan.streams.key_streams_by_name
                              ? init.name
                              : std::to_string(init.address);
  return sim::Rng::stream(plan.seed, prefix + key);
}

}  // namespace

BuiltCell NetworkBuilder::build_cell(sim::SimContext& context,
                                     phy::Channel& channel,
                                     const CellPlan& plan,
                                     os::ModelProbe& probe,
                                     const os::CycleCostModel& nominal_costs) {
  validate_plan(plan);

  BuiltCell cell;
  cell.seed = plan.seed;
  cell.stagger_stream = plan.streams.stagger;
  cell.stagger_window = plan.stagger;

  // Warm up the kernel before any component constructs: each stack keeps a
  // small constellation of timers/ISRs/frame deliveries in flight, and
  // every component interns its node name once.  Reserving here keeps cell
  // construction and boot staggering from growing the arena incrementally.
  const std::size_t stacks = plan.roster.size() + 1;  // nodes + base station
  context.simulator.reserve_events(16 * stacks);
  context.tracer.reserve(stacks + 1);  // node names + the global ""

  // Per-component deterministic randomness: the same seed reproduces the
  // same network, and the skew/signal/mac streams are independent, so a
  // model-fidelity run (which zeroes tolerance) sees identical signal and
  // MAC draws.
  sim::Rng skew_rng = sim::Rng::stream(plan.seed, plan.streams.skew);

  const hw::BoardParams bs_board = apply_fidelity(plan.board, plan.fidelity);
  const double bs_tol = bs_board.mcu.clock_tolerance;
  const os::CycleCostModel* bs_nominal =
      plan.fidelity == Fidelity::kModel ? &nominal_costs : nullptr;
  const double bs_skew = skew_rng.uniform(-bs_tol, bs_tol);
  cell.bs = std::make_unique<BaseStationStack>(
      context, channel, plan.bs_name, bs_board, bs_skew, plan.mac, plan.tdma,
      plan.aloha, plan.csma, probe, bs_nominal);

  cell.nodes.reserve(plan.roster.size());
  cell.boot_offsets.reserve(plan.roster.size());
  // Duplicate radio addresses make the channel's hardware address filter
  // deliver one node's unicast traffic to another — a mis-assembled roster,
  // not a simulatable topology.  Hard-error before any stack is built.
  std::unordered_set<net::NodeId> used_addresses;
  const net::NodeId bs_address = plan_bs_address(plan);
  used_addresses.insert(bs_address);
  for (std::size_t i = 0; i < plan.roster.size(); ++i) {
    const NodeStackInit init =
        resolve_node_init(plan, i, skew_rng, used_addresses, bs_address);
    sim::Rng mac_rng = node_stream(plan, init, plan.streams.mac_prefix);
    sim::Rng signal_rng = node_stream(plan, init, plan.streams.signal_prefix);

    const Fidelity fidelity = plan.roster[i].fidelity.value_or(plan.fidelity);
    const os::CycleCostModel* nominal =
        fidelity == Fidelity::kModel ? &nominal_costs : nullptr;
    cell.nodes.push_back(std::make_unique<NodeStack>(
        context, channel, init, mac_rng, signal_rng, probe, nominal));
    cell.boot_offsets.push_back(plan.roster[i].boot_offset);
  }
  return cell;
}

void NetworkBuilder::reset_cell(BuiltCell& cell, const CellPlan& plan) {
  validate_plan(plan);
  if (plan.roster.size() != cell.nodes.size()) {
    throw std::invalid_argument(
        "reset_cell: roster size " + std::to_string(plan.roster.size()) +
        " does not match the built cell's " +
        std::to_string(cell.nodes.size()) +
        " nodes; a reset must keep the cell's shape");
  }
  if (cell.bs->mac_kind() != plan.mac) {
    throw std::invalid_argument(
        "reset_cell: MAC kind changed; a reset must keep the cell's shape");
  }

  cell.seed = plan.seed;
  cell.stagger_stream = plan.streams.stagger;
  cell.stagger_window = plan.stagger;
  cell.boot_offsets.clear();

  // Mirror build_cell's draw order exactly: one skew stream, base station
  // first, then every node in index order.
  sim::Rng skew_rng = sim::Rng::stream(plan.seed, plan.streams.skew);
  const hw::BoardParams bs_board = apply_fidelity(plan.board, plan.fidelity);
  const double bs_tol = bs_board.mcu.clock_tolerance;
  const double bs_skew = skew_rng.uniform(-bs_tol, bs_tol);
  cell.bs->reset(bs_skew);

  std::unordered_set<net::NodeId> used_addresses;
  const net::NodeId bs_address = plan_bs_address(plan);
  used_addresses.insert(bs_address);
  for (std::size_t i = 0; i < plan.roster.size(); ++i) {
    const NodeStackInit init =
        resolve_node_init(plan, i, skew_rng, used_addresses, bs_address);
    if (init.address != cell.nodes[i]->address()) {
      throw std::invalid_argument(
          "reset_cell: roster entry " + std::to_string(i) +
          " resolves to address " + std::to_string(init.address) +
          " but the built node has " +
          std::to_string(cell.nodes[i]->address()) +
          "; a reset must keep the cell's shape");
    }
    sim::Rng mac_rng = node_stream(plan, init, plan.streams.mac_prefix);
    sim::Rng signal_rng = node_stream(plan, init, plan.streams.signal_prefix);
    cell.nodes[i]->reset(init, mac_rng, signal_rng);
    cell.boot_offsets.push_back(plan.roster[i].boot_offset);
  }
}

void NetworkBuilder::start_cell(sim::SimContext& context, BuiltCell& cell,
                                NodeStarter starter) {
  cell.bs->start();
  sim::Rng stagger_rng = sim::Rng::stream(cell.seed, cell.stagger_stream);
  for (std::size_t i = 0; i < cell.nodes.size(); ++i) {
    // As with skew: draw for every node so pinned offsets don't shift the
    // draws of later nodes.
    const double drawn_s =
        stagger_rng.uniform(0.0, cell.stagger_window.to_seconds());
    const sim::Duration offset = cell.boot_offsets[i].value_or(
        sim::Duration::from_seconds(drawn_s));
    NodeStack* stack = cell.nodes[i].get();
    if (starter) {
      context.simulator.schedule_in(
          offset, [starter, i, stack] { starter(i, *stack); });
    } else {
      context.simulator.schedule_in(offset, [stack] { stack->start(); });
    }
  }
}

}  // namespace bansim::core
