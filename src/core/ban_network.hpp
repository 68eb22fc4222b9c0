// BAN construction: base stations plus biopotential sensor nodes on a
// shared wireless channel — the paper's 5-node validation network in one
// object, or several co-located cells (two monitored patients side by
// side) on one SimContext and Channel.  This is the primary entry point of
// the library's public API.
//
// Every cell is built by core::NetworkBuilder from its BanConfig: the
// network-wide fields are the defaults, and the optional `roster` of
// NodeSpec entries overrides them per node, so one BAN can mix ECG
// streamers, R-peak detectors and EEG monitors (a heterogeneous ward
// network) without any wiring changes here.  Co-located cells keep their
// traffic apart through distinct pan ids and address ranges; the channel
// still couples them physically (overheard beacons, collisions).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "apps/base_station_app.hpp"
#include "core/network_builder.hpp"
#include "core/node_spec.hpp"
#include "core/node_stack.hpp"
#include "energy/energy_report.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "fault/storage_driver.hpp"
#include "phy/channel.hpp"
#include "phy/link_model.hpp"
#include "sim/context.hpp"

namespace bansim::core {

/// A sensor node is one NodeStack; the historical name remains the public
/// alias.
using SensorNode = NodeStack;

/// The most nodes one cell may have: positional addresses 1..N must stay
/// below the reserved free-slot marker 65534.  `bansim_cli --nodes`, its
/// `--sweep nodes=` and the INI's `[network] nodes` and `[node.K]` all
/// reject larger counts before anything is sized.
inline constexpr std::size_t kMaxNodes = mac::kFreeSlot - 1;

struct BanConfig {
  /// Node count for a homogeneous network; ignored when `roster` is
  /// non-empty (the roster length wins).  At most kMaxNodes.
  std::size_t num_nodes{5};
  /// MAC protocol for the whole cell ([mac] protocol or [tdma] variant in
  /// config files).  Both TDMA protocols read `tdma`, kCsmaCa reads `csma`
  /// and kAloha reads `aloha`; the other blocks wait for a protocol switch.
  mac::Protocol protocol{mac::Protocol::kStaticTdma};
  mac::TdmaConfig tdma{};
  mac::AlohaConfig aloha{};
  mac::CsmaConfig csma{};
  AppKind app{AppKind::kEcgStreaming};
  apps::StreamingConfig streaming{};
  apps::RpeakConfig rpeak{};
  apps::EcgConfig ecg{};
  apps::EegAppConfig eeg{};
  apps::EegConfig eeg_signal{};
  hw::BoardParams board{};
  Fidelity fidelity{Fidelity::kReference};
  std::uint64_t seed{1};
  /// Nodes boot staggered inside [0, stagger) to decorrelate join attempts.
  sim::Duration stagger{sim::Duration::milliseconds(40)};

  /// Node addresses are offset+1 .. offset+num_nodes.  Give co-located
  /// cells disjoint ranges (and distinct pan ids); avoid multiples of
  /// 0x100, which are base-station addresses.
  net::NodeId address_offset{0};

  /// Per-node overrides; empty builds num_nodes default-spec nodes.  An
  /// all-default roster of length num_nodes is bit-identical to the
  /// homogeneous network.
  std::vector<NodeSpec> roster{};

  /// Body-area link model: when enabled, every frame is subject to a
  /// per-link frame error probability from the path-loss/BER budget below
  /// (on top of collision corruption).  Off by default — the paper's
  /// validation channel loses frames to collisions only.
  bool use_link_model{false};
  phy::LinkBudget link_budget{};
  /// Device positions (index 0 = base station); empty selects
  /// phy::standard_ban_layout(num_nodes), which supports up to 6 nodes
  /// (construction throws std::invalid_argument beyond that).
  std::vector<phy::BodyPosition> body_positions{};

  /// Fault-injection campaign ([fault.*] INI sections).  A disabled plan
  /// (the default) changes nothing: the network is wired exactly as if the
  /// fault subsystem did not exist, so fault-free runs stay bit-identical.
  fault::FaultPlan fault_plan{};

  /// Per-node energy storage ([storage] / [battery] / [capacitor] /
  /// [harvest] INI sections; NodeSpec::storage overrides per node).
  /// Disabled (the default) keeps every node on the bench supply and the
  /// network bit-identical to storage-free builds.
  hw::StorageParams storage{};

  /// Effective node count (roster length when a roster is given).
  [[nodiscard]] std::size_t effective_nodes() const {
    return roster.empty() ? num_nodes : roster.size();
  }

  /// PAN id of the cell's beacon MAC; ALOHA has none and counts as 0.
  [[nodiscard]] std::uint8_t pan_id() const {
    return protocol == mac::Protocol::kAloha    ? std::uint8_t{0}
           : protocol == mac::Protocol::kCsmaCa ? csma.pan_id
                                                : tdma.pan_id;
  }

  /// Radio address the cell's base station listens on.
  [[nodiscard]] net::NodeId bs_address() const {
    return mac::TdmaConfig::bs_address(pan_id());
  }
};

class BanNetwork {
 public:
  /// One cell, the paper's BAN.  `probe` may be null (no estimator
  /// attached).
  explicit BanNetwork(const BanConfig& config, os::ModelProbe* probe = nullptr);

  /// Co-located cells on one SimContext (seeded by the first cell's seed)
  /// and one Channel.  A single cell is the constructor above.  Two or more
  /// cells need distinct pan ids and disjoint addresses, and run without
  /// link model, fault plan or storage (std::invalid_argument otherwise).
  explicit BanNetwork(std::vector<BanConfig> cells,
                      os::ModelProbe* probe = nullptr);

  /// Boots every cell: base stations now, nodes staggered.
  void start();

  /// Restores a one-cell network to freshly-constructed state in place —
  /// the schedule-reset-run seam of campaign loops (a multi-cell network
  /// throws std::invalid_argument).  No heap object is replaced: the event
  /// arena, interned trace names, stacks, link model, fault injector and
  /// storage driver are all kept and rewound, so the steady state of a
  /// reset-per-run campaign allocates nothing.
  ///
  /// `config` must be same-shape as construction: node count, protocol,
  /// app kinds, addresses, board params, the tdma/aloha/csma blocks,
  /// link-model/fault activeness, body positions and storage enabled-ness
  /// unchanged.
  /// Seed, physiology (ecg), storage values, fault values and the run
  /// horizon may differ — the per-patient degrees of freedom of a
  /// population sweep.  A reset run is bit-identical to a rebuilt one
  /// (locked by test_golden_energy and the fuzzer's reset oracle).
  void reset(const BanConfig& config);

  /// Advances the simulation to absolute time `until`.
  void run_until(sim::TimePoint until);

  /// True when every node of every cell has joined its cell.
  [[nodiscard]] bool all_joined() const;

  /// Runs until all_joined() plus `settle`, polling every poll interval;
  /// returns false if `deadline` passes first.
  bool run_until_joined(sim::Duration settle, sim::TimePoint deadline);

  [[nodiscard]] sim::SimContext& context() { return context_; }
  [[nodiscard]] sim::Simulator& simulator() { return context_.simulator; }
  [[nodiscard]] sim::Tracer& tracer() { return context_.tracer; }
  [[nodiscard]] phy::Channel& channel() { return channel_; }

  // Per-cell access; `cell` defaults to the first (for a one-cell network,
  // the only) cell.
  [[nodiscard]] std::size_t num_cells() const { return cells_.size(); }
  [[nodiscard]] const BanConfig& config(std::size_t cell = 0) const {
    return cells_[cell].config;
  }
  [[nodiscard]] std::size_t num_nodes(std::size_t cell = 0) const {
    return cells_[cell].built.nodes.size();
  }
  [[nodiscard]] SensorNode& node(std::size_t i, std::size_t cell = 0) {
    return *cells_[cell].built.nodes[i];
  }
  [[nodiscard]] const SensorNode& node(std::size_t i,
                                       std::size_t cell = 0) const {
    return *cells_[cell].built.nodes[i];
  }
  /// TDMA base station (throws when the cell runs another protocol);
  /// protocol-agnostic callers use base_station().
  [[nodiscard]] mac::BaseStationMac& base_station_mac(std::size_t cell = 0) {
    return cells_[cell].built.bs->tdma_mac();
  }
  [[nodiscard]] BaseStationStack& base_station(std::size_t cell = 0) {
    return *cells_[cell].built.bs;
  }
  [[nodiscard]] apps::BaseStationApp& base_station_app(std::size_t cell = 0) {
    return cells_[cell].built.bs->app();
  }
  [[nodiscard]] hw::Board& base_station_board(std::size_t cell = 0) {
    return cells_[cell].built.bs->board();
  }
  /// Per-node component energy snapshot of one cell at the current
  /// instant (nodes in order, then the base station).
  [[nodiscard]] std::vector<energy::NodeEnergy> energy_snapshot(
      std::size_t cell = 0) const;

  /// Per-node EEG reassembly/decoding (kEegMonitoring nodes only).
  [[nodiscard]] apps::EegCollector* eeg_collector(net::NodeId node);
  /// Non-null when the config enabled the body-area link model.
  [[nodiscard]] const phy::LinkModel* link_model() const {
    return link_model_.get();
  }
  /// Non-null when the config carries an active fault plan.
  [[nodiscard]] fault::FaultInjector* fault_injector() {
    return injector_.get();
  }
  /// Non-null when at least one node carries an enabled energy store.
  [[nodiscard]] fault::StorageDriver* storage_driver() {
    return storage_driver_.get();
  }
  [[nodiscard]] const fault::StorageDriver* storage_driver() const {
    return storage_driver_.get();
  }

 private:
  struct Cell {
    BanConfig config;
    BuiltCell built;
  };

  sim::SimContext context_;
  phy::Channel channel_;
  os::NullProbe null_probe_;
  os::ModelProbe* probe_;
  os::CycleCostModel nominal_costs_;
  std::unique_ptr<phy::LinkModel> link_model_;
  std::unique_ptr<fault::FaultInjector> injector_;
  std::unique_ptr<fault::StorageDriver> storage_driver_;
  std::vector<Cell> cells_;
  std::map<net::NodeId, apps::EegCollector> eeg_collectors_;
};

}  // namespace bansim::core
