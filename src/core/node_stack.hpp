// Vertical slice of one device: hardware board, OS instance, MAC and the
// selected application, bundled with its energy breakdown.
//
// NodeStack is the unit every BanNetwork cell is built from;
// NetworkBuilder turns a BanConfig's roster of NodeSpec into a vector of
// these.  The stack is MAC-polymorphic through the mac::NodeMacBase seam:
// TDMA, ALOHA and slotted CSMA/CA stacks differ only in which concrete MAC
// sits behind the one unique_ptr, behind the same board/OS wiring.
// BaseStationStack is the sink-side counterpart.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "apps/base_station_app.hpp"
#include "apps/ecg_streaming_app.hpp"
#include "apps/ecg_synthesizer.hpp"
#include "apps/eeg_app.hpp"
#include "apps/eeg_synthesizer.hpp"
#include "apps/rpeak_app.hpp"
#include "core/node_spec.hpp"
#include "energy/energy_report.hpp"
#include "hw/board.hpp"
#include "hw/energy_store.hpp"
#include "mac/aloha_mac.hpp"
#include "mac/base_station_mac.hpp"
#include "mac/csma_mac.hpp"
#include "mac/mac_base.hpp"
#include "mac/node_mac.hpp"
#include "os/node_os.hpp"
#include "phy/channel.hpp"
#include "sim/context.hpp"
#include "sim/rng.hpp"

namespace bansim::core {

/// Fully resolved parameters for one sensor node: NodeSpec overrides
/// already merged with the network defaults, fidelity already applied to
/// the board, RNG streams already derived.  Produced by NetworkBuilder.
struct NodeStackInit {
  std::string name;
  net::NodeId address{0};
  mac::Protocol protocol{mac::Protocol::kStaticTdma};
  AppKind app{AppKind::kNone};
  hw::BoardParams board{};  ///< fidelity-adjusted
  hw::StorageParams storage{};  ///< disabled = bench-supply powered
  double clock_skew{0.0};
  std::uint64_t eeg_seed{0};
  apps::StreamingConfig streaming{};
  apps::RpeakConfig rpeak{};
  apps::EcgConfig ecg{};
  apps::EegAppConfig eeg{};
  apps::EegConfig eeg_signal{};
  mac::TdmaConfig tdma{};
  mac::AlohaConfig aloha{};
  mac::CsmaConfig csma{};
  bool csma_gts{false};  ///< CSMA/CA cells: this node requests a GTS
};

class NodeStack {
 public:
  NodeStack(sim::SimContext& context, phy::Channel& channel,
            const NodeStackInit& init, sim::Rng mac_rng, sim::Rng signal_rng,
            os::ModelProbe& probe, const os::CycleCostModel* nominal_costs);

  /// Boots the MAC and the application.
  void start();

  /// Restores the whole slice to its freshly-built state in place, keeping
  /// every heap object (MAC, apps, board wiring, warmed buffers).  The
  /// init must be same-shape as construction: address, protocol, app kind,
  /// board params, MAC configs and storage enabled-ness unchanged — only
  /// seeds, physiology (ecg), clock skew and storage *values* may differ.
  /// NetworkBuilder::reset_cell, the only caller, checks that shape.
  /// Caller must have reset the SimContext (event queue cleared) first;
  /// start() boots the stack again.
  void reset(const NodeStackInit& init, sim::Rng mac_rng, sim::Rng signal_rng);

  [[nodiscard]] const std::string& name() const { return board_.name(); }
  [[nodiscard]] net::NodeId address() const { return address_; }
  [[nodiscard]] AppKind app_kind() const { return app_kind_; }
  [[nodiscard]] hw::Board& board() { return board_; }
  [[nodiscard]] const hw::Board& board() const { return board_; }
  [[nodiscard]] os::NodeOs& node_os() { return os_; }

  /// Protocol-agnostic MAC seam: everything a campaign, fault driver or
  /// application needs without knowing the concrete protocol.
  [[nodiscard]] mac::NodeMacBase& mac_base() { return *mac_; }
  [[nodiscard]] const mac::NodeMacBase& mac_base() const { return *mac_; }

  /// The concrete MAC: TDMA (static or dynamic), ALOHA or slotted CSMA/CA.
  /// Each throws std::logic_error when the stack runs another protocol.
  [[nodiscard]] mac::NodeMac& mac();
  [[nodiscard]] const mac::NodeMac& mac() const;
  [[nodiscard]] mac::AlohaNodeMac& aloha_mac();
  [[nodiscard]] mac::CsmaNodeMac& csma_mac();
  /// True when the node is associated (beacon MACs) or booted (ALOHA).
  [[nodiscard]] bool joined() const { return mac_->joined(); }

  [[nodiscard]] apps::EcgSynthesizer& ecg() { return ecg_; }
  [[nodiscard]] apps::EegSynthesizer& eeg() { return eeg_; }
  [[nodiscard]] apps::EcgStreamingApp* streaming_app() { return streaming_.get(); }
  [[nodiscard]] apps::RpeakApp* rpeak_app() { return rpeak_.get(); }
  [[nodiscard]] apps::EegApp* eeg_app() { return eeg_app_.get(); }

  /// Component energy breakdown at `now`.
  [[nodiscard]] energy::NodeEnergy energy(sim::TimePoint now) const;

  /// The node's live energy store; null when the node runs off the bench
  /// supply (storage disabled, the default).
  [[nodiscard]] hw::EnergyStore* energy_store() {
    return store_ ? &*store_ : nullptr;
  }
  [[nodiscard]] const hw::EnergyStore* energy_store() const {
    return store_ ? &*store_ : nullptr;
  }

 private:
  net::NodeId address_;
  AppKind app_kind_;
  apps::EcgSynthesizer ecg_;
  apps::EegSynthesizer eeg_;
  hw::Board board_;
  os::NodeOs os_;
  std::unique_ptr<mac::NodeMacBase> mac_;
  std::unique_ptr<apps::EcgStreamingApp> streaming_;
  std::unique_ptr<apps::RpeakApp> rpeak_;
  std::unique_ptr<apps::EegApp> eeg_app_;
  std::optional<hw::EnergyStore> store_;
};

/// Base-station slice: board, OS, sink MAC (TDMA / CSMA beaconing base
/// station or always-listening ALOHA sink) and the traffic-accounting
/// application.
class BaseStationStack {
 public:
  BaseStationStack(sim::SimContext& context, phy::Channel& channel,
                   const std::string& name, const hw::BoardParams& board,
                   double clock_skew, mac::Protocol protocol,
                   const mac::TdmaConfig& tdma,
                   const mac::AlohaConfig& aloha, const mac::CsmaConfig& csma,
                   os::ModelProbe& probe,
                   const os::CycleCostModel* nominal_costs);

  void start();

  /// Same-shape in-place reset (see NodeStack::reset).
  void reset(double clock_skew);

  [[nodiscard]] const std::string& name() const { return board_.name(); }
  [[nodiscard]] hw::Board& board() { return board_; }
  [[nodiscard]] os::NodeOs& node_os() { return os_; }
  [[nodiscard]] mac::BaseStationMacBase& mac_base() { return *mac_; }
  /// The concrete sink MAC (std::logic_error on another protocol).
  [[nodiscard]] mac::BaseStationMac& tdma_mac();
  [[nodiscard]] mac::AlohaBaseStation& aloha_mac();
  [[nodiscard]] mac::CsmaBaseStationMac& csma_mac();
  [[nodiscard]] apps::BaseStationApp& app() { return app_; }

  /// Routes incoming data frames (whichever MAC runs) to `handler`.
  void set_data_handler(mac::BaseStationMacBase::DataHandler handler) {
    mac_->set_data_handler(std::move(handler));
  }

  [[nodiscard]] energy::NodeEnergy energy(sim::TimePoint now) const;

 private:
  hw::Board board_;
  os::NodeOs os_;
  std::unique_ptr<mac::BaseStationMacBase> mac_;
  apps::BaseStationApp app_;
};

}  // namespace bansim::core
