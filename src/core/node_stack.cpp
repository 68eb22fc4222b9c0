#include "core/node_stack.hpp"

#include <stdexcept>
#include <utility>

namespace bansim::core {

namespace {

/// The concrete MAC behind a stack's seam, `want` by name; a stack running
/// another protocol is a caller bug, reported in every build type.
template <typename Mac, typename Base>
Mac& typed_mac(Base& base, const char* want, const std::string& who) {
  if (auto* typed = dynamic_cast<Mac*>(&base)) return *typed;
  throw std::logic_error(who + " runs the " + mac::to_string(base.protocol()) +
                         " MAC, not " + want);
}

}  // namespace

NodeStack::NodeStack(sim::SimContext& context, phy::Channel& channel,
                     const NodeStackInit& init, sim::Rng mac_rng,
                     sim::Rng signal_rng, os::ModelProbe& probe,
                     const os::CycleCostModel* nominal_costs)
    : address_{init.address},
      app_kind_{init.app},
      ecg_{init.ecg, signal_rng},
      eeg_{init.eeg_signal, init.eeg_seed},
      board_{context, channel, init.name, init.board, init.clock_skew},
      os_{context, board_, probe, nominal_costs} {
  if (init.storage.enabled) store_.emplace(init.storage);
  switch (init.protocol) {
    case mac::Protocol::kStaticTdma:
    case mac::Protocol::kDynamicTdma:
      mac_ = std::make_unique<mac::NodeMac>(context, os_, init.protocol,
                                            init.tdma, address_, mac_rng);
      break;
    case mac::Protocol::kAloha:
      mac_ = std::make_unique<mac::AlohaNodeMac>(context, os_, init.aloha,
                                                 address_, mac_rng);
      break;
    case mac::Protocol::kCsmaCa:
      mac_ = std::make_unique<mac::CsmaNodeMac>(context, os_, init.csma,
                                                address_, mac_rng,
                                                init.csma_gts);
      break;
  }

  // The biopotential front-end feeds the ECG waveform into channels 0 and 1
  // (the "2-channel ECG" of Section 5.1); channel 1 sees the same cardiac
  // source through a second electrode pair, at reduced amplitude.
  board_.asic().set_channel_signal(
      0, [this](sim::TimePoint t) { return ecg_.sample(t); });
  board_.asic().set_channel_signal(1, [this](sim::TimePoint t) {
    const double baseline = ecg_.config().baseline_volts;
    return baseline + 0.8 * (ecg_.sample(t) - baseline);
  });

  // Applications run against the protocol-agnostic seam; any MAC that can
  // queue a payload can carry them (the historical ALOHA benches simply
  // pass AppKind::kNone).
  {
    switch (app_kind_) {
      case AppKind::kEcgStreaming:
        streaming_ = std::make_unique<apps::EcgStreamingApp>(
            context.simulator, os_, *mac_, init.streaming);
        break;
      case AppKind::kRpeak:
        rpeak_ = std::make_unique<apps::RpeakApp>(context.simulator, os_,
                                                  *mac_, init.rpeak);
        break;
      case AppKind::kEegMonitoring:
        eeg_app_ = std::make_unique<apps::EegApp>(context.simulator, os_,
                                                  *mac_, init.eeg, eeg_);
        break;
      case AppKind::kNone:
        break;
    }
  }
}

void NodeStack::start() {
  mac_->start();
  if (streaming_) streaming_->start();
  if (rpeak_) rpeak_->start();
  if (eeg_app_) eeg_app_->start();
}

void NodeStack::reset(const NodeStackInit& init, sim::Rng mac_rng,
                      sim::Rng signal_rng) {
  ecg_.reset(init.ecg, signal_rng);
  // The EEG synthesizer re-derives one stream and eight spectral components
  // per channel; only nodes that actually run the EEG app ever sample it,
  // so skipping the rebuild elsewhere keeps reset ≡ rebuild on every
  // observable while shaving the dominant per-node reset cost.
  if (eeg_app_) eeg_.reset(init.eeg_signal, init.eeg_seed);
  board_.reset(init.clock_skew);
  os_.reset();
  mac_->reset_for_reuse(mac_rng);
  if (streaming_) streaming_->reset(init.streaming);
  if (rpeak_) rpeak_->reset(init.rpeak);
  if (eeg_app_) eeg_app_->reset(init.eeg);
  // optional::emplace destroys and reconstructs in place — no allocation,
  // and storage *values* (capacity spread) may change per patient.
  if (store_) store_.emplace(init.storage);
}

mac::NodeMac& NodeStack::mac() {
  return typed_mac<mac::NodeMac>(*mac_, "tdma", name());
}

const mac::NodeMac& NodeStack::mac() const {
  return typed_mac<const mac::NodeMac>(*mac_, "tdma", name());
}

mac::AlohaNodeMac& NodeStack::aloha_mac() {
  return typed_mac<mac::AlohaNodeMac>(*mac_, "aloha", name());
}

mac::CsmaNodeMac& NodeStack::csma_mac() {
  return typed_mac<mac::CsmaNodeMac>(*mac_, "csma_ca", name());
}

energy::NodeEnergy NodeStack::energy(sim::TimePoint now) const {
  energy::NodeEnergy out;
  out.node = board_.name();
  out.components = board_.breakdown(now);
  return out;
}

BaseStationStack::BaseStationStack(sim::SimContext& context,
                                   phy::Channel& channel,
                                   const std::string& name,
                                   const hw::BoardParams& board,
                                   double clock_skew, mac::Protocol protocol,
                                   const mac::TdmaConfig& tdma,
                                   const mac::AlohaConfig& aloha,
                                   const mac::CsmaConfig& csma,
                                   os::ModelProbe& probe,
                                   const os::CycleCostModel* nominal_costs)
    : board_{context, channel, name, board, clock_skew},
      os_{context, board_, probe, nominal_costs} {
  switch (protocol) {
    case mac::Protocol::kStaticTdma:
    case mac::Protocol::kDynamicTdma:
      mac_ = std::make_unique<mac::BaseStationMac>(context, os_, protocol,
                                                   tdma);
      break;
    case mac::Protocol::kAloha:
      mac_ = std::make_unique<mac::AlohaBaseStation>(context, os_, aloha);
      break;
    case mac::Protocol::kCsmaCa:
      mac_ = std::make_unique<mac::CsmaBaseStationMac>(context, os_, csma);
      break;
  }
}

void BaseStationStack::start() { mac_->start(); }

void BaseStationStack::reset(double clock_skew) {
  board_.reset(clock_skew);
  os_.reset();
  mac_->reset_for_reuse();
  app_.reset();
}

mac::BaseStationMac& BaseStationStack::tdma_mac() {
  return typed_mac<mac::BaseStationMac>(*mac_, "tdma", name());
}

mac::AlohaBaseStation& BaseStationStack::aloha_mac() {
  return typed_mac<mac::AlohaBaseStation>(*mac_, "aloha", name());
}

mac::CsmaBaseStationMac& BaseStationStack::csma_mac() {
  return typed_mac<mac::CsmaBaseStationMac>(*mac_, "csma_ca", name());
}

energy::NodeEnergy BaseStationStack::energy(sim::TimePoint now) const {
  energy::NodeEnergy out;
  out.node = board_.name();
  out.components = board_.breakdown(now);
  return out;
}

}  // namespace bansim::core
