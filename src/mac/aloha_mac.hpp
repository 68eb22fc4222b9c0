// Unslotted random-access MAC (pure-ALOHA class) — the baseline TDMA is
// judged against.
//
// The nRF2401 has no clear-channel assessment, so the only contention MAC
// it can run is transmit-and-hope: a node sends a queued payload after a
// random dither, optionally waits for the base station's ACK, and backs
// off exponentially on silence.  No beacons, no synchronization, no listen
// windows — transmit-only radio duty on the nodes.
//
// The comparison bench shows the trade the paper's TDMA design makes: the
// random-access node spends *less* radio energy at low load (no beacon
// tracking) but collapses in delivery as offered load grows, while TDMA
// delivery stays at 100 % for a constant, predictable energy.
#pragma once

#include <cstdint>
#include <vector>

#include "mac/mac_base.hpp"
#include "mac/tdma_config.hpp"
#include "net/packet.hpp"
#include "os/node_os.hpp"
#include "sim/context.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"

namespace bansim::mac {

struct AlohaConfig {
  /// Uniform dither before every first transmission attempt.
  sim::Duration initial_dither{sim::Duration::milliseconds(2)};
  /// ACK-based retransmission (without it, fire and forget).
  bool ack_data{true};
  sim::Duration ack_wait{sim::Duration::from_milliseconds(1.5)};
  std::uint8_t max_retries{5};
  /// Backoff window doubles per retry, starting here.
  sim::Duration backoff_base{sim::Duration::milliseconds(4)};

  [[nodiscard]] bool operator==(const AlohaConfig&) const = default;
};

/// ALOHA counts only what MacStatsSnapshot carries (no beacons).
using AlohaNodeStats = MacStatsSnapshot;

/// Sensor-node side.
class AlohaNodeMac final : public NodeMacBase {
 public:
  AlohaNodeMac(sim::SimContext& context, os::NodeOs& node_os,
               const AlohaConfig& config, net::NodeId self, sim::Rng rng);

  /// Powers the radio; transmission starts as soon as it is up and a
  /// payload is queued (also after a reboot).
  void start() override;
  void queue_payload(std::vector<std::uint8_t> payload) override;

  /// There is no association handshake: a node is "joined" as soon as its
  /// radio finished the cold-boot power-up.
  [[nodiscard]] bool joined() const override { return ready_; }
  [[nodiscard]] const AlohaNodeStats& stats() const { return stats_; }

  [[nodiscard]] Protocol protocol() const override { return Protocol::kAloha; }

  /// Hard fault: queue, retry state and armed timers are lost, posted MAC
  /// work is invalidated, the radio is cut to power-down.
  void crash() override;

  void reset_for_reuse(sim::Rng rng) override;

  static constexpr std::size_t kMaxQueue = 16;

 private:
  void kick();            ///< schedules the next attempt if idle
  void attempt();         ///< transmits the head-of-queue payload
  /// After an ACK timeout: the next frame, or this one after a random
  /// backoff whose window doubles with every retry.
  void retry(bool given_up);

  AlohaConfig config_;
  bool attempt_pending_{false};
  bool ready_{false};
  TimerId attempt_timer_{kNoTimer};
  AlohaNodeStats stats_;
};

/// Base-station side: always listening, ACKs every data frame.
class AlohaBaseStation final : public BaseStationMacBase {
 public:
  AlohaBaseStation(sim::SimContext& context, os::NodeOs& node_os,
                   const AlohaConfig& config);

  void start() override;

  void reset_for_reuse() override;

  /// Distinct sources heard so far — contention MACs have no association
  /// table, so "joined" means "has gotten at least one frame through".
  [[nodiscard]] std::size_t joined_nodes() const override {
    return sources_heard_.size();
  }
  [[nodiscard]] Protocol protocol() const override { return Protocol::kAloha; }

 private:
  void on_packet(net::Packet&& packet);

  AlohaConfig config_;
};

}  // namespace bansim::mac
