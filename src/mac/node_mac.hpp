// Sensor-node side of the TDMA MAC.
//
// A node's life cycle (Figures 2 and 3):
//   searching -> it listens continuously until a beacon arrives;
//   joining   -> it transmits a slot request (SSR): in the static variant
//                inside a randomly chosen *free* data slot, in the dynamic
//                variant at a random instant inside the ES window;
//   joined    -> every cycle it wakes shortly before the expected beacon
//                (guard time covering mutual clock drift), receives the
//                beacon (RB), resynchronizes, transmits at most one queued
//                payload in its own slot, and sleeps the rest of the cycle.
// Missed beacons are tolerated by dead reckoning up to a limit, after which
// the node falls back to a full resynchronization listen.
//
// All waiting is done through the OS timer service, so every wake-up goes
// through the real interrupt path and the node's DCO skew stretches every
// interval — the physical mechanism behind the guard-time requirement.
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

enum class NodeMacState : std::uint8_t {
  kBooting,
  kSearching,
  kJoining,
  kJoined,
};

[[nodiscard]] const char* to_string(NodeMacState s);

struct NodeMacStats : MacStatsSnapshot {
  std::uint64_t slot_requests_sent{0};
  std::uint64_t grants_received{0};  ///< fast grants caught after an SSR
  std::uint64_t slot_tx_deferred{0}; ///< slot skipped: layout may have shifted
  std::uint64_t search_power_cycles{0};  ///< bounded-search radio power-cycles
};

class NodeMac final : public NodeMacBase {
 public:
  /// `protocol` is kStaticTdma or kDynamicTdma.
  NodeMac(sim::SimContext& context, os::NodeOs& node_os, Protocol protocol,
          const TdmaConfig& config, net::NodeId self, sim::Rng rng);

  /// Powers the radio and begins searching for the network.
  void start() override;

  // --- Application interface -----------------------------------------------

  /// Queues a payload for transmission in this node's next owned slot (one
  /// frame per cycle).  Oldest entries are dropped beyond the queue bound.
  void queue_payload(std::vector<std::uint8_t> payload) override;

  [[nodiscard]] bool joined() const override {
    return state_ == NodeMacState::kJoined;
  }
  [[nodiscard]] NodeMacState state() const { return state_; }
  [[nodiscard]] int slot_index() const { return my_slot_; }
  [[nodiscard]] sim::Duration known_cycle() const { return cycle_; }
  [[nodiscard]] const NodeMacStats& stats() const { return stats_; }

  [[nodiscard]] Protocol protocol() const override { return protocol_; }

  /// Default transmit-queue bound (TdmaConfig::tx_queue_cap overrides).
  static constexpr std::size_t kMaxQueue = 8;

  // --- Fault interface -----------------------------------------------------

  /// Hard fault: every piece of protocol state — timers, queued payloads,
  /// the slot, the schedule — is lost, posted MAC work is invalidated, and
  /// the radio is cut to power-down mid-whatever-it-was-doing.  The node
  /// stays dead until reboot(), after which it re-associates explicitly —
  /// even if the next beacon still lists its old slot it requests again,
  /// so the base station re-confirms ownership before the node transmits
  /// data.
  void crash() override;

  void reset_for_reuse(sim::Rng rng) override;

 private:
  void process_beacon(const net::Packet& packet, sim::TimePoint rx_time);
  void process_grant(const net::Packet& packet);

  /// Plans the current cycle from an (estimated) beacon air-start time:
  /// slot transmission, SSR if still unjoined, next beacon wake-up.
  void schedule_cycle(sim::TimePoint cycle_start);
  /// Arms the transmission in our data slot of the cycle starting at
  /// `cycle_start` (data slot i occupies [cycle_start + (1+i)*slot, +slot))
  /// unless that slot has begun or a transmission is already armed.
  /// Returns the slot's start when armed, else TimePoint::max().
  sim::TimePoint arm_slot_tx(sim::TimePoint cycle_start);

  /// Stops any armed slot_tx / beacon_wake one-shots from a previous plan.
  void cancel_cycle_timers();

  void send_slot_request(sim::TimePoint cycle_start);
  void transmit_queued();
  void wake_for_beacon();

  /// radio_power_down policy: drops the radio into power-down now and
  /// schedules the crystal start-up so standby is reached by `next_use`.
  void plan_power_down(sim::TimePoint next_use);
  void enter_search();
  /// One bounded search window (search_listen > 0): listen, and on expiry
  /// power-cycle the radio and back off before the next window.
  void begin_search_listen();
  void on_search_window_elapsed();

  Protocol protocol_;
  TdmaConfig config_;
  NodeMacState state_{NodeMacState::kBooting};

  // Last known schedule (from the most recent beacon).
  sim::Duration slot_width_{sim::Duration::zero()};
  std::vector<net::NodeId> owners_;
  int my_slot_{-1};

  TimerId grant_timer_{kNoTimer};
  TimerId slot_timer_{kNoTimer};
  TimerId ssr_timer_{kNoTimer};
  TimerId powerup_timer_{kNoTimer};
  std::uint32_t search_backoff_level_{0};
  NodeMacStats stats_;
};

}  // namespace bansim::mac
