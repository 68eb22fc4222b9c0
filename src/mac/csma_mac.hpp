// Beacon-enabled slotted CSMA/CA in the 802.15.4 style — the contention
// protocol that proves the MAC seam.
//
// Superframe layout (anchored, like TDMA, at the instant the beacon's
// first bit hits the air):
//
//   | beacon | CAP (contention, slotted CSMA/CA) | CFP (GTS slots) | guard |
//
// Nodes synchronize to the beacon exactly as the TDMA MAC does (guard-time
// wake-up, dead reckoning up to a missed-beacon limit, search fallback).
// Inside the CAP a node with a queued payload runs the standard slotted
// CSMA/CA algorithm: NB=0, BE=macMinBE; delay a random number of backoff
// units in [0, 2^BE-1] aligned to the CAP's backoff-slot boundaries, then
// perform a CCA; on a busy channel NB++ and BE=min(BE+1, macMaxBE) until
// NB exceeds macMaxCSMABackoffs (channel-access failure).  Every random
// draw comes from the node's named SimContext RNG stream, so a run is
// bit-identical between serial and parallel replay.
//
// The nRF2401 itself has no CCA (see aloha_mac.hpp); this MAC models the
// CCA-capable radio the 802.15.4 comparison needs as an energy-detect
// sample of the medium while the receiver is on — the simulator's channel
// answers whether any audible frame is in flight.  The RX current burned
// during backoff + CCA is exactly the contention cost the energy model is
// supposed to expose.
//
// The optional CFP reuses the TDMA grant machinery verbatim: a node asks
// with kSlotRequest (sent through CSMA contention), the base station
// answers with kSlotGrant, and the beacon's slot-owner table announces the
// GTS layout — a granted node transmits in its GTS slot and skips the CAP.
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

struct CsmaConfig {
  /// PAN identity; the base station address derives from it exactly as in
  /// TDMA (TdmaConfig::bs_address) so foreign-cell filtering works
  /// unchanged.
  std::uint8_t pan_id{0};

  /// Superframe (beacon-to-beacon) length, CAP + CFP + guard included.
  sim::Duration cycle{sim::Duration::milliseconds(30)};

  /// aUnitBackoffPeriod: the CAP's backoff-slot width.
  sim::Duration backoff_unit{sim::Duration::from_microseconds(320)};
  std::uint8_t min_be{3};        ///< macMinBE
  std::uint8_t max_be{5};        ///< macMaxBE
  std::uint8_t max_backoffs{4};  ///< macMaxCSMABackoffs
  /// CCA energy-detect window (8 symbols at 802.15.4 rates).
  sim::Duration cca{sim::Duration::from_microseconds(128)};

  /// Link-layer acknowledgements + retransmission budget per payload.
  bool ack_data{true};
  sim::Duration ack_wait{sim::Duration::from_milliseconds(1.5)};
  std::uint8_t max_retries{3};

  /// Contention-free period: GTS slot count (0 disables the CFP) and width.
  std::uint8_t gts_slots{0};
  sim::Duration gts_slot{sim::Duration::milliseconds(5)};

  /// Beacon-tracking guard, mirroring TdmaConfig::guard().
  sim::Duration guard_fixed{sim::Duration::from_microseconds(2500)};
  double guard_fraction{0.005};
  std::uint8_t missed_beacon_limit{4};
  sim::Duration beacon_timeout_margin{sim::Duration::from_microseconds(500)};

  std::size_t tx_queue_cap{8};

  [[nodiscard]] sim::Duration guard() const {
    return guard_fixed + cycle.scaled(guard_fraction);
  }
  [[nodiscard]] sim::Duration cfp() const {
    return gts_slot * static_cast<std::int64_t>(gts_slots);
  }

  /// Hard-errors (throws std::invalid_argument) on an unusable geometry.
  void validate() const;

  [[nodiscard]] bool operator==(const CsmaConfig&) const = default;
};

struct CsmaNodeStats : MacStatsSnapshot {
  std::uint64_t cca_attempts{0};   ///< CCA samples taken
  std::uint64_t cca_busy{0};       ///< samples that found the medium busy
  std::uint64_t cca_failures{0};   ///< NB exhausted (channel-access failure)
  std::uint64_t cap_deferrals{0};  ///< attempt pushed to the next superframe
  std::uint64_t gts_requests_sent{0};
  std::uint64_t grants_received{0};
  std::uint64_t gts_tx{0};         ///< data frames sent inside an owned GTS
};

class CsmaNodeMac final : public NodeMacBase {
 public:
  /// `use_gts`: request a guaranteed slot and transmit contention-free once
  /// granted (requires config.gts_slots > 0); otherwise pure CAP contention.
  CsmaNodeMac(sim::SimContext& context, os::NodeOs& node_os,
              const CsmaConfig& config, net::NodeId self, sim::Rng rng,
              bool use_gts = false);

  void start() override;
  void queue_payload(std::vector<std::uint8_t> payload) override;
  [[nodiscard]] bool joined() const override { return synced_; }
  void crash() override;
  void reset_for_reuse(sim::Rng rng) override;
  [[nodiscard]] Protocol protocol() const override { return Protocol::kCsmaCa; }

  [[nodiscard]] const CsmaNodeStats& stats() const { return stats_; }
  [[nodiscard]] int gts_slot_index() const { return my_gts_; }
  [[nodiscard]] bool uses_gts() const { return use_gts_; }

 private:
  void process_beacon(const net::Packet& packet, sim::TimePoint rx_time);
  void process_grant(const net::Packet& packet);

  /// Plans this superframe from the (estimated) beacon air-start instant:
  /// CAP contention or GTS transmission, GTS request if wanted, next wake.
  void schedule_cycle(sim::TimePoint cycle_start);
  void wake_for_beacon();
  void enter_search();

  /// A CAP node with a queued frame, synced and idle, contends for the
  /// medium again (fresh NB and BE).
  void contend();
  /// Starts a fresh CSMA/CA attempt (NB=0, BE=macMinBE) for the frame at
  /// the head of the queue — or, with `request`, for the GTS request.
  void begin_attempt(bool request);
  /// Draws the backoff, aligns it to the next CAP backoff boundary and arms
  /// the CCA; defers to the next superframe when the CAP cannot fit the
  /// transmission any more.
  void next_backoff();
  void on_cca();
  void escalate_backoff();
  /// The CCA found the medium clear: sends the attempt's frame.
  void transmit_cap();
  /// Arms the transmission in our GTS slot of the superframe starting at
  /// `cycle_start` unless that slot has begun or one is already armed.
  void arm_gts_tx(sim::TimePoint cycle_start);
  void transmit_gts();
  void send_gts_request();

  void cancel_cycle_timers();

  [[nodiscard]] sim::Duration tx_air_estimate(std::size_t payload_bytes) const;
  /// End of the CAP in this superframe (CFP and guard excluded).
  [[nodiscard]] sim::TimePoint cap_end() const;

  CsmaConfig config_;
  bool use_gts_;

  bool synced_{false};
  sim::TimePoint cap_start_;       ///< first backoff boundary this superframe
  /// GTS geometry as announced by the last beacon.
  std::uint8_t beacon_gts_slots_{0};
  sim::Duration beacon_gts_slot_{sim::Duration::zero()};
  int my_gts_{-1};

  // One CSMA/CA attempt in flight at a time.
  bool attempt_active_{false};
  bool attempt_is_request_{false};  ///< attempt carries the GTS request
  std::uint8_t nb_{0};
  std::uint8_t be_{0};
  bool awaiting_grant_{false};

  TimerId backoff_timer_{kNoTimer};
  TimerId cca_timer_{kNoTimer};
  TimerId grant_timer_{kNoTimer};
  TimerId gts_timer_{kNoTimer};
  CsmaNodeStats stats_;
};

class CsmaBaseStationMac final : public BaseStationMacBase {
 public:
  CsmaBaseStationMac(sim::SimContext& context, os::NodeOs& node_os,
                     const CsmaConfig& config);

  void start() override;
  void reset_for_reuse() override;
  [[nodiscard]] std::size_t joined_nodes() const override {
    return sources_heard_.size();
  }
  [[nodiscard]] Protocol protocol() const override { return Protocol::kCsmaCa; }

 private:
  void begin_cycle();
  void on_packet(net::Packet&& packet);
  void handle_gts_request(const net::Packet& packet);

  CsmaConfig config_;
};

}  // namespace bansim::mac
