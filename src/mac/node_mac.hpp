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
#include <deque>
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

struct NodeMacStats {
  std::uint64_t beacons_received{0};
  std::uint64_t beacons_missed{0};
  std::uint64_t foreign_beacons{0};  ///< other-PAN beacons heard and ignored
  std::uint64_t resyncs{0};          ///< fell back to a resync search
  std::uint64_t slot_requests_sent{0};
  std::uint64_t data_sent{0};
  std::uint64_t payloads_queued{0};  ///< application payloads offered (PDR denominator)
  std::uint64_t payloads_dropped{0}; ///< queue overflow (producer too fast)
  std::uint64_t grants_received{0};  ///< fast grants caught after an SSR
  std::uint64_t acks_received{0};    ///< link-layer ACKs (ack_data mode)
  std::uint64_t retransmissions{0};  ///< data frames retried after ACK loss
  std::uint64_t retry_drops{0};      ///< payloads dropped after max_retries
  std::uint64_t slot_tx_deferred{0}; ///< slot skipped: layout may have shifted
  std::uint64_t search_power_cycles{0};  ///< bounded-search radio power-cycles
  std::uint64_t crashes{0};          ///< hard faults injected into this MAC
  std::uint64_t reboots{0};          ///< cold boots after a crash
};

class NodeMac final : public NodeMacBase {
 public:
  NodeMac(sim::SimContext& context, os::NodeOs& node_os,
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
  [[nodiscard]] std::size_t queue_depth() const override {
    return tx_queue_.size();
  }
  [[nodiscard]] std::size_t queue_capacity() const override {
    return config_.tx_queue_cap;
  }
  [[nodiscard]] const NodeMacStats& stats() const { return stats_; }

  [[nodiscard]] Protocol protocol() const override {
    return config_.variant == TdmaVariant::kStatic ? Protocol::kStaticTdma
                                                   : Protocol::kDynamicTdma;
  }
  [[nodiscard]] MacStatsSnapshot stats_snapshot() const override;

  /// Default transmit-queue bound (TdmaConfig::tx_queue_cap overrides).
  static constexpr std::size_t kMaxQueue = 8;

  // --- Fault interface -----------------------------------------------------

  /// Hard fault: every piece of protocol state — timers, queued payloads,
  /// the slot, the schedule — is lost, posted MAC work is invalidated, and
  /// the radio is cut to power-down mid-whatever-it-was-doing.  The node
  /// stays dead until reboot().
  void crash() override;

  /// Cold boot after crash(): powers the radio back up and re-enters the
  /// search.  The node re-associates explicitly — even if the next beacon
  /// still lists its old slot it requests again, so the base station
  /// re-confirms ownership before the node transmits data.
  void reboot() override;

  [[nodiscard]] bool crashed() const override { return crashed_; }

  void reset_for_reuse(sim::Rng rng) override;

  /// Search -> beacon latencies (one entry per completed resync) and
  /// reboot -> joined latencies (one entry per completed rejoin); the raw
  /// material of a campaign's recovery-time distributions.
  [[nodiscard]] const std::vector<sim::Duration>& resync_times() const override {
    return resync_times_;
  }
  [[nodiscard]] const std::vector<sim::Duration>& rejoin_times() const override {
    return rejoin_times_;
  }

 private:
  void on_packet(net::Packet&& packet);
  void process_beacon(const net::Packet& packet, sim::TimePoint rx_time);
  void process_grant(const net::Packet& packet);
  void process_ack(const net::Packet& packet);
  void on_ack_timeout();

  /// Plans the current cycle from an (estimated) beacon air-start time:
  /// slot transmission, SSR if still unjoined, next beacon wake-up.
  void schedule_cycle(sim::TimePoint cycle_start);

  /// Stops any armed slot_tx / beacon_wake one-shots from a previous plan.
  void cancel_cycle_timers();
  /// Stops every timer this MAC may have armed (crash teardown).
  void cancel_all_timers();
  void stop_timer(os::TimerService::TimerId& id);

  void send_slot_request(sim::TimePoint cycle_start);
  void transmit_queued();
  void wake_for_beacon();

  /// radio_power_down policy: drops the radio into power-down now and
  /// schedules the crystal start-up so standby is reached by `next_use`.
  void plan_power_down(sim::TimePoint next_use);
  void on_beacon_timeout();
  void enter_search();
  /// One bounded search window (search_listen > 0): listen, and on expiry
  /// power-cycle the radio and back off before the next window.
  void begin_search_listen();
  void on_search_window_elapsed();

  [[nodiscard]] sim::Duration beacon_air_estimate() const;

  sim::Simulator& simulator_;
  sim::Tracer& tracer_;
  sim::TraceNodeId trace_node_;
  os::NodeOs& os_;
  TdmaConfig config_;
  net::NodeId self_;
  sim::Rng rng_;

  NodeMacState state_{NodeMacState::kBooting};
  std::deque<std::vector<std::uint8_t>> tx_queue_;
  std::uint8_t data_seq_{0};
  net::NodeId bs_address_;  ///< derived from the configured PAN

  // Last known schedule (from the most recent beacon).
  sim::Duration cycle_{sim::Duration::zero()};
  sim::Duration slot_width_{sim::Duration::zero()};
  std::vector<net::NodeId> owners_;
  int my_slot_{-1};
  sim::TimePoint last_cycle_start_;
  std::size_t last_beacon_wire_bytes_{0};
  std::uint8_t missed_{0};

  os::TimerService::TimerId timeout_timer_{os::TimerService::kInvalidTimer};
  os::TimerService::TimerId grant_timer_{os::TimerService::kInvalidTimer};
  os::TimerService::TimerId ack_timer_{os::TimerService::kInvalidTimer};
  os::TimerService::TimerId slot_timer_{os::TimerService::kInvalidTimer};
  os::TimerService::TimerId wake_timer_{os::TimerService::kInvalidTimer};
  os::TimerService::TimerId ssr_timer_{os::TimerService::kInvalidTimer};
  os::TimerService::TimerId powerup_timer_{os::TimerService::kInvalidTimer};
  os::TimerService::TimerId search_timer_{os::TimerService::kInvalidTimer};
  std::uint8_t retries_{0};         ///< attempts for the frame at queue front
  bool awaiting_ack_{false};

  /// Crash teardown cannot cancel already-posted scheduler tasks (they sit
  /// in the OS run queue like real RAM-resident task records would survive
  /// in name only); every posted closure captures the epoch at post time
  /// and no-ops if a crash bumped it since.
  std::uint64_t boot_epoch_{0};
  /// Forces an explicit re-association after reboot: the old slot in the
  /// beacon table is ignored until this node's own SSR has gone out.
  bool must_reassociate_{false};
  bool crashed_{false};
  std::uint32_t search_backoff_level_{0};
  sim::TimePoint search_started_{};
  bool search_pending_{false};   ///< a resync-latency sample is open
  sim::TimePoint reboot_at_{};
  bool rejoin_pending_{false};   ///< a rejoin-latency sample is open
  std::vector<sim::Duration> resync_times_;
  std::vector<sim::Duration> rejoin_times_;
  NodeMacStats stats_;
};

}  // namespace bansim::mac
