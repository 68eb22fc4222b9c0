// The MAC seam: every protocol pair (node + base station) in the zoo
// implements these interfaces, so the node composition layer
// (core::NodeStack / core::BaseStationStack), the fault subsystem and the
// campaign runners hold one polymorphic MAC instead of one member per
// protocol.
//
// The two bases also carry every mechanism the protocols share, written
// once: the node lifecycle (crash teardown, reboot, the latency samples),
// the transmit queue and its drop accounting, link-layer ARQ, the
// data-frame task and — for the beaconed protocols (TDMA, CSMA/CA) — beacon
// reception, the guard-time wake-up and dead reckoning; on the sink side,
// beacon emission, control frames and data reception.  A protocol class
// keeps only its access policy and drives these helpers from it; where a
// helper continues into protocol code at a later event, the protocol hands
// it the continuation as a callable.
//
// Contract notes (see DESIGN.md "MAC seam & protocol zoo"):
//  * start() is called exactly once, at the node's staggered boot instant.
//  * queue_payload() never blocks; a full queue or a crashed MAC counts the
//    payload as queued-then-dropped, so PDR accounting stays conservative.
//  * crash()/reboot() are the fault subsystem's routing points.  A crashed
//    MAC must go quiet immediately (timers stopped, radio powered down,
//    queue cleared) and must tolerate scheduler closures from before the
//    crash firing afterwards (the boot-epoch pattern — posted tasks cannot
//    be cancelled).  reboot() restarts the protocol's own association
//    procedure from scratch.
//  * stats_snapshot() is the protocol-neutral projection of the per-MAC
//    stats struct.  Counters a protocol has no notion of (beacons for
//    ALOHA, say) stay zero; campaign reports treat zero as "not a thing
//    here", not "never happened".
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "net/packet.hpp"
#include "os/node_os.hpp"
#include "sim/context.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"

namespace bansim::mac {

/// Wire protocol a cell speaks.  The TDMA static/dynamic split is a real
/// protocol difference (slot-request semantics change), so it is part of
/// the tag rather than hidden behind kTdma.
enum class Protocol : std::uint8_t {
  kStaticTdma,
  kDynamicTdma,
  kAloha,
  kCsmaCa,
};

[[nodiscard]] constexpr const char* to_string(Protocol p) {
  switch (p) {
    case Protocol::kStaticTdma: return "static_tdma";
    case Protocol::kDynamicTdma: return "dynamic_tdma";
    case Protocol::kAloha: return "aloha";
    case Protocol::kCsmaCa: return "csma_ca";
  }
  return "?";
}

/// True for protocols that arbitrate the medium by contention (collisions
/// between data frames are legal outcomes, not invariant violations).
[[nodiscard]] constexpr bool is_contention(Protocol p) {
  return p == Protocol::kAloha || p == Protocol::kCsmaCa;
}

/// Protocol-neutral stats; each protocol's stats struct extends it, and the
/// campaign runners and the fuzzer oracles read this slice instead of
/// downcasting.
struct MacStatsSnapshot {
  std::uint64_t payloads_queued{0};  ///< application payloads offered (PDR denominator)
  std::uint64_t payloads_dropped{0}; ///< queue overflow, or offered while crashed
  std::uint64_t data_sent{0};
  std::uint64_t acks_received{0};    ///< link-layer ACKs
  std::uint64_t retransmissions{0};  ///< data frames retried after ACK loss
  std::uint64_t retry_drops{0};      ///< payloads dropped after max_retries
  std::uint64_t beacons_received{0};
  std::uint64_t beacons_missed{0};
  std::uint64_t foreign_beacons{0};  ///< other-PAN beacons heard and ignored
  std::uint64_t resyncs{0};          ///< fell back to a resync search
  std::uint64_t crashes{0};          ///< hard faults injected into this MAC
  std::uint64_t reboots{0};          ///< cold boots after a crash
};

class NodeMacBase {
 public:
  virtual ~NodeMacBase() = default;
  NodeMacBase(const NodeMacBase&) = delete;
  NodeMacBase& operator=(const NodeMacBase&) = delete;

  virtual void start() = 0;
  virtual void queue_payload(std::vector<std::uint8_t> payload) = 0;

  /// Associated with its base station.  Beaconed protocols report sync
  /// state; protocols with no association procedure report readiness.
  [[nodiscard]] virtual bool joined() const = 0;

  [[nodiscard]] std::size_t queue_depth() const { return tx_queue_.size(); }
  [[nodiscard]] std::size_t queue_capacity() const { return queue_cap_; }

  // Fault-routing hooks.
  virtual void crash() = 0;
  /// Cold boot after crash(): runs start() again.  A beaconed protocol
  /// re-associates explicitly (see owned_slot()).
  void reboot();
  [[nodiscard]] bool crashed() const { return crashed_; }

  /// Run-reset hook of the cell reuse protocol (DESIGN.md "Run reset
  /// protocol"): restores every run-mutable member to its constructed
  /// value — unlike reboot(), which models a fault and keeps latency
  /// samples, stats and the boot epoch.  `rng` is this node's freshly
  /// derived per-protocol stream for the new run's seed; the caller has
  /// already cleared the event queue and reset OS + board underneath.
  /// start() may be called again afterwards, exactly once.
  virtual void reset_for_reuse(sim::Rng rng) = 0;

  [[nodiscard]] virtual Protocol protocol() const = 0;
  [[nodiscard]] MacStatsSnapshot stats_snapshot() const { return counters_; }

  /// Search -> beacon latencies (one entry per completed resync) and
  /// reboot -> joined latencies (one entry per completed rejoin); the raw
  /// material of a campaign's recovery-time distributions.  Protocols
  /// without beacons never record any.
  [[nodiscard]] const std::vector<sim::Duration>& resync_times() const {
    return resync_times_;
  }
  [[nodiscard]] const std::vector<sim::Duration>& rejoin_times() const {
    return rejoin_times_;
  }

 protected:
  using TimerId = os::TimerService::TimerId;
  static constexpr TimerId kNoTimer = os::TimerService::kInvalidTimer;

  /// `counters` is the protocol's stats struct.  Data frames go to
  /// `bs_address`; `config` carries the ARQ knobs (ack_data, ack_wait,
  /// max_retries) and, for beaconed protocols, missed_beacon_limit and
  /// beacon_timeout_margin.  The ACK wait runs as timer task `ack_task`.
  template <typename Config>
  NodeMacBase(sim::SimContext& context, os::NodeOs& node_os,
              const Config& config, net::NodeId self, net::NodeId bs_address,
              sim::Rng rng, std::size_t queue_cap, os::TaskId ack_task,
              MacStatsSnapshot& counters)
      : NodeMacBase(context, node_os, self, bs_address, rng, queue_cap,
                    ack_task, counters) {
    ack_data_ = config.ack_data;
    ack_wait_ = config.ack_wait;
    max_retries_ = config.max_retries;
    if constexpr (requires { config.missed_beacon_limit; }) {
      missed_beacon_limit_ = config.missed_beacon_limit;
      beacon_timeout_margin_ = config.beacon_timeout_margin;
    }
  }

  // --- Lifecycle -----------------------------------------------------------

  /// crash() opens with this: false when already crashed; otherwise the
  /// crash is counted and the boot epoch bumped, so posted tasks and armed
  /// callbacks of the old life no-op whatever the teardown cannot reach.
  [[nodiscard]] bool begin_crash();
  /// crash() closes with this, after stopping the protocol's timers: the
  /// queue, ARQ state, sequence number and open latency samples are lost,
  /// a send in flight is abandoned and the chip is cut to power-down
  /// mid-whatever-it-was-doing (legal from any state; drops any latched
  /// frame).
  void end_crash();
  /// The part of reset_for_reuse() every protocol shares.
  void reset_common(sim::Rng rng);

  // --- Queue and ARQ -------------------------------------------------------

  /// Counts the payload and queues it, dropping the oldest entry of a full
  /// queue.  A crashed MAC drops it instead (a dead node's sensing pipeline
  /// is dead too, but application timers may still drain through the
  /// scheduler).  Returns whether the payload was queued.
  bool enqueue(std::vector<std::uint8_t>&& payload);

  /// Stops `id` if armed and marks it unarmed.
  void stop_timer(TimerId& id);

  /// A link-layer ACK arrived: when one was awaited, the frame at the head
  /// of the queue is delivered and retired.  Returns whether it was.
  bool ack_received();

  /// The head frame used up an attempt; past max_retries it is given up
  /// and the next frame starts with a fresh budget.  Returns whether it
  /// was given up.
  bool burn_retry();

  /// The data-frame task, run when the protocol's access rule grants the
  /// medium.  Takes the head of the queue (a copy while ACKs keep it
  /// there until acknowledged or given up), posts mac.prepare_tx for
  /// `cycles` + 6 per payload byte and, when that task runs in the same
  /// incarnation with the radio idle, sends it to the base station.
  /// `trace(frame)` writes the protocol's trace line.  Once the frame is
  /// out `sent()` runs, and with ACKs the receiver then stays open for the
  /// acknowledgement; if none arrives in ack_wait the frame burns a retry
  /// and `retry(given_up)` runs.
  template <typename Trace, typename Sent, typename Retry>
  void transmit_head(std::uint64_t cycles, Trace trace, Sent sent,
                     Retry retry);

  // --- Beacon tracking (TDMA, CSMA/CA) -------------------------------------

  /// Receive path of the beaconed protocols.  Frames are ignored while
  /// crashed.  Grants and ACKs count only from our own base station (a
  /// co-located BAN's node may share our short address): a grant goes to
  /// `grant(packet)`, an awaited ACK retires the frame (ack_received()) and
  /// runs `acked()`.  Another PAN's beacon is counted and ignored.  Our
  /// beacon closes the receive window and posts mac.beacon_proc, which runs
  /// `beacon(packet, rx_time)` in the same incarnation.
  template <typename Grant, typename Acked, typename Beacon>
  void receive_beaconed(net::Packet&& packet, Grant grant, Acked acked,
                        Beacon beacon);

  /// Processes our beacon's payload: counts it, closes an open resync
  /// sample and learns the announced cycle and the frame's air size.
  /// Empty when the payload is malformed.
  std::optional<net::BeaconPayload> accept_beacon(const net::Packet& packet);

  /// This node's index in a beacon's owner table, or -1.  After a reboot
  /// the table may still carry the pre-crash slot, but the base station has
  /// not heard from this incarnation: it re-associates explicitly instead
  /// of silently resuming a grant that may be reclaimed mid-cycle, until
  /// its own request is on the air (must_reassociate_ clears).
  [[nodiscard]] int owned_slot(const std::vector<net::NodeId>& owners) const;

  /// The node is associated again: closes an open rejoin sample.
  void note_rejoined();

  /// Falls back to a resynchronization search (after the protocol stopped
  /// its cycle timers): stops the miss timeout, counts the search and
  /// opens a resync sample.
  void begin_search();

  /// Air time of our base station's beacon (the last one heard, or a
  /// minimal one before any).
  [[nodiscard]] sim::Duration beacon_air_estimate() const;

  /// Arms the wake-up `guard` ahead of the beacon expected one cycle after
  /// `cycle_start` (timer task `task`, then `wake()`), or runs `wake()` now
  /// when that instant has passed (a cycle shorter than its guard: stay
  /// listening).  Returns when the radio is next needed for the beacon.
  template <typename Wake>
  sim::TimePoint plan_beacon_wake(sim::TimePoint cycle_start,
                                  sim::Duration guard, os::TaskId task,
                                  Wake wake);

  /// Opens the receiver for the beacon expected `guard` from now and arms
  /// the miss timeout (timer task `task`) at guard (to the expectation) +
  /// guard (symmetric late bound) + air + margin.  On a miss the node
  /// dead-reckons — assumes the beacon fired exactly on schedule and runs
  /// `reckon()` to plan the cycle from last_cycle_start_ — until more than
  /// missed_beacon_limit consecutive misses (or before any cycle is known),
  /// then runs `search()`.
  template <typename Search, typename Reckon>
  void listen_for_beacon(sim::Duration guard, os::TaskId task, Search search,
                         Reckon reckon);

  sim::Simulator& simulator_;
  sim::Tracer& tracer_;
  sim::TraceNodeId trace_node_;
  os::NodeOs& os_;
  net::NodeId self_;
  net::NodeId bs_address_;
  sim::Rng rng_;

  std::deque<std::vector<std::uint8_t>> tx_queue_;
  std::size_t queue_cap_;
  std::uint8_t data_seq_{0};

  bool ack_data_{false};
  sim::Duration ack_wait_{};
  std::uint8_t max_retries_{0};
  os::TaskId ack_task_;
  std::uint8_t retries_{0};  ///< attempts for the frame at queue front
  bool awaiting_ack_{false};
  TimerId ack_timer_{kNoTimer};

  // Beacon tracking (unused by ALOHA).
  std::uint8_t missed_beacon_limit_{0};
  sim::Duration beacon_timeout_margin_{};
  sim::Duration cycle_{sim::Duration::zero()};  ///< from the last beacon
  sim::TimePoint last_cycle_start_;
  std::size_t last_beacon_wire_bytes_{0};
  std::uint8_t missed_{0};  ///< consecutive beacons missed
  TimerId wake_timer_{kNoTimer};    ///< guard-time beacon wake-up
  TimerId beacon_timer_{kNoTimer};  ///< beacon miss timeout
  TimerId search_timer_{kNoTimer};  ///< bounded search window (TDMA)

  /// Crash teardown cannot cancel already-posted scheduler tasks (they sit
  /// in the OS run queue like real RAM-resident task records would survive
  /// in name only); every posted closure captures the epoch at post time
  /// and no-ops if a crash bumped it since.
  std::uint64_t boot_epoch_{0};
  bool crashed_{false};
  /// Forces an explicit re-association after reboot (see owned_slot()).
  bool must_reassociate_{false};
  sim::TimePoint search_started_{};
  bool search_pending_{false};   ///< a resync-latency sample is open
  sim::TimePoint reboot_at_{};
  bool rejoin_pending_{false};   ///< a rejoin-latency sample is open
  std::vector<sim::Duration> resync_times_;
  std::vector<sim::Duration> rejoin_times_;

 private:
  NodeMacBase(sim::SimContext& context, os::NodeOs& node_os,
              net::NodeId self, net::NodeId bs_address, sim::Rng rng,
              std::size_t queue_cap, os::TaskId ack_task,
              MacStatsSnapshot& counters);

  template <typename Retry>
  void await_ack(Retry retry);
  template <typename Search, typename Reckon>
  void arm_beacon_timeout(os::TaskId task, sim::Duration delay, Search search,
                          Reckon reckon);

  MacStatsSnapshot& counters_;
};

/// Sink counters.  A CSMA/CA base station's slot requests and grants are
/// GTS requests and grants; the ALOHA sink counts only data and ACKs.
struct BaseStationStats {
  std::uint64_t beacons_sent{0};
  std::uint64_t data_received{0};
  std::uint64_t slot_requests{0};
  std::uint64_t slots_granted{0};
  std::uint64_t requests_rejected{0};  ///< table full / slot taken
  std::uint64_t grants_sent{0};        ///< grant frames transmitted
  std::uint64_t acks_sent{0};          ///< link-layer ACK frames
  std::uint64_t slots_reclaimed{0};    ///< silent owners evicted
};

class BaseStationMacBase {
 public:
  /// Payload delivery upcall shared by every protocol: source node, payload
  /// bytes, arrival time.
  using DataHandler = std::function<void(net::NodeId, std::span<const std::uint8_t>,
                                         sim::TimePoint)>;

  virtual ~BaseStationMacBase() = default;
  BaseStationMacBase(const BaseStationMacBase&) = delete;
  BaseStationMacBase& operator=(const BaseStationMacBase&) = delete;

  virtual void start() = 0;
  void set_data_handler(DataHandler handler) {
    data_handler_ = std::move(handler);
  }

  /// Run-reset (see NodeMacBase::reset_for_reuse).  The data handler
  /// survives — it is the owner's wiring, not run state.
  virtual void reset_for_reuse() = 0;

  /// Nodes currently associated.  Contention protocols with no explicit
  /// association report the number of distinct sources heard from.
  [[nodiscard]] virtual std::size_t joined_nodes() const = 0;

  [[nodiscard]] virtual Protocol protocol() const = 0;

  [[nodiscard]] const BaseStationStats& stats() const { return stats_; }

  /// Slot (TDMA) or GTS (CSMA/CA) owner table the beacon announces.
  [[nodiscard]] const std::vector<net::NodeId>& slot_owners() const {
    return slot_owners_;
  }

  /// Length of the cycle the next beacon announces: the beacon slot plus
  /// one data slot per table entry for TDMA (the static table never changes
  /// size), the configured superframe for CSMA/CA (`cycle_step_` zero).
  [[nodiscard]] sim::Duration current_cycle() const {
    return cycle_base_ +
           cycle_step_ * static_cast<std::int64_t>(slot_owners_.size());
  }

 protected:
  /// A sink on radio address `address`.  Beaconed protocols announce
  /// `slot_width` in the beacon and a cycle of `cycle_base` plus
  /// `cycle_step` per slot-table entry, on PAN `pan_id`.
  BaseStationMacBase(sim::SimContext& context, os::NodeOs& node_os,
                     net::NodeId address, std::uint8_t pan_id = 0,
                     sim::Duration slot_width = {},
                     sim::Duration cycle_base = {},
                     sim::Duration cycle_step = {});

  /// The part of reset_for_reuse() every protocol shares.
  void reset_common();

  /// Opens a beacon cycle of `cycle`: stops listening, posts the beacon
  /// (bs.emit_beacon) and arms `next()` (the protocol's next cycle) one
  /// cycle from now.
  template <typename Next>
  void open_cycle(sim::Duration cycle, Next next);

  /// Interrupts the listen period to transmit one control frame (grant or
  /// ACK), then resumes listening.  The radio is half duplex, so frames
  /// arriving during the transmission are lost, as on the platform.
  /// Frames that cannot drain before the next beacon are not started: a
  /// node that misses its grant or ACK simply retries next cycle.
  void send_control(net::Packet packet, std::uint64_t prep_cycles);

  /// Answers a slot request from `requester` with a grant of `slot`.
  void send_grant(net::NodeId requester, std::uint8_t slot);

  /// A data frame reached a beaconed sink: counts it, answers with an ACK
  /// when `ack` (send_control) and delivers it.
  void receive_data(net::Packet&& packet, bool ack);

  /// Posts bs.handle_rx, which hands the payload to the data handler.
  void deliver(net::Packet&& packet);

  /// Adds the frame's source to the sorted distinct sources heard.
  void note_source(net::NodeId source);

  sim::Simulator& simulator_;
  sim::Tracer& tracer_;
  sim::TraceNodeId trace_node_;
  os::NodeOs& os_;
  net::NodeId address_;
  BaseStationStats stats_;
  std::vector<net::NodeId> slot_owners_;
  std::vector<net::NodeId> sources_heard_;  ///< distinct data sources (sorted)

 private:
  /// Builds and transmits the cycle's beacon; if a control frame is still
  /// draining out of the half-duplex radio, retries shortly after.
  void emit_beacon();

  DataHandler data_handler_;
  std::uint8_t pan_id_;
  sim::Duration slot_width_;
  sim::Duration cycle_base_;
  sim::Duration cycle_step_;
  std::uint8_t beacon_seq_{0};
  sim::TimePoint next_cycle_at_;  ///< expected start of the next cycle
};

// --- Template definitions --------------------------------------------------

template <typename Trace, typename Sent, typename Retry>
void NodeMacBase::transmit_head(std::uint64_t cycles, Trace trace, Sent sent,
                                Retry retry) {
  using namespace os::literals;
  std::vector<std::uint8_t> payload;
  if (ack_data_) {
    payload = tx_queue_.front();
  } else {
    payload = std::move(tx_queue_.front());
    tx_queue_.pop_front();
  }
  cycles += 6 * payload.size();
  os_.scheduler().post(
      "mac.prepare_tx"_task, cycles,
      [this, payload = std::move(payload), epoch = boot_epoch_, trace, sent,
       retry]() mutable {
        if (epoch != boot_epoch_) return;
        if (os_.radio().sending() || os_.radio().listening()) return;
        net::Packet data;
        data.header.dest = bs_address_;
        data.header.src = self_;
        data.header.type = net::PacketType::kData;
        data.header.seq = data_seq_++;
        data.payload = std::move(payload);
        ++counters_.data_sent;
        if (ack_data_ && retries_ > 0) ++counters_.retransmissions;
        trace(data);
        os_.radio().send(data, [this, sent, retry] {
          sent();
          if (ack_data_) await_ack(retry);
        });
      });
}

template <typename Retry>
void NodeMacBase::await_ack(Retry retry) {
  awaiting_ack_ = true;
  os_.radio().start_listen();
  ack_timer_ = os_.timers().start_oneshot(ack_task_, ack_wait_, [this, retry] {
    ack_timer_ = kNoTimer;
    if (!awaiting_ack_) return;
    awaiting_ack_ = false;
    if (os_.radio().listening() &&
        os_.radio().radio().state() != hw::RadioState::kRxClockOut) {
      os_.radio().stop_listen();
    }
    retry(burn_retry());
  });
}

template <typename Grant, typename Acked, typename Beacon>
void NodeMacBase::receive_beaconed(net::Packet&& packet, Grant grant,
                                   Acked acked, Beacon beacon) {
  using namespace os::literals;
  // A frame clocked out just before the crash can still drain through the
  // OS dispatch queue; the dead MAC must not act on it.
  if (crashed_) return;
  switch (packet.header.type) {
    case net::PacketType::kSlotGrant:
      if (packet.header.src == bs_address_) grant(packet);
      return;
    case net::PacketType::kAck:
      if (packet.header.src == bs_address_ && ack_received()) acked();
      return;
    case net::PacketType::kBeacon:
      if (packet.header.src != bs_address_) {
        ++counters_.foreign_beacons;
        return;  // another PAN's beacon: keep listening for ours
      }
      break;
    default:
      return;
  }
  const sim::TimePoint rx_time = simulator_.now();

  // The beacon is in hand: the receiver's job this cycle is done.
  stop_timer(beacon_timer_);
  stop_timer(search_timer_);
  if (os_.radio().listening()) os_.radio().stop_listen();

  const std::uint64_t cycles =
      350 + 14 * (packet.payload.size() > 11
                      ? (packet.payload.size() - 11) / 2
                      : 0);
  os_.scheduler().post("mac.beacon_proc"_task, cycles,
                       [this, packet = std::move(packet), rx_time,
                        epoch = boot_epoch_, beacon] {
                         if (epoch != boot_epoch_) return;
                         beacon(packet, rx_time);
                       });
}

template <typename Wake>
sim::TimePoint NodeMacBase::plan_beacon_wake(sim::TimePoint cycle_start,
                                             sim::Duration guard,
                                             os::TaskId task, Wake wake) {
  const sim::TimePoint now = simulator_.now();
  const sim::TimePoint at = cycle_start + cycle_ - guard;
  if (at <= now) {
    wake();
    return now;
  }
  wake_timer_ = os_.timers().start_oneshot(task, at - now, [this, wake] {
    wake_timer_ = kNoTimer;
    wake();
  });
  return at;
}

template <typename Search, typename Reckon>
void NodeMacBase::listen_for_beacon(sim::Duration guard, os::TaskId task,
                                    Search search, Reckon reckon) {
  if (!os_.radio().listening() && !os_.radio().sending()) {
    os_.radio().start_listen();
  }
  arm_beacon_timeout(
      task, guard + guard + beacon_air_estimate() + beacon_timeout_margin_,
      search, reckon);
}

template <typename Search, typename Reckon>
void NodeMacBase::arm_beacon_timeout(os::TaskId task, sim::Duration delay,
                                     Search search, Reckon reckon) {
  beacon_timer_ = os_.timers().start_oneshot(task, delay, [=, this] {
    beacon_timer_ = kNoTimer;
    if (os_.radio().radio().state() == hw::RadioState::kRxClockOut) {
      // The beacon is being clocked out of the FIFO right now; give it the
      // benefit of the doubt.
      arm_beacon_timeout(task, sim::Duration::from_microseconds(500), search,
                         reckon);
      return;
    }
    ++counters_.beacons_missed;
    ++missed_;
    if (os_.radio().listening()) os_.radio().stop_listen();
    if (missed_ > missed_beacon_limit_ || cycle_.is_zero()) {
      search();
      return;
    }
    last_cycle_start_ = last_cycle_start_ + cycle_;
    tracer_.emit(simulator_.now(), sim::TraceCategory::kMac, trace_node_,
                 [&](sim::TraceMessage& m) {
                   m << "beacon missed (" << missed_ << "), dead reckoning";
                 });
    reckon();
  });
}

template <typename Next>
void BaseStationMacBase::open_cycle(sim::Duration cycle, Next next) {
  using namespace os::literals;
  if (os_.radio().listening()) os_.radio().stop_listen();
  next_cycle_at_ = simulator_.now() + cycle;
  os_.scheduler().post("bs.emit_beacon"_task, 380, [this] { emit_beacon(); });
  os_.timers().start_oneshot("mac.cycle"_task, cycle, next);
}

}  // namespace bansim::mac
