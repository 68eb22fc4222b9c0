#include "mac/node_mac.hpp"

#include <algorithm>
#include <cassert>

#include "phy/air_frame.hpp"

namespace bansim::mac {

using namespace os::literals;

const char* to_string(NodeMacState s) {
  switch (s) {
    case NodeMacState::kBooting: return "booting";
    case NodeMacState::kSearching: return "searching";
    case NodeMacState::kJoining: return "joining";
    case NodeMacState::kJoined: return "joined";
  }
  return "?";
}

MacStatsSnapshot NodeMac::stats_snapshot() const {
  MacStatsSnapshot s;
  s.payloads_queued = stats_.payloads_queued;
  s.payloads_dropped = stats_.payloads_dropped;
  s.data_sent = stats_.data_sent;
  s.acks_received = stats_.acks_received;
  s.retransmissions = stats_.retransmissions;
  s.retry_drops = stats_.retry_drops;
  s.beacons_received = stats_.beacons_received;
  s.beacons_missed = stats_.beacons_missed;
  s.resyncs = stats_.resyncs;
  s.crashes = stats_.crashes;
  s.reboots = stats_.reboots;
  return s;
}

NodeMac::NodeMac(sim::SimContext& context, os::NodeOs& node_os,
                 const TdmaConfig& config, net::NodeId self, sim::Rng rng)
    : simulator_{context.simulator}, tracer_{context.tracer},
      trace_node_{tracer_.intern(node_os.node_name())}, os_{node_os},
      config_{config}, self_{self}, rng_{rng},
      bs_address_{TdmaConfig::bs_address(config.pan_id)} {
  assert(self_ != bs_address_ && self_ != net::kBroadcastId &&
         self_ != kFreeSlot);
  os_.radio().radio().set_local_address(self_);
  os_.radio().set_receive_handler(
      [this](net::Packet&& p) { on_packet(std::move(p)); });
}

void NodeMac::start() {
  os_.radio().init([this, epoch = boot_epoch_] {
    if (epoch == boot_epoch_) enter_search();
  });
}

void NodeMac::stop_timer(os::TimerService::TimerId& id) {
  if (id != os::TimerService::kInvalidTimer) {
    os_.timers().stop(id);
    id = os::TimerService::kInvalidTimer;
  }
}

void NodeMac::cancel_cycle_timers() {
  stop_timer(slot_timer_);
  stop_timer(wake_timer_);
}

void NodeMac::cancel_all_timers() {
  cancel_cycle_timers();
  stop_timer(timeout_timer_);
  stop_timer(grant_timer_);
  stop_timer(ack_timer_);
  stop_timer(ssr_timer_);
  stop_timer(powerup_timer_);
  stop_timer(search_timer_);
}

void NodeMac::crash() {
  if (crashed_) return;
  crashed_ = true;
  ++stats_.crashes;
  // Posted tasks and armed callbacks belong to the old life; the epoch bump
  // no-ops whatever teardown cannot reach.
  ++boot_epoch_;
  cancel_all_timers();
  tx_queue_.clear();
  state_ = NodeMacState::kBooting;
  my_slot_ = -1;
  missed_ = 0;
  cycle_ = sim::Duration::zero();
  slot_width_ = sim::Duration::zero();
  owners_.clear();
  last_beacon_wire_bytes_ = 0;
  retries_ = 0;
  awaiting_ack_ = false;
  data_seq_ = 0;
  search_backoff_level_ = 0;
  search_pending_ = false;
  rejoin_pending_ = false;
  // The driver forgets its in-flight send; the chip is cut mid-state (a
  // forced power-down is legal from anywhere and drops any latched frame).
  os_.radio().reset();
  os_.radio().radio().power_down();
  tracer_.emit(simulator_.now(), sim::TraceCategory::kMac, trace_node_,
               [](sim::TraceMessage& m) { m << "CRASH: mac state lost"; });
}

void NodeMac::reboot() {
  if (!crashed_) return;
  crashed_ = false;
  ++stats_.reboots;
  must_reassociate_ = true;
  reboot_at_ = simulator_.now();
  rejoin_pending_ = true;
  tracer_.emit(simulator_.now(), sim::TraceCategory::kMac, trace_node_,
               [](sim::TraceMessage& m) { m << "reboot: cold start"; });
  start();
}

void NodeMac::reset_for_reuse(sim::Rng rng) {
  rng_ = rng;
  state_ = NodeMacState::kBooting;
  tx_queue_.clear();
  data_seq_ = 0;
  cycle_ = sim::Duration::zero();
  slot_width_ = sim::Duration::zero();
  owners_.clear();
  my_slot_ = -1;
  last_cycle_start_ = sim::TimePoint{};
  last_beacon_wire_bytes_ = 0;
  missed_ = 0;
  timeout_timer_ = os::TimerService::kInvalidTimer;
  grant_timer_ = os::TimerService::kInvalidTimer;
  ack_timer_ = os::TimerService::kInvalidTimer;
  slot_timer_ = os::TimerService::kInvalidTimer;
  wake_timer_ = os::TimerService::kInvalidTimer;
  ssr_timer_ = os::TimerService::kInvalidTimer;
  powerup_timer_ = os::TimerService::kInvalidTimer;
  search_timer_ = os::TimerService::kInvalidTimer;
  retries_ = 0;
  awaiting_ack_ = false;
  boot_epoch_ = 0;
  must_reassociate_ = false;
  crashed_ = false;
  search_backoff_level_ = 0;
  search_started_ = sim::TimePoint{};
  search_pending_ = false;
  reboot_at_ = sim::TimePoint{};
  rejoin_pending_ = false;
  resync_times_.clear();
  rejoin_times_.clear();
  stats_ = NodeMacStats{};
}

void NodeMac::queue_payload(std::vector<std::uint8_t> payload) {
  assert(payload.size() <= net::kMaxPayloadBytes);
  ++stats_.payloads_queued;
  if (crashed_) {
    // A dead node's sensing pipeline is dead too, but defend against
    // application timers still draining through the scheduler.
    ++stats_.payloads_dropped;
    return;
  }
  if (tx_queue_.size() >= config_.tx_queue_cap) {
    tx_queue_.pop_front();
    ++stats_.payloads_dropped;
  }
  tx_queue_.push_back(std::move(payload));
}

void NodeMac::enter_search() {
  state_ = NodeMacState::kSearching;
  ++stats_.resyncs;
  missed_ = 0;
  my_slot_ = -1;
  cancel_cycle_timers();
  stop_timer(timeout_timer_);
  search_started_ = simulator_.now();
  search_pending_ = true;
  tracer_.emit(simulator_.now(), sim::TraceCategory::kMac, trace_node_,
               [](sim::TraceMessage& m) { m << "searching for beacon"; });
  if (config_.search_listen.is_zero()) {
    // Legacy: listen until a beacon arrives, however long that takes.
    if (!os_.radio().listening()) os_.radio().start_listen();
    return;
  }
  search_backoff_level_ = 0;
  begin_search_listen();
}

void NodeMac::begin_search_listen() {
  if (!os_.radio().listening() && !os_.radio().sending()) {
    os_.radio().start_listen();
  }
  search_timer_ = os_.timers().start_oneshot(
      "mac.search_window"_task, config_.search_listen,
      [this] { on_search_window_elapsed(); });
}

void NodeMac::on_search_window_elapsed() {
  search_timer_ = os::TimerService::kInvalidTimer;
  if (state_ != NodeMacState::kSearching) return;
  if (os_.radio().radio().state() == hw::RadioState::kRxClockOut) {
    // A frame (maybe our beacon) is clocking out right now; let it finish.
    search_timer_ = os_.timers().start_oneshot(
        "mac.search_window"_task, sim::Duration::from_microseconds(500),
        [this] { on_search_window_elapsed(); });
    return;
  }
  // No beacon inside the window: power-cycle the radio — which also clears
  // a locked-up receiver, the recovery path for that fault — and back off
  // before burning RX current again.
  if (os_.radio().listening()) os_.radio().stop_listen();
  os_.radio().radio().power_down();
  ++stats_.search_power_cycles;
  sim::Duration backoff = config_.search_backoff_base;
  for (std::uint32_t i = 0; i < search_backoff_level_; ++i) {
    backoff = backoff.scaled(config_.search_backoff_factor);
    if (backoff >= config_.search_backoff_max) break;
  }
  if (backoff > config_.search_backoff_max) backoff = config_.search_backoff_max;
  ++search_backoff_level_;
  tracer_.emit(simulator_.now(), sim::TraceCategory::kMac, trace_node_,
               [&](sim::TraceMessage& m) {
                 m << "search window empty, backoff " << backoff;
               });
  search_timer_ = os_.timers().start_oneshot(
      "mac.search_backoff"_task, backoff, [this] {
        search_timer_ = os::TimerService::kInvalidTimer;
        if (state_ != NodeMacState::kSearching) return;
        begin_search_listen();  // start_listen re-powers the radio if needed
      });
}

sim::Duration NodeMac::beacon_air_estimate() const {
  const std::size_t bytes = last_beacon_wire_bytes_ != 0
                                ? last_beacon_wire_bytes_
                                : net::kHeaderBytes + 12 + net::kCrcBytes;
  return phy::air_time(os_.radio().radio().phy_config(), bytes);
}

void NodeMac::on_packet(net::Packet&& packet) {
  // A frame clocked out just before the crash can still drain through the
  // OS dispatch queue; the dead MAC must not act on it.
  if (crashed_) return;
  switch (packet.header.type) {
    case net::PacketType::kSlotGrant:
      // Directed frames from a foreign base station (a co-located BAN with
      // a node sharing our short address) must not be honoured.
      if (packet.header.src == bs_address_) process_grant(packet);
      return;
    case net::PacketType::kAck:
      if (packet.header.src == bs_address_) process_ack(packet);
      return;
    case net::PacketType::kBeacon:
      if (packet.header.src != bs_address_) {
        ++stats_.foreign_beacons;
        return;  // another PAN's beacon: keep listening for ours
      }
      break;
    default:
      return;
  }
  const sim::TimePoint rx_time = simulator_.now();

  // The beacon is in hand: the receiver's job this cycle is done.
  stop_timer(timeout_timer_);
  stop_timer(search_timer_);
  if (os_.radio().listening()) os_.radio().stop_listen();

  const std::uint64_t cycles =
      350 + 14 * (packet.payload.size() > 11
                      ? (packet.payload.size() - 11) / 2
                      : 0);
  os_.scheduler().post("mac.beacon_proc"_task, cycles,
                       [this, packet = std::move(packet), rx_time,
                        epoch = boot_epoch_] {
                         if (epoch != boot_epoch_) return;
                         process_beacon(packet, rx_time);
                       });
}

void NodeMac::process_beacon(const net::Packet& packet,
                             sim::TimePoint rx_time) {
  auto payload = net::BeaconPayload::deserialize(packet.payload);
  if (!payload) return;

  ++stats_.beacons_received;
  missed_ = 0;
  search_backoff_level_ = 0;
  if (search_pending_) {
    resync_times_.push_back(simulator_.now() - search_started_);
    search_pending_ = false;
  }
  cycle_ = sim::Duration::microseconds(payload->cycle_us);
  slot_width_ = sim::Duration::microseconds(payload->slot_us);
  owners_ = payload->slot_owners;
  last_beacon_wire_bytes_ = packet.wire_size();

  const auto mine = std::find(owners_.begin(), owners_.end(), self_);
  my_slot_ = mine == owners_.end()
                 ? -1
                 : static_cast<int>(mine - owners_.begin());
  // After a reboot the table may still carry the pre-crash slot, but the
  // base station has not heard from this incarnation: re-associate
  // explicitly instead of silently resuming a grant that may be reclaimed
  // mid-cycle.  The flag clears once our own SSR is on the air.
  if (must_reassociate_) my_slot_ = -1;

  const NodeMacState before = state_;
  state_ = my_slot_ >= 0 ? NodeMacState::kJoined
                         : (state_ == NodeMacState::kJoined
                                ? NodeMacState::kSearching
                                : state_);
  if (state_ != before) {
    tracer_.emit(simulator_.now(), sim::TraceCategory::kMac, trace_node_,
                 [&](sim::TraceMessage& m) {
                   m << "state " << to_string(before) << " -> "
                     << to_string(state_);
                 });
  }
  if (state_ == NodeMacState::kJoined && rejoin_pending_) {
    rejoin_times_.push_back(simulator_.now() - reboot_at_);
    rejoin_pending_ = false;
  }

  // Anchor the cycle at the instant the beacon's first bit hit the air.
  last_cycle_start_ = rx_time - beacon_air_estimate();
  schedule_cycle(last_cycle_start_);
}

void NodeMac::schedule_cycle(sim::TimePoint cycle_start) {
  const sim::TimePoint now = simulator_.now();
  sim::TimePoint earliest_radio_use = sim::TimePoint::max();

  // A re-anchored plan supersedes whatever the previous cycle armed: a
  // slot_tx left over from a dead-reckoned cycle keeps the stale anchor
  // and would fire inside someone else's slot.
  cancel_cycle_timers();

  // 1. Our data slot, if we own one and have something to say.  Data slot i
  //    occupies [cycle_start + (1+i)*slot, +slot).  On a dead-reckoned
  //    cycle the slot layout may have changed behind our back wherever the
  //    base station can move slots (dynamic cycles shrink when a slot is
  //    reclaimed, shifting every later index; static reclamation regrants
  //    freed slots): transmitting on the stale layout would land inside
  //    someone else's slot, so the payload waits for a confirmed beacon.
  const bool layout_may_shift =
      config_.variant == TdmaVariant::kDynamic ||
      config_.reclaim_after_cycles > 0;
  const bool stale_layout = missed_ > 0 && layout_may_shift;
  if (stale_layout && my_slot_ >= 0 && !tx_queue_.empty()) {
    ++stats_.slot_tx_deferred;
    tracer_.emit(now, sim::TraceCategory::kMac, trace_node_,
                 [](sim::TraceMessage& m) {
                   m << "slot tx deferred (dead-reckoned layout)";
                 });
  }
  if (my_slot_ >= 0 && !tx_queue_.empty() && !stale_layout) {
    const sim::TimePoint slot_start =
        cycle_start + slot_width_ * (1 + my_slot_);
    if (slot_start > now) {
      slot_timer_ = os_.timers().start_oneshot(
          "mac.slot_tx"_task, slot_start - now, [this] {
            slot_timer_ = os::TimerService::kInvalidTimer;
            transmit_queued();
          });
      earliest_radio_use = std::min(earliest_radio_use, slot_start);
    }
  }

  // 2. Slot request when we are not (yet) in the table.
  if (my_slot_ < 0 && (state_ == NodeMacState::kSearching ||
                       state_ == NodeMacState::kJoining)) {
    send_slot_request(cycle_start);
    earliest_radio_use = now;  // SSR timing is internal; skip power-down
  }

  // 3. Next beacon wake-up, guard time ahead of the expectation.
  const sim::TimePoint expected_next = cycle_start + cycle_;
  const sim::Duration guard = config_.guard(cycle_);
  const sim::TimePoint wake = expected_next - guard;
  if (wake > now) {
    wake_timer_ = os_.timers().start_oneshot(
        "mac.beacon_wake"_task, wake - now, [this] {
          wake_timer_ = os::TimerService::kInvalidTimer;
          wake_for_beacon();
        });
    earliest_radio_use = std::min(earliest_radio_use, wake);
  } else {
    // Degenerate guard (cycle shorter than guard): stay listening.
    wake_for_beacon();
    earliest_radio_use = now;
  }

  if (earliest_radio_use > now) plan_power_down(earliest_radio_use);
}

void NodeMac::plan_power_down(sim::TimePoint next_use) {
  if (!config_.radio_power_down) return;
  auto& radio = os_.radio().radio();
  if (os_.radio().listening() || os_.radio().sending()) return;
  if (radio.state() != hw::RadioState::kStandby) return;

  const sim::TimePoint now = simulator_.now();
  const sim::Duration lead =
      radio.params().powerup_time + config_.power_up_margin;
  // Not worth the crystal restart when the idle stretch is too short.
  if (next_use - now <= lead + config_.power_up_margin) return;

  radio.power_down();
  stop_timer(powerup_timer_);  // stale wake-up from a superseded plan
  powerup_timer_ = os_.timers().start_oneshot(
      "mac.radio_powerup"_task, (next_use - now) - lead, [this] {
        powerup_timer_ = os::TimerService::kInvalidTimer;
        auto& r = os_.radio().radio();
        if (r.state() == hw::RadioState::kPowerDown) {
          r.power_up();
        }
      });
}

void NodeMac::send_slot_request(sim::TimePoint cycle_start) {
  const sim::TimePoint now = simulator_.now();
  // ~1 ms after TX kickoff covers FIFO clock-in + settling + the burst.
  const sim::Duration tx_window = sim::Duration::milliseconds(1);

  std::uint8_t wanted = 0xFF;
  sim::TimePoint ssr_at;

  if (config_.variant == TdmaVariant::kStatic) {
    // Pick a random free slot and a random jitter inside it.  A rebooted
    // node still listed in the table may also re-request its own old slot —
    // otherwise a full network would leave it no slot to re-associate
    // through (the base station answers by repeating the existing grant).
    std::vector<std::uint8_t> free_slots;
    for (std::size_t i = 0; i < owners_.size(); ++i) {
      if (owners_[i] == kFreeSlot ||
          (must_reassociate_ && owners_[i] == self_)) {
        free_slots.push_back(static_cast<std::uint8_t>(i));
      }
    }
    if (free_slots.empty()) return;  // network full: stay searching
    wanted = free_slots[static_cast<std::size_t>(rng_.uniform_int(
        0, static_cast<std::int64_t>(free_slots.size()) - 1))];
    const sim::TimePoint slot_start =
        cycle_start + slot_width_ * (1 + wanted);
    const double span =
        (slot_width_ - tx_window).to_seconds();
    ssr_at = slot_start +
             sim::Duration::from_seconds(rng_.uniform(0.0, std::max(0.0, span)));
  } else {
    // Dynamic: random instant inside the ES window (tail of slot 0).
    const sim::TimePoint es_start =
        cycle_start + beacon_air_estimate() +
        sim::Duration::from_microseconds(200);
    const sim::TimePoint es_end = cycle_start + slot_width_;
    const double span = (es_end - es_start - tx_window).to_seconds();
    if (span <= 0) return;
    ssr_at = es_start + sim::Duration::from_seconds(rng_.uniform(0.0, span));
  }

  if (ssr_at <= now) return;  // window already passed this cycle

  state_ = NodeMacState::kJoining;
  stop_timer(ssr_timer_);  // one pending request at a time
  ssr_timer_ = os_.timers().start_oneshot("mac.ssr"_task, ssr_at - now, [this, wanted] {
    ssr_timer_ = os::TimerService::kInvalidTimer;
    os_.scheduler().post("mac.join"_task, 500, [this, wanted, epoch = boot_epoch_] {
      if (epoch != boot_epoch_) return;
      if (os_.radio().sending() || os_.radio().listening()) return;
      net::Packet req;
      req.header.dest = bs_address_;
      req.header.src = self_;
      req.header.type = net::PacketType::kSlotRequest;
      req.header.seq = data_seq_++;
      req.payload = {wanted};
      ++stats_.slot_requests_sent;
      // The re-association handshake is this SSR: once it is on the air the
      // node may trust the table again (the base station repeats the grant
      // of a slot it still holds).
      must_reassociate_ = false;
      tracer_.emit(simulator_.now(), sim::TraceCategory::kMac, trace_node_,
                   [&](sim::TraceMessage& m) {
                     m << "SSR (slot " << wanted << ")";
                   });
      os_.radio().send(req, [this] {
        if (!config_.fast_grant) return;
        // Keep the receiver open briefly: the base station answers an
        // accepted request with a directed SlotGrant right away.
        os_.radio().start_listen();
        grant_timer_ = os_.timers().start_oneshot(
            "mac.grant_timeout"_task, config_.grant_wait, [this] {
              grant_timer_ = os::TimerService::kInvalidTimer;
              if (os_.radio().listening() &&
                  os_.radio().radio().state() != hw::RadioState::kRxClockOut) {
                os_.radio().stop_listen();
              }
            });
      });
    });
  });
}

void NodeMac::process_grant(const net::Packet& packet) {
  const auto grant = net::SlotGrantPayload::deserialize(packet.payload);
  if (!grant) return;
  ++stats_.grants_received;
  if (grant_timer_ != os::TimerService::kInvalidTimer) {
    os_.timers().stop(grant_timer_);
    grant_timer_ = os::TimerService::kInvalidTimer;
  }
  if (os_.radio().listening()) os_.radio().stop_listen();

  my_slot_ = grant->slot_index;
  state_ = NodeMacState::kJoined;
  if (rejoin_pending_) {
    rejoin_times_.push_back(simulator_.now() - reboot_at_);
    rejoin_pending_ = false;
  }
  tracer_.emit(simulator_.now(), sim::TraceCategory::kMac, trace_node_,
               [&](sim::TraceMessage& m) {
                 m << "fast grant: slot " << my_slot_;
               });

  // In the static variant the granted slot may still lie ahead inside the
  // current cycle; use it.  (Dynamic grants extend the cycle beyond the
  // in-flight one, so the first transmission waits for the next beacon.)
  if (config_.variant == TdmaVariant::kStatic && !tx_queue_.empty() &&
      !cycle_.is_zero()) {
    const sim::TimePoint slot_start =
        last_cycle_start_ + slot_width_ * (1 + my_slot_);
    const sim::TimePoint now = simulator_.now();
    if (slot_start > now && slot_timer_ == os::TimerService::kInvalidTimer) {
      slot_timer_ = os_.timers().start_oneshot(
          "mac.slot_tx"_task, slot_start - now, [this] {
            slot_timer_ = os::TimerService::kInvalidTimer;
            transmit_queued();
          });
    }
  }
}

void NodeMac::process_ack(const net::Packet&) {
  if (!awaiting_ack_) return;
  awaiting_ack_ = false;
  ++stats_.acks_received;
  if (ack_timer_ != os::TimerService::kInvalidTimer) {
    os_.timers().stop(ack_timer_);
    ack_timer_ = os::TimerService::kInvalidTimer;
  }
  if (os_.radio().listening()) os_.radio().stop_listen();
  // Delivery confirmed: retire the frame at the head of the queue.
  if (!tx_queue_.empty()) tx_queue_.pop_front();
  retries_ = 0;
}

void NodeMac::on_ack_timeout() {
  ack_timer_ = os::TimerService::kInvalidTimer;
  if (!awaiting_ack_) return;
  awaiting_ack_ = false;
  if (os_.radio().listening() &&
      os_.radio().radio().state() != hw::RadioState::kRxClockOut) {
    os_.radio().stop_listen();
  }
  if (++retries_ > config_.max_retries) {
    // Give up on this payload; the next one gets a fresh attempt budget.
    if (!tx_queue_.empty()) tx_queue_.pop_front();
    ++stats_.retry_drops;
    retries_ = 0;
  }
}

void NodeMac::transmit_queued() {
  if (tx_queue_.empty() || my_slot_ < 0) return;
  std::vector<std::uint8_t> payload = take_head(tx_queue_, config_.ack_data);

  const std::uint64_t cycles = 260 + 6 * payload.size();
  os_.scheduler().post(
      "mac.prepare_tx"_task, cycles,
      [this, payload = std::move(payload), epoch = boot_epoch_]() mutable {
        if (epoch != boot_epoch_) return;
        if (os_.radio().sending() || os_.radio().listening()) return;
        net::Packet data;
        data.header.dest = bs_address_;
        data.header.src = self_;
        data.header.type = net::PacketType::kData;
        data.header.seq = data_seq_++;
        data.payload = std::move(payload);
        ++stats_.data_sent;
        if (config_.ack_data && retries_ > 0) ++stats_.retransmissions;
        tracer_.emit(simulator_.now(), sim::TraceCategory::kMac, trace_node_,
                     [&](sim::TraceMessage& m) {
                       m << "Si data tx slot=" << my_slot_
                         << " len=" << data.payload.size();
                     });
        os_.radio().send(data, [this] {
          if (!config_.ack_data) return;
          // Hold the receiver open for the in-slot acknowledgement.
          awaiting_ack_ = true;
          os_.radio().start_listen();
          ack_timer_ = os_.timers().start_oneshot(
              "mac.ack_timeout"_task, config_.ack_wait,
              [this] { on_ack_timeout(); });
        });
      });
}

void NodeMac::wake_for_beacon() {
  if (state_ == NodeMacState::kBooting) return;
  if (!os_.radio().listening() && !os_.radio().sending()) {
    os_.radio().start_listen();
  }
  // Declare the beacon missed if it has not arrived by
  // guard (to the expectation) + guard (symmetric late bound) + air + margin.
  const sim::Duration guard = config_.guard(cycle_);
  const sim::Duration timeout =
      guard + guard + beacon_air_estimate() + config_.beacon_timeout_margin;
  timeout_timer_ = os_.timers().start_oneshot(
      "mac.beacon_timeout"_task, timeout, [this] { on_beacon_timeout(); });
}

void NodeMac::on_beacon_timeout() {
  timeout_timer_ = os::TimerService::kInvalidTimer;
  if (os_.radio().radio().state() == hw::RadioState::kRxClockOut) {
    // The beacon is being clocked out of the FIFO right now; give it the
    // benefit of the doubt.
    timeout_timer_ = os_.timers().start_oneshot(
        "mac.beacon_timeout"_task, sim::Duration::from_microseconds(500),
        [this] { on_beacon_timeout(); });
    return;
  }

  ++stats_.beacons_missed;
  ++missed_;
  if (os_.radio().listening()) os_.radio().stop_listen();

  if (missed_ > config_.missed_beacon_limit || cycle_.is_zero()) {
    enter_search();
    return;
  }

  // Dead reckoning: assume the beacon fired exactly on schedule and plan
  // the cycle from the expectation.
  last_cycle_start_ = last_cycle_start_ + cycle_;
  tracer_.emit(simulator_.now(), sim::TraceCategory::kMac, trace_node_,
               [&](sim::TraceMessage& m) {
                 m << "beacon missed (" << missed_ << "), dead reckoning";
               });
  schedule_cycle(last_cycle_start_);
}

}  // namespace bansim::mac
