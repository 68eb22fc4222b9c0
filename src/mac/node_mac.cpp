#include "mac/node_mac.hpp"

#include <algorithm>

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

NodeMac::NodeMac(sim::SimContext& context, os::NodeOs& node_os,
                 Protocol protocol, const TdmaConfig& config,
                 net::NodeId self, sim::Rng rng)
    : NodeMacBase(context, node_os, config, self,
                  TdmaConfig::bs_address(config.pan_id), rng,
                  config.tx_queue_cap, "mac.ack_timeout"_task, stats_),
      protocol_{protocol},
      config_{config} {
  os_.radio().set_receive_handler([this](net::Packet&& p) {
    receive_beaconed(
        std::move(p), [this](const net::Packet& grant) { process_grant(grant); },
        [] {},
        [this](const net::Packet& beacon, sim::TimePoint rx_time) {
          process_beacon(beacon, rx_time);
        });
  });
}

void NodeMac::start() {
  os_.radio().init([this, epoch = boot_epoch_] {
    if (epoch == boot_epoch_) enter_search();
  });
}

void NodeMac::cancel_cycle_timers() {
  stop_timer(slot_timer_);
  stop_timer(wake_timer_);
}

void NodeMac::crash() {
  if (!begin_crash()) return;
  cancel_cycle_timers();
  stop_timer(beacon_timer_);
  stop_timer(grant_timer_);
  stop_timer(ack_timer_);
  stop_timer(ssr_timer_);
  stop_timer(powerup_timer_);
  stop_timer(search_timer_);
  state_ = NodeMacState::kBooting;
  my_slot_ = -1;
  cycle_ = sim::Duration::zero();
  slot_width_ = sim::Duration::zero();
  owners_.clear();
  search_backoff_level_ = 0;
  end_crash();
}

void NodeMac::reset_for_reuse(sim::Rng rng) {
  reset_common(rng);
  state_ = NodeMacState::kBooting;
  slot_width_ = sim::Duration::zero();
  owners_.clear();
  my_slot_ = -1;
  grant_timer_ = kNoTimer;
  slot_timer_ = kNoTimer;
  ssr_timer_ = kNoTimer;
  powerup_timer_ = kNoTimer;
  search_backoff_level_ = 0;
  stats_ = NodeMacStats{};
}

void NodeMac::queue_payload(std::vector<std::uint8_t> payload) {
  enqueue(std::move(payload));
}

void NodeMac::enter_search() {
  state_ = NodeMacState::kSearching;
  my_slot_ = -1;
  cancel_cycle_timers();
  begin_search();
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
  search_timer_ = kNoTimer;
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
        search_timer_ = kNoTimer;
        if (state_ != NodeMacState::kSearching) return;
        begin_search_listen();  // start_listen re-powers the radio if needed
      });
}

void NodeMac::process_beacon(const net::Packet& packet,
                             sim::TimePoint rx_time) {
  auto payload = accept_beacon(packet);
  if (!payload) return;

  search_backoff_level_ = 0;
  slot_width_ = sim::Duration::microseconds(payload->slot_us);
  owners_ = payload->slot_owners;
  my_slot_ = owned_slot(owners_);

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
  if (state_ == NodeMacState::kJoined) note_rejoined();

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
      protocol_ == Protocol::kDynamicTdma ||
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
    earliest_radio_use =
        std::min(earliest_radio_use, arm_slot_tx(cycle_start));
  }

  // 2. Slot request when we are not (yet) in the table.
  if (my_slot_ < 0 && (state_ == NodeMacState::kSearching ||
                       state_ == NodeMacState::kJoining)) {
    send_slot_request(cycle_start);
    earliest_radio_use = now;  // SSR timing is internal; skip power-down
  }

  // 3. Next beacon wake-up, guard time ahead of the expectation.
  earliest_radio_use = std::min(
      earliest_radio_use,
      plan_beacon_wake(cycle_start, config_.guard(cycle_),
                       "mac.beacon_wake"_task, [this] { wake_for_beacon(); }));

  if (earliest_radio_use > now) plan_power_down(earliest_radio_use);
}

sim::TimePoint NodeMac::arm_slot_tx(sim::TimePoint cycle_start) {
  const sim::TimePoint slot_start = cycle_start + slot_width_ * (1 + my_slot_);
  const sim::TimePoint now = simulator_.now();
  if (slot_start <= now || slot_timer_ != kNoTimer) {
    return sim::TimePoint::max();
  }
  slot_timer_ = os_.timers().start_oneshot("mac.slot_tx"_task,
                                           slot_start - now, [this] {
                                             slot_timer_ = kNoTimer;
                                             transmit_queued();
                                           });
  return slot_start;
}

void NodeMac::plan_power_down(sim::TimePoint next_use) {
  if (!config_.radio_power_down) return;
  auto& radio = os_.radio().radio();
  if (os_.radio().listening() || os_.radio().sending()) return;
  if (radio.state() != hw::RadioState::kStandby) return;

  const sim::TimePoint now = simulator_.now();
  // Slack on both sides of the crystal start-up.
  constexpr sim::Duration kMargin = sim::Duration::from_milliseconds(0.5);
  const sim::Duration lead = radio.params().powerup_time + kMargin;
  // Not worth the crystal restart when the idle stretch is too short.
  if (next_use - now <= lead + kMargin) return;

  radio.power_down();
  stop_timer(powerup_timer_);  // stale wake-up from a superseded plan
  powerup_timer_ = os_.timers().start_oneshot(
      "mac.radio_powerup"_task, (next_use - now) - lead, [this] {
        powerup_timer_ = kNoTimer;
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

  if (protocol_ == Protocol::kStaticTdma) {
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
  // The epoch is taken when the timer is armed: crash() cannot stop a body
  // its expiry already raised, and that body must not join for the reboot.
  ssr_timer_ = os_.timers().start_oneshot("mac.ssr"_task, ssr_at - now,
                                          [this, wanted, epoch = boot_epoch_] {
    if (epoch != boot_epoch_) return;
    ssr_timer_ = kNoTimer;
    os_.scheduler().post("mac.join"_task, 500, [this, wanted, epoch] {
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
        constexpr sim::Duration kGrantWait = sim::Duration::milliseconds(3);
        os_.radio().start_listen();
        grant_timer_ = os_.timers().start_oneshot(
            "mac.grant_timeout"_task, kGrantWait, [this] {
              grant_timer_ = kNoTimer;
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
  stop_timer(grant_timer_);
  if (os_.radio().listening()) os_.radio().stop_listen();

  my_slot_ = grant->slot_index;
  state_ = NodeMacState::kJoined;
  note_rejoined();
  tracer_.emit(simulator_.now(), sim::TraceCategory::kMac, trace_node_,
               [&](sim::TraceMessage& m) {
                 m << "fast grant: slot " << my_slot_;
               });

  // In the static variant the granted slot may still lie ahead inside the
  // current cycle; use it.  (Dynamic grants extend the cycle beyond the
  // in-flight one, so the first transmission waits for the next beacon.)
  if (protocol_ == Protocol::kStaticTdma && !tx_queue_.empty() &&
      !cycle_.is_zero()) {
    arm_slot_tx(last_cycle_start_);
  }
}

void NodeMac::transmit_queued() {
  if (tx_queue_.empty() || my_slot_ < 0) return;
  transmit_head(
      260,
      [this](const net::Packet& data) {
        tracer_.emit(simulator_.now(), sim::TraceCategory::kMac, trace_node_,
                     [&](sim::TraceMessage& m) {
                       m << "Si data tx slot=" << my_slot_
                         << " len=" << data.payload.size();
                     });
      },
      [] {}, [](bool) {});
}

void NodeMac::wake_for_beacon() {
  if (state_ == NodeMacState::kBooting) return;
  listen_for_beacon(config_.guard(cycle_), "mac.beacon_timeout"_task,
                    [this] { enter_search(); },
                    [this] { schedule_cycle(last_cycle_start_); });
}

}  // namespace bansim::mac
