#include "mac/csma_mac.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "phy/air_frame.hpp"

namespace bansim::mac {

using namespace os::literals;

void CsmaConfig::validate() const {
  if (!cycle.is_positive()) {
    throw std::invalid_argument("csma.cycle_ms must be positive");
  }
  if (!backoff_unit.is_positive()) {
    throw std::invalid_argument("csma.backoff_unit_us must be positive");
  }
  if (min_be > max_be) {
    throw std::invalid_argument("csma.min_be must not exceed csma.max_be");
  }
  if (max_be > 10) {
    throw std::invalid_argument("csma.max_be out of range (max 10)");
  }
  if (!cca.is_positive() || cca > backoff_unit) {
    throw std::invalid_argument(
        "csma.cca_us must be positive and fit one backoff unit");
  }
  if (ack_data && !ack_wait.is_positive()) {
    throw std::invalid_argument("csma.ack_wait_ms must be positive");
  }
  if (gts_slots > 0 && !gts_slot.is_positive()) {
    throw std::invalid_argument("csma.gts_slot_ms must be positive");
  }
  if (tx_queue_cap == 0) {
    throw std::invalid_argument("csma.tx_queue_cap must be at least 1");
  }
  // The CAP needs room for at least a beacon, a handful of backoff units
  // and one maximum-length frame; a superframe swallowed whole by the CFP
  // and guard can never carry contention traffic.
  const sim::Duration floor =
      cfp() + guard() + sim::Duration::milliseconds(2);
  if (cycle <= floor) {
    throw std::invalid_argument(
        "csma.cycle_ms leaves no contention access period (CFP + guard "
        "consume the superframe)");
  }
}

CsmaNodeMac::CsmaNodeMac(sim::SimContext& context, os::NodeOs& node_os,
                         const CsmaConfig& config, net::NodeId self,
                         sim::Rng rng, bool use_gts)
    : simulator_{context.simulator}, tracer_{context.tracer},
      trace_node_{tracer_.intern(node_os.node_name())}, os_{node_os},
      config_{config}, self_{self}, rng_{rng}, use_gts_{use_gts},
      bs_address_{CsmaConfig::bs_address(config.pan_id)} {
  assert(self_ != bs_address_ && self_ != net::kBroadcastId);
  os_.radio().radio().set_local_address(self_);
  os_.radio().set_receive_handler(
      [this](net::Packet&& p) { on_packet(std::move(p)); });
}

void CsmaNodeMac::start() {
  os_.radio().init([this, epoch = boot_epoch_] {
    if (epoch == boot_epoch_) enter_search();
  });
}

void CsmaNodeMac::stop_timer(os::TimerService::TimerId& id) {
  if (id != os::TimerService::kInvalidTimer) {
    os_.timers().stop(id);
    id = os::TimerService::kInvalidTimer;
  }
}

void CsmaNodeMac::cancel_cycle_timers() {
  stop_timer(wake_timer_);
  stop_timer(backoff_timer_);
  stop_timer(cca_timer_);
  stop_timer(gts_timer_);
}

void CsmaNodeMac::cancel_all_timers() {
  cancel_cycle_timers();
  stop_timer(timeout_timer_);
  stop_timer(ack_timer_);
  stop_timer(grant_timer_);
}

void CsmaNodeMac::crash() {
  if (crashed_) return;
  crashed_ = true;
  ++stats_.crashes;
  ++boot_epoch_;  // invalidate posted closures (the NodeMac pattern)
  cancel_all_timers();
  tx_queue_.clear();
  synced_ = false;
  searching_ = false;
  my_gts_ = -1;
  missed_ = 0;
  attempt_active_ = false;
  attempt_is_request_ = false;
  awaiting_ack_ = false;
  awaiting_grant_ = false;
  retries_ = 0;
  nb_ = 0;
  be_ = 0;
  data_seq_ = 0;
  last_beacon_wire_bytes_ = 0;
  beacon_gts_slots_ = 0;
  beacon_gts_slot_ = sim::Duration::zero();
  search_pending_ = false;
  rejoin_pending_ = false;
  os_.radio().reset();
  os_.radio().radio().power_down();
  tracer_.emit(simulator_.now(), sim::TraceCategory::kMac, trace_node_,
               [](sim::TraceMessage& m) { m << "CRASH: mac state lost"; });
}

void CsmaNodeMac::reboot() {
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

void CsmaNodeMac::reset_for_reuse(sim::Rng rng) {
  rng_ = rng;
  tx_queue_.clear();
  data_seq_ = 0;
  synced_ = false;
  searching_ = true;
  cycle_known_ = sim::Duration::zero();
  last_cycle_start_ = sim::TimePoint{};
  cap_start_ = sim::TimePoint{};
  last_beacon_wire_bytes_ = 0;
  missed_ = 0;
  beacon_gts_slots_ = 0;
  beacon_gts_slot_ = sim::Duration::zero();
  my_gts_ = -1;
  attempt_active_ = false;
  attempt_is_request_ = false;
  nb_ = 0;
  be_ = 0;
  retries_ = 0;
  awaiting_ack_ = false;
  awaiting_grant_ = false;
  wake_timer_ = os::TimerService::kInvalidTimer;
  timeout_timer_ = os::TimerService::kInvalidTimer;
  backoff_timer_ = os::TimerService::kInvalidTimer;
  cca_timer_ = os::TimerService::kInvalidTimer;
  ack_timer_ = os::TimerService::kInvalidTimer;
  grant_timer_ = os::TimerService::kInvalidTimer;
  gts_timer_ = os::TimerService::kInvalidTimer;
  boot_epoch_ = 0;
  must_reassociate_ = false;
  crashed_ = false;
  search_started_ = sim::TimePoint{};
  search_pending_ = false;
  reboot_at_ = sim::TimePoint{};
  rejoin_pending_ = false;
  resync_times_.clear();
  rejoin_times_.clear();
  stats_ = CsmaNodeStats{};
}

void CsmaNodeMac::queue_payload(std::vector<std::uint8_t> payload) {
  assert(payload.size() <= net::kMaxPayloadBytes);
  ++stats_.payloads_queued;
  if (crashed_) {
    ++stats_.payloads_dropped;
    return;
  }
  if (tx_queue_.size() >= config_.tx_queue_cap) {
    tx_queue_.pop_front();
    ++stats_.payloads_dropped;
  }
  tx_queue_.push_back(std::move(payload));
  // A CAP node may contend right away; a GTS node's payload waits for its
  // slot (armed at beacon time, exactly like the TDMA slot transmission).
  if (synced_ && !use_gts_ && !attempt_active_ && !awaiting_ack_) {
    attempt_is_request_ = false;
    begin_attempt();
  }
}

MacStatsSnapshot CsmaNodeMac::stats_snapshot() const {
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

sim::Duration CsmaNodeMac::beacon_air_estimate() const {
  const std::size_t bytes = last_beacon_wire_bytes_ != 0
                                ? last_beacon_wire_bytes_
                                : net::kHeaderBytes + 12 + net::kCrcBytes;
  return phy::air_time(os_.radio().radio().phy_config(), bytes);
}

sim::Duration CsmaNodeMac::tx_air_estimate(std::size_t payload_bytes) const {
  const auto& radio = os_.radio().radio();
  const std::size_t wire = net::kHeaderBytes + payload_bytes + net::kCrcBytes;
  return radio.spi_time(wire) + radio.params().settle_time +
         phy::air_time(radio.phy_config(), wire) +
         sim::Duration::milliseconds(1);  // prep/dispatch + skew margin
}

sim::TimePoint CsmaNodeMac::cap_end() const {
  const sim::Duration cfp =
      beacon_gts_slot_ * static_cast<std::int64_t>(beacon_gts_slots_);
  return last_cycle_start_ + cycle_known_ - cfp - config_.guard();
}

void CsmaNodeMac::enter_search() {
  synced_ = false;
  searching_ = true;
  ++stats_.resyncs;
  missed_ = 0;
  my_gts_ = -1;
  attempt_active_ = false;
  cancel_cycle_timers();
  stop_timer(timeout_timer_);
  search_started_ = simulator_.now();
  search_pending_ = true;
  tracer_.emit(simulator_.now(), sim::TraceCategory::kMac, trace_node_,
               [](sim::TraceMessage& m) { m << "searching for beacon"; });
  if (!os_.radio().listening()) os_.radio().start_listen();
}

void CsmaNodeMac::on_packet(net::Packet&& packet) {
  if (crashed_) return;
  switch (packet.header.type) {
    case net::PacketType::kSlotGrant:
      if (packet.header.src == bs_address_) process_grant(packet);
      return;
    case net::PacketType::kAck:
      if (packet.header.src == bs_address_) process_ack(packet);
      return;
    case net::PacketType::kBeacon:
      if (packet.header.src != bs_address_) {
        ++stats_.foreign_beacons;
        return;
      }
      break;
    default:
      return;
  }
  const sim::TimePoint rx_time = simulator_.now();
  stop_timer(timeout_timer_);
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

void CsmaNodeMac::process_beacon(const net::Packet& packet,
                                 sim::TimePoint rx_time) {
  auto payload = net::BeaconPayload::deserialize(packet.payload);
  if (!payload) return;

  ++stats_.beacons_received;
  missed_ = 0;
  searching_ = false;
  if (search_pending_) {
    resync_times_.push_back(simulator_.now() - search_started_);
    search_pending_ = false;
  }
  cycle_known_ = sim::Duration::microseconds(payload->cycle_us);
  beacon_gts_slots_ = payload->num_slots;
  beacon_gts_slot_ = sim::Duration::microseconds(payload->slot_us);
  last_beacon_wire_bytes_ = packet.wire_size();

  const auto mine = std::find(payload->slot_owners.begin(),
                              payload->slot_owners.end(), self_);
  my_gts_ = mine == payload->slot_owners.end()
                ? -1
                : static_cast<int>(mine - payload->slot_owners.begin());
  // A rebooted incarnation re-requests its GTS even if the table still
  // carries it (same rule as the TDMA re-association handshake).
  if (must_reassociate_) my_gts_ = -1;

  const bool was_synced = synced_;
  synced_ = true;
  if (!was_synced) {
    tracer_.emit(simulator_.now(), sim::TraceCategory::kMac, trace_node_,
                 [](sim::TraceMessage& m) { m << "synced to beacon"; });
  }
  if (rejoin_pending_) {
    rejoin_times_.push_back(simulator_.now() - reboot_at_);
    rejoin_pending_ = false;
  }

  last_cycle_start_ = rx_time - beacon_air_estimate();
  cap_start_ = last_cycle_start_ + beacon_air_estimate();
  schedule_cycle(last_cycle_start_);
}

void CsmaNodeMac::schedule_cycle(sim::TimePoint cycle_start) {
  const sim::TimePoint now = simulator_.now();
  cancel_cycle_timers();
  attempt_active_ = false;

  if (use_gts_ && config_.gts_slots > 0) {
    if (my_gts_ >= 0 && my_gts_ < beacon_gts_slots_) {
      // Contention-free transmission in the owned GTS slot.
      if (!tx_queue_.empty()) {
        const sim::Duration cfp =
            beacon_gts_slot_ * static_cast<std::int64_t>(beacon_gts_slots_);
        const sim::TimePoint slot_start = cycle_start + cycle_known_ - cfp +
                                          beacon_gts_slot_ * my_gts_;
        if (slot_start > now) {
          gts_timer_ = os_.timers().start_oneshot(
              "csma.gts_tx"_task, slot_start - now, [this] {
                gts_timer_ = os::TimerService::kInvalidTimer;
                transmit_gts();
              });
        }
      }
    } else if (!awaiting_grant_) {
      // No slot yet: contend in the CAP for a GTS request.
      attempt_is_request_ = true;
      begin_attempt();
    }
  } else if (!tx_queue_.empty() && !awaiting_ack_) {
    attempt_is_request_ = false;
    begin_attempt();
  }

  const sim::TimePoint wake = cycle_start + cycle_known_ - config_.guard();
  if (wake > now) {
    wake_timer_ = os_.timers().start_oneshot(
        "csma.beacon_wake"_task, wake - now, [this] {
          wake_timer_ = os::TimerService::kInvalidTimer;
          wake_for_beacon();
        });
  } else {
    wake_for_beacon();
  }
}

void CsmaNodeMac::wake_for_beacon() {
  if (crashed_) return;
  if (!os_.radio().listening() && !os_.radio().sending()) {
    os_.radio().start_listen();
  }
  const sim::Duration guard = config_.guard();
  const sim::Duration timeout =
      guard + guard + beacon_air_estimate() + config_.beacon_timeout_margin;
  timeout_timer_ = os_.timers().start_oneshot(
      "csma.beacon_timeout"_task, timeout, [this] { on_beacon_timeout(); });
}

void CsmaNodeMac::on_beacon_timeout() {
  timeout_timer_ = os::TimerService::kInvalidTimer;
  if (os_.radio().radio().state() == hw::RadioState::kRxClockOut) {
    timeout_timer_ = os_.timers().start_oneshot(
        "csma.beacon_timeout"_task, sim::Duration::from_microseconds(500),
        [this] { on_beacon_timeout(); });
    return;
  }

  ++stats_.beacons_missed;
  ++missed_;
  if (os_.radio().listening()) os_.radio().stop_listen();

  if (missed_ > config_.missed_beacon_limit || cycle_known_.is_zero()) {
    enter_search();
    return;
  }

  // Dead reckoning: the GTS table cannot shift (fixed-size, no reclaim),
  // so both CAP and GTS activity may run on the extrapolated anchor.
  last_cycle_start_ = last_cycle_start_ + cycle_known_;
  cap_start_ = last_cycle_start_ + beacon_air_estimate();
  tracer_.emit(simulator_.now(), sim::TraceCategory::kMac, trace_node_,
               [&](sim::TraceMessage& m) {
                 m << "beacon missed (" << missed_ << "), dead reckoning";
               });
  schedule_cycle(last_cycle_start_);
}

void CsmaNodeMac::begin_attempt() {
  if (crashed_ || attempt_active_) return;
  if (!attempt_is_request_ && tx_queue_.empty()) return;
  attempt_active_ = true;
  nb_ = 0;
  be_ = config_.min_be;
  next_backoff();
}

void CsmaNodeMac::next_backoff() {
  const sim::TimePoint now = simulator_.now();
  // Random delay of 0..2^BE-1 backoff units, aligned up to the next CAP
  // backoff-slot boundary (slotted CSMA/CA).
  const std::int64_t units =
      rng_.uniform_int(0, (std::int64_t{1} << be_) - 1);
  const sim::TimePoint candidate = now + config_.backoff_unit * units;
  sim::TimePoint boundary = candidate;
  const sim::Duration off = candidate - cap_start_;
  if (off.is_negative()) {
    boundary = cap_start_;
  } else {
    const sim::Duration rem = off.mod(config_.backoff_unit);
    if (!rem.is_zero()) boundary = candidate + (config_.backoff_unit - rem);
  }

  const std::size_t payload_bytes =
      attempt_is_request_ ? 1 : tx_queue_.front().size();
  if (boundary + config_.cca + tx_air_estimate(payload_bytes) >= cap_end()) {
    // The CAP cannot fit this transmission any more; resume next beacon.
    ++stats_.cap_deferrals;
    attempt_active_ = false;
    if (os_.radio().listening()) os_.radio().stop_listen();
    tracer_.emit(now, sim::TraceCategory::kMac, trace_node_,
                 [](sim::TraceMessage& m) {
                   m << "CAP exhausted, attempt deferred";
                 });
    return;
  }

  // The receiver stays on through the backoff countdown: the CCA is an
  // energy-detect sample and needs the LNA powered — this RX residency is
  // the contention cost TDMA does not pay.
  if (!os_.radio().listening() && !os_.radio().sending()) {
    os_.radio().start_listen();
  }
  backoff_timer_ = os_.timers().start_oneshot(
      "csma.backoff"_task, boundary - now,
      [this, boundary] {
        backoff_timer_ = os::TimerService::kInvalidTimer;
        on_cca(boundary);
      });
}

void CsmaNodeMac::on_cca(sim::TimePoint boundary) {
  if (crashed_ || !attempt_active_) return;
  ++stats_.cca_attempts;
  if (os_.radio().radio().channel_busy()) {
    ++stats_.cca_busy;
    escalate_backoff();
    return;
  }
  // The energy-detect window: the medium must stay clear for the full CCA.
  cca_timer_ = os_.timers().start_oneshot(
      "csma.cca"_task, config_.cca, [this, boundary] {
        cca_timer_ = os::TimerService::kInvalidTimer;
        if (crashed_ || !attempt_active_) return;
        (void)boundary;
        if (os_.radio().radio().channel_busy()) {
          ++stats_.cca_busy;
          escalate_backoff();
          return;
        }
        transmit_head();
      });
}

void CsmaNodeMac::escalate_backoff() {
  ++nb_;
  be_ = std::min<std::uint8_t>(static_cast<std::uint8_t>(be_ + 1),
                               config_.max_be);
  if (nb_ > config_.max_backoffs) {
    // Channel-access failure.  The payload keeps its place at the head of
    // the queue but burns one retry; the next superframe gets a fresh NB.
    ++stats_.cca_failures;
    attempt_active_ = false;
    if (os_.radio().listening()) os_.radio().stop_listen();
    if (!attempt_is_request_) {
      if (++retries_ > config_.max_retries) {
        if (!tx_queue_.empty()) tx_queue_.pop_front();
        ++stats_.retry_drops;
        retries_ = 0;
      }
    }
    tracer_.emit(simulator_.now(), sim::TraceCategory::kMac, trace_node_,
                 [](sim::TraceMessage& m) {
                   m << "CSMA channel-access failure";
                 });
    return;
  }
  next_backoff();
}

void CsmaNodeMac::transmit_head() {
  if (os_.radio().listening()) os_.radio().stop_listen();
  if (attempt_is_request_) {
    send_gts_request();
    return;
  }
  if (tx_queue_.empty()) {
    attempt_active_ = false;
    return;
  }
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
                       m << "CAP data tx len=" << data.payload.size();
                     });
        os_.radio().send(data, [this] {
          attempt_active_ = false;
          if (!config_.ack_data) {
            if (!tx_queue_.empty() && synced_) {
              attempt_is_request_ = false;
              begin_attempt();
            }
            return;
          }
          awaiting_ack_ = true;
          os_.radio().start_listen();
          ack_timer_ = os_.timers().start_oneshot(
              "csma.ack_timeout"_task, config_.ack_wait,
              [this] { on_ack_timeout(); });
        });
      });
}

void CsmaNodeMac::transmit_gts() {
  if (crashed_ || tx_queue_.empty() || my_gts_ < 0) return;
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
        ++stats_.gts_tx;
        if (config_.ack_data && retries_ > 0) ++stats_.retransmissions;
        tracer_.emit(simulator_.now(), sim::TraceCategory::kMac, trace_node_,
                     [&](sim::TraceMessage& m) {
                       m << "GTS data tx slot=" << my_gts_
                         << " len=" << data.payload.size();
                     });
        os_.radio().send(data, [this] {
          if (!config_.ack_data) return;
          awaiting_ack_ = true;
          os_.radio().start_listen();
          ack_timer_ = os_.timers().start_oneshot(
              "csma.ack_timeout"_task, config_.ack_wait,
              [this] { on_ack_timeout(); });
        });
      });
}

void CsmaNodeMac::send_gts_request() {
  os_.scheduler().post("mac.join"_task, 500, [this, epoch = boot_epoch_] {
    if (epoch != boot_epoch_) return;
    if (os_.radio().sending() || os_.radio().listening()) return;
    net::Packet req;
    req.header.dest = bs_address_;
    req.header.src = self_;
    req.header.type = net::PacketType::kSlotRequest;
    req.header.seq = data_seq_++;
    req.payload = {0xFF};  // any free GTS slot
    ++stats_.gts_requests_sent;
    // This request is the re-association handshake after a reboot.
    must_reassociate_ = false;
    tracer_.emit(simulator_.now(), sim::TraceCategory::kMac, trace_node_,
                 [](sim::TraceMessage& m) { m << "GTS request"; });
    os_.radio().send(req, [this] {
      attempt_active_ = false;
      // Catch the immediate grant the base station answers with.
      awaiting_grant_ = true;
      os_.radio().start_listen();
      grant_timer_ = os_.timers().start_oneshot(
          "csma.grant_wait"_task, config_.ack_wait, [this] {
            grant_timer_ = os::TimerService::kInvalidTimer;
            if (!awaiting_grant_) return;
            awaiting_grant_ = false;
            if (os_.radio().listening() &&
                os_.radio().radio().state() != hw::RadioState::kRxClockOut) {
              os_.radio().stop_listen();
            }
          });
    });
  });
}

void CsmaNodeMac::process_grant(const net::Packet& packet) {
  const auto grant = net::SlotGrantPayload::deserialize(packet.payload);
  if (!grant) return;
  ++stats_.grants_received;
  awaiting_grant_ = false;
  stop_timer(grant_timer_);
  if (os_.radio().listening()) os_.radio().stop_listen();
  my_gts_ = grant->slot_index;
  tracer_.emit(simulator_.now(), sim::TraceCategory::kMac, trace_node_,
               [&](sim::TraceMessage& m) {
                 m << "GTS grant: slot " << my_gts_;
               });
  // The granted slot lies in this superframe's CFP — use it right away if
  // the beacon already announced a CFP geometry that covers it.
  if (!tx_queue_.empty() && my_gts_ < beacon_gts_slots_ &&
      gts_timer_ == os::TimerService::kInvalidTimer) {
    const sim::Duration cfp =
        beacon_gts_slot_ * static_cast<std::int64_t>(beacon_gts_slots_);
    const sim::TimePoint slot_start = last_cycle_start_ + cycle_known_ - cfp +
                                      beacon_gts_slot_ * my_gts_;
    const sim::TimePoint now = simulator_.now();
    if (slot_start > now) {
      gts_timer_ = os_.timers().start_oneshot(
          "csma.gts_tx"_task, slot_start - now, [this] {
            gts_timer_ = os::TimerService::kInvalidTimer;
            transmit_gts();
          });
    }
  }
}

void CsmaNodeMac::process_ack(const net::Packet&) {
  if (!awaiting_ack_) return;
  awaiting_ack_ = false;
  ++stats_.acks_received;
  stop_timer(ack_timer_);
  if (os_.radio().listening()) os_.radio().stop_listen();
  if (!tx_queue_.empty()) tx_queue_.pop_front();
  retries_ = 0;
  // More to say and CAP time (maybe) left: contend again; the fit check in
  // next_backoff() defers to the next superframe when the CAP is spent.
  if (!use_gts_ && !tx_queue_.empty() && synced_ && !attempt_active_) {
    attempt_is_request_ = false;
    begin_attempt();
  }
}

void CsmaNodeMac::on_ack_timeout() {
  ack_timer_ = os::TimerService::kInvalidTimer;
  if (!awaiting_ack_) return;
  awaiting_ack_ = false;
  if (os_.radio().listening() &&
      os_.radio().radio().state() != hw::RadioState::kRxClockOut) {
    os_.radio().stop_listen();
  }
  if (++retries_ > config_.max_retries) {
    if (!tx_queue_.empty()) tx_queue_.pop_front();
    ++stats_.retry_drops;
    retries_ = 0;
  }
  // Retransmission restarts CSMA/CA from scratch (fresh NB and BE).
  if (!use_gts_ && !tx_queue_.empty() && synced_ && !attempt_active_) {
    attempt_is_request_ = false;
    begin_attempt();
  }
}

CsmaBaseStationMac::CsmaBaseStationMac(sim::SimContext& context,
                                       os::NodeOs& node_os,
                                       const CsmaConfig& config)
    : simulator_{context.simulator}, tracer_{context.tracer},
      trace_node_{tracer_.intern(node_os.node_name())}, os_{node_os},
      config_{config} {
  gts_owners_.assign(config_.gts_slots, kFreeSlot);
  os_.radio().radio().set_local_address(
      CsmaConfig::bs_address(config_.pan_id));
  os_.radio().set_receive_handler(
      [this](net::Packet&& p) { on_packet(std::move(p)); });
}

void CsmaBaseStationMac::reset_for_reuse() {
  gts_owners_.assign(config_.gts_slots, kFreeSlot);
  sources_heard_.clear();
  beacon_seq_ = 0;
  next_cycle_at_ = sim::TimePoint{};
  stats_ = CsmaBaseStationStats{};
}

void CsmaBaseStationMac::start() {
  os_.radio().init([this] { begin_cycle(); });
}

net::Packet CsmaBaseStationMac::make_beacon() {
  net::BeaconPayload payload;
  payload.cycle_us =
      static_cast<std::uint32_t>(config_.cycle.to_microseconds());
  payload.num_slots = static_cast<std::uint8_t>(gts_owners_.size());
  payload.slot_us =
      static_cast<std::uint32_t>(config_.gts_slot.to_microseconds());
  payload.beacon_seq = beacon_seq_++;
  payload.pan_id = config_.pan_id;
  payload.slot_owners = gts_owners_;

  net::Packet beacon;
  beacon.header.dest = net::kBroadcastId;
  beacon.header.src = CsmaConfig::bs_address(config_.pan_id);
  beacon.header.type = net::PacketType::kBeacon;
  beacon.header.seq = payload.beacon_seq;
  beacon.payload = payload.serialize();
  return beacon;
}

void CsmaBaseStationMac::begin_cycle() {
  if (os_.radio().listening()) os_.radio().stop_listen();
  next_cycle_at_ = simulator_.now() + config_.cycle;
  os_.scheduler().post("bs.emit_beacon"_task, 380, [this] { emit_beacon(); });
  os_.timers().start_oneshot("mac.cycle"_task, config_.cycle,
                             [this] { begin_cycle(); });
}

void CsmaBaseStationMac::emit_beacon() {
  if (os_.radio().sending()) {
    os_.timers().start_oneshot("bs.beacon_defer"_task,
                               sim::Duration::from_microseconds(100),
                               [this] { emit_beacon(); });
    return;
  }
  if (os_.radio().listening()) os_.radio().stop_listen();

  net::Packet beacon = make_beacon();
  tracer_.emit(simulator_.now(), sim::TraceCategory::kMac, trace_node_,
               [&](sim::TraceMessage& m) {
                 m << "CSMA beacon seq=" << beacon.header.seq
                   << " gts=" << gts_owners_.size();
               });
  os_.radio().send(beacon, [this] {
    // Listen through the whole CAP and CFP.
    ++stats_.beacons_sent;
    os_.radio().start_listen();
  });
}

void CsmaBaseStationMac::send_control(net::Packet packet,
                                      std::uint64_t prep_cycles) {
  if (os_.radio().sending()) return;
  const auto& radio = os_.radio().radio();
  const std::size_t wire = packet.wire_size();
  const sim::Duration tx_estimate =
      radio.spi_time(wire) + radio.params().settle_time +
      phy::air_time(radio.phy_config(), wire) +
      sim::Duration::milliseconds(1);
  if (simulator_.now() + tx_estimate >= next_cycle_at_) return;

  os_.scheduler().post(
      "bs.send_control"_task, prep_cycles, [this, packet = std::move(packet)] {
        if (os_.radio().sending()) return;
        if (os_.radio().listening()) os_.radio().stop_listen();
        os_.radio().send(packet, [this] { os_.radio().start_listen(); });
      });
}

void CsmaBaseStationMac::on_packet(net::Packet&& packet) {
  switch (packet.header.type) {
    case net::PacketType::kSlotRequest:
      handle_gts_request(packet);
      break;
    case net::PacketType::kData: {
      ++stats_.data_received;
      const auto at = std::lower_bound(sources_heard_.begin(),
                                       sources_heard_.end(),
                                       packet.header.src);
      if (at == sources_heard_.end() || *at != packet.header.src) {
        sources_heard_.insert(at, packet.header.src);
      }
      if (config_.ack_data) {
        net::Packet ack;
        ack.header.dest = packet.header.src;
        ack.header.src = CsmaConfig::bs_address(config_.pan_id);
        ack.header.type = net::PacketType::kAck;
        ack.header.seq = packet.header.seq;
        ++stats_.acks_sent;
        send_control(std::move(ack), 120);
      }
      const std::uint64_t cycles = 260 + 8 * packet.payload.size();
      os_.scheduler().post("bs.handle_rx"_task, cycles,
                           [this, packet = std::move(packet)] {
                             if (data_handler_) {
                               data_handler_(packet.header.src, packet.payload,
                                             simulator_.now());
                             }
                           });
      break;
    }
    default:
      break;
  }
}

void CsmaBaseStationMac::handle_gts_request(const net::Packet& packet) {
  ++stats_.gts_requests;
  const net::NodeId requester = packet.header.src;

  const auto send_grant = [this, requester](std::uint8_t slot) {
    net::SlotGrantPayload grant;
    grant.slot_index = slot;
    grant.cycle_us =
        static_cast<std::uint32_t>(config_.cycle.to_microseconds());
    net::Packet reply;
    reply.header.dest = requester;
    reply.header.src = CsmaConfig::bs_address(config_.pan_id);
    reply.header.type = net::PacketType::kSlotGrant;
    reply.payload = grant.serialize();
    ++stats_.grants_sent;
    send_control(std::move(reply), 220);
  };

  // A node re-requesting its own GTS (post-reboot handshake, lost grant) is
  // answered by repeating the existing grant.
  const auto already =
      std::find(gts_owners_.begin(), gts_owners_.end(), requester);
  if (already != gts_owners_.end()) {
    send_grant(static_cast<std::uint8_t>(already - gts_owners_.begin()));
    return;
  }

  const auto free =
      std::find(gts_owners_.begin(), gts_owners_.end(), kFreeSlot);
  if (free == gts_owners_.end()) {
    ++stats_.requests_rejected;  // CFP full (or disabled)
    return;
  }
  *free = requester;
  ++stats_.gts_granted;
  const auto index = static_cast<std::uint8_t>(free - gts_owners_.begin());
  tracer_.emit(simulator_.now(), sim::TraceCategory::kMac, trace_node_,
               [&](sim::TraceMessage& m) {
                 m << "GTS slot " << index << " to node " << requester;
               });
  send_grant(index);
}

}  // namespace bansim::mac
