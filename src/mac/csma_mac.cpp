#include "mac/csma_mac.hpp"

#include <algorithm>
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
  if (!(guard_fraction >= 0.0 && guard_fraction < 0.5)) {  // NaN too
    throw std::invalid_argument("csma.guard_fraction must be in [0, 0.5)");
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
    : NodeMacBase(context, node_os, config, self,
                  TdmaConfig::bs_address(config.pan_id), rng,
                  config.tx_queue_cap, "csma.ack_timeout"_task, stats_),
      config_{config}, use_gts_{use_gts} {
  os_.radio().set_receive_handler([this](net::Packet&& p) {
    receive_beaconed(
        std::move(p), [this](const net::Packet& grant) { process_grant(grant); },
        [this] { contend(); },
        [this](const net::Packet& beacon, sim::TimePoint rx_time) {
          process_beacon(beacon, rx_time);
        });
  });
}

void CsmaNodeMac::start() {
  os_.radio().init([this, epoch = boot_epoch_] {
    if (epoch == boot_epoch_) enter_search();
  });
}

void CsmaNodeMac::cancel_cycle_timers() {
  stop_timer(wake_timer_);
  stop_timer(backoff_timer_);
  stop_timer(cca_timer_);
  stop_timer(gts_timer_);
}

void CsmaNodeMac::crash() {
  if (!begin_crash()) return;
  cancel_cycle_timers();
  stop_timer(beacon_timer_);
  stop_timer(ack_timer_);
  stop_timer(grant_timer_);
  synced_ = false;
  my_gts_ = -1;
  attempt_active_ = false;
  attempt_is_request_ = false;
  awaiting_grant_ = false;
  nb_ = 0;
  be_ = 0;
  beacon_gts_slots_ = 0;
  beacon_gts_slot_ = sim::Duration::zero();
  end_crash();
}

void CsmaNodeMac::reset_for_reuse(sim::Rng rng) {
  reset_common(rng);
  synced_ = false;
  cap_start_ = sim::TimePoint{};
  beacon_gts_slots_ = 0;
  beacon_gts_slot_ = sim::Duration::zero();
  my_gts_ = -1;
  attempt_active_ = false;
  attempt_is_request_ = false;
  nb_ = 0;
  be_ = 0;
  awaiting_grant_ = false;
  backoff_timer_ = kNoTimer;
  cca_timer_ = kNoTimer;
  grant_timer_ = kNoTimer;
  gts_timer_ = kNoTimer;
  stats_ = CsmaNodeStats{};
}

void CsmaNodeMac::queue_payload(std::vector<std::uint8_t> payload) {
  // A CAP node may contend right away; a GTS node's payload waits for its
  // slot (armed at beacon time, exactly like the TDMA slot transmission).
  if (enqueue(std::move(payload))) contend();
}

void CsmaNodeMac::contend() {
  if (!use_gts_ && !tx_queue_.empty() && synced_ && !attempt_active_ &&
      !awaiting_ack_) {
    begin_attempt(false);
  }
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
  return last_cycle_start_ + cycle_ - cfp - config_.guard();
}

void CsmaNodeMac::enter_search() {
  synced_ = false;
  my_gts_ = -1;
  attempt_active_ = false;
  cancel_cycle_timers();
  begin_search();
  if (!os_.radio().listening()) os_.radio().start_listen();
}

void CsmaNodeMac::process_beacon(const net::Packet& packet,
                                 sim::TimePoint rx_time) {
  auto payload = accept_beacon(packet);
  if (!payload) return;

  beacon_gts_slots_ = payload->num_slots;
  beacon_gts_slot_ = sim::Duration::microseconds(payload->slot_us);
  // A rebooted incarnation re-requests its GTS even if the table still
  // carries it (the TDMA re-association handshake).
  my_gts_ = owned_slot(payload->slot_owners);

  if (!synced_) {
    tracer_.emit(simulator_.now(), sim::TraceCategory::kMac, trace_node_,
                 [](sim::TraceMessage& m) { m << "synced to beacon"; });
  }
  synced_ = true;
  note_rejoined();

  last_cycle_start_ = rx_time - beacon_air_estimate();
  schedule_cycle(last_cycle_start_);
}

void CsmaNodeMac::schedule_cycle(sim::TimePoint cycle_start) {
  cap_start_ = cycle_start + beacon_air_estimate();
  cancel_cycle_timers();
  attempt_active_ = false;

  if (use_gts_ && config_.gts_slots > 0) {
    if (my_gts_ >= 0 && my_gts_ < beacon_gts_slots_) {
      // Contention-free transmission in the owned GTS slot.
      if (!tx_queue_.empty()) arm_gts_tx(cycle_start);
    } else if (!awaiting_grant_) {
      // No slot yet: contend in the CAP for a GTS request.
      begin_attempt(true);
    }
  } else if (!tx_queue_.empty() && !awaiting_ack_) {
    begin_attempt(false);
  }

  plan_beacon_wake(cycle_start, config_.guard(), "csma.beacon_wake"_task,
                   [this] { wake_for_beacon(); });
}

void CsmaNodeMac::wake_for_beacon() {
  if (crashed_) return;
  // Dead reckoning: the GTS table cannot shift (fixed-size, no reclaim),
  // so both CAP and GTS activity may run on the extrapolated anchor.
  listen_for_beacon(config_.guard(), "csma.beacon_timeout"_task,
                    [this] { enter_search(); },
                    [this] { schedule_cycle(last_cycle_start_); });
}

void CsmaNodeMac::begin_attempt(bool request) {
  attempt_is_request_ = request;
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
      "csma.backoff"_task, boundary - now, [this] {
        backoff_timer_ = kNoTimer;
        on_cca();
      });
}

void CsmaNodeMac::on_cca() {
  if (crashed_ || !attempt_active_) return;
  ++stats_.cca_attempts;
  if (os_.radio().radio().channel_busy()) {
    ++stats_.cca_busy;
    escalate_backoff();
    return;
  }
  // The energy-detect window: the medium must stay clear for the full CCA.
  cca_timer_ = os_.timers().start_oneshot(
      "csma.cca"_task, config_.cca, [this] {
        cca_timer_ = kNoTimer;
        if (crashed_ || !attempt_active_) return;
        if (os_.radio().radio().channel_busy()) {
          ++stats_.cca_busy;
          escalate_backoff();
          return;
        }
        transmit_cap();
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
    if (!attempt_is_request_) burn_retry();
    tracer_.emit(simulator_.now(), sim::TraceCategory::kMac, trace_node_,
                 [](sim::TraceMessage& m) {
                   m << "CSMA channel-access failure";
                 });
    return;
  }
  next_backoff();
}

void CsmaNodeMac::transmit_cap() {
  if (os_.radio().listening()) os_.radio().stop_listen();
  if (attempt_is_request_) {
    send_gts_request();
    return;
  }
  if (tx_queue_.empty()) {
    attempt_active_ = false;
    return;
  }
  transmit_head(
      260,
      [this](const net::Packet& data) {
        tracer_.emit(simulator_.now(), sim::TraceCategory::kMac, trace_node_,
                     [&](sim::TraceMessage& m) {
                       m << "CAP data tx len=" << data.payload.size();
                     });
      },
      [this] {
        attempt_active_ = false;
        if (!ack_data_ && !tx_queue_.empty() && synced_) begin_attempt(false);
      },
      [this](bool) { contend(); });
}

void CsmaNodeMac::arm_gts_tx(sim::TimePoint cycle_start) {
  const sim::Duration cfp =
      beacon_gts_slot_ * static_cast<std::int64_t>(beacon_gts_slots_);
  const sim::TimePoint slot_start =
      cycle_start + cycle_ - cfp + beacon_gts_slot_ * my_gts_;
  const sim::TimePoint now = simulator_.now();
  if (slot_start <= now || gts_timer_ != kNoTimer) return;
  gts_timer_ = os_.timers().start_oneshot("csma.gts_tx"_task, slot_start - now,
                                          [this] {
                                            gts_timer_ = kNoTimer;
                                            transmit_gts();
                                          });
}

void CsmaNodeMac::transmit_gts() {
  if (crashed_ || tx_queue_.empty() || my_gts_ < 0) return;
  transmit_head(
      260,
      [this](const net::Packet& data) {
        ++stats_.gts_tx;
        tracer_.emit(simulator_.now(), sim::TraceCategory::kMac, trace_node_,
                     [&](sim::TraceMessage& m) {
                       m << "GTS data tx slot=" << my_gts_
                         << " len=" << data.payload.size();
                     });
      },
      [] {}, [this](bool) { contend(); });
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
            grant_timer_ = kNoTimer;
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
  if (!tx_queue_.empty() && my_gts_ < beacon_gts_slots_) {
    arm_gts_tx(last_cycle_start_);
  }
}

CsmaBaseStationMac::CsmaBaseStationMac(sim::SimContext& context,
                                       os::NodeOs& node_os,
                                       const CsmaConfig& config)
    : BaseStationMacBase(context, node_os,
                         TdmaConfig::bs_address(config.pan_id), config.pan_id,
                         config.gts_slot, config.cycle, sim::Duration::zero()),
      config_{config} {
  slot_owners_.assign(config_.gts_slots, kFreeSlot);
  os_.radio().set_receive_handler(
      [this](net::Packet&& p) { on_packet(std::move(p)); });
}

void CsmaBaseStationMac::reset_for_reuse() {
  reset_common();
  slot_owners_.assign(config_.gts_slots, kFreeSlot);
}

void CsmaBaseStationMac::start() {
  os_.radio().init([this] { begin_cycle(); });
}

void CsmaBaseStationMac::begin_cycle() {
  open_cycle(config_.cycle, [this] { begin_cycle(); });
}

void CsmaBaseStationMac::on_packet(net::Packet&& packet) {
  switch (packet.header.type) {
    case net::PacketType::kSlotRequest:
      handle_gts_request(packet);
      break;
    case net::PacketType::kData:
      note_source(packet.header.src);
      receive_data(std::move(packet), config_.ack_data);
      break;
    default:
      break;
  }
}

void CsmaBaseStationMac::handle_gts_request(const net::Packet& packet) {
  ++stats_.slot_requests;
  const net::NodeId requester = packet.header.src;

  // A node re-requesting its own GTS (post-reboot handshake, lost grant) is
  // answered by repeating the existing grant.
  const auto already =
      std::find(slot_owners_.begin(), slot_owners_.end(), requester);
  if (already != slot_owners_.end()) {
    send_grant(requester,
               static_cast<std::uint8_t>(already - slot_owners_.begin()));
    return;
  }

  const auto free =
      std::find(slot_owners_.begin(), slot_owners_.end(), kFreeSlot);
  if (free == slot_owners_.end()) {
    ++stats_.requests_rejected;  // CFP full (or disabled)
    return;
  }
  *free = requester;
  ++stats_.slots_granted;
  const auto index = static_cast<std::uint8_t>(free - slot_owners_.begin());
  tracer_.emit(simulator_.now(), sim::TraceCategory::kMac, trace_node_,
               [&](sim::TraceMessage& m) {
                 m << "GTS slot " << index << " to node " << requester;
               });
  send_grant(requester, index);
}

}  // namespace bansim::mac
