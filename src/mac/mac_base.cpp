#include "mac/mac_base.hpp"

#include <algorithm>

#include "phy/air_frame.hpp"

namespace bansim::mac {

using namespace os::literals;

NodeMacBase::NodeMacBase(sim::SimContext& context, os::NodeOs& node_os,
                         net::NodeId self, net::NodeId bs_address,
                         sim::Rng rng, std::size_t queue_cap,
                         os::TaskId ack_task, MacStatsSnapshot& counters)
    : simulator_{context.simulator}, tracer_{context.tracer},
      trace_node_{tracer_.intern(node_os.node_name())}, os_{node_os},
      self_{self}, bs_address_{bs_address}, rng_{rng}, queue_cap_{queue_cap},
      ack_task_{ack_task}, counters_{counters} {
  os_.radio().radio().set_local_address(self_);
}

void NodeMacBase::reboot() {
  if (!crashed_) return;
  crashed_ = false;
  ++counters_.reboots;
  must_reassociate_ = true;
  reboot_at_ = simulator_.now();
  rejoin_pending_ = true;
  tracer_.emit(simulator_.now(), sim::TraceCategory::kMac, trace_node_,
               [](sim::TraceMessage& m) { m << "reboot: cold start"; });
  start();
}

bool NodeMacBase::begin_crash() {
  if (crashed_) return false;
  crashed_ = true;
  ++counters_.crashes;
  ++boot_epoch_;
  return true;
}

void NodeMacBase::end_crash() {
  tx_queue_.clear();
  data_seq_ = 0;
  retries_ = 0;
  awaiting_ack_ = false;
  missed_ = 0;
  last_beacon_wire_bytes_ = 0;
  search_pending_ = false;
  rejoin_pending_ = false;
  os_.radio().reset();
  os_.radio().radio().power_down();
  tracer_.emit(simulator_.now(), sim::TraceCategory::kMac, trace_node_,
               [](sim::TraceMessage& m) { m << "CRASH: mac state lost"; });
}

void NodeMacBase::reset_common(sim::Rng rng) {
  rng_ = rng;
  tx_queue_.clear();
  data_seq_ = 0;
  retries_ = 0;
  awaiting_ack_ = false;
  ack_timer_ = kNoTimer;
  cycle_ = sim::Duration::zero();
  last_cycle_start_ = sim::TimePoint{};
  last_beacon_wire_bytes_ = 0;
  missed_ = 0;
  wake_timer_ = kNoTimer;
  beacon_timer_ = kNoTimer;
  search_timer_ = kNoTimer;
  boot_epoch_ = 0;
  crashed_ = false;
  must_reassociate_ = false;
  search_started_ = sim::TimePoint{};
  search_pending_ = false;
  reboot_at_ = sim::TimePoint{};
  rejoin_pending_ = false;
  resync_times_.clear();
  rejoin_times_.clear();
}

bool NodeMacBase::enqueue(std::vector<std::uint8_t>&& payload) {
  ++counters_.payloads_queued;
  if (crashed_) {
    ++counters_.payloads_dropped;
    return false;
  }
  if (tx_queue_.size() >= queue_cap_) {
    tx_queue_.pop_front();
    ++counters_.payloads_dropped;
  }
  tx_queue_.push_back(std::move(payload));
  return true;
}

void NodeMacBase::stop_timer(TimerId& id) {
  if (id != kNoTimer) {
    os_.timers().stop(id);
    id = kNoTimer;
  }
}

bool NodeMacBase::ack_received() {
  if (!awaiting_ack_) return false;
  awaiting_ack_ = false;
  ++counters_.acks_received;
  stop_timer(ack_timer_);
  if (os_.radio().listening()) os_.radio().stop_listen();
  if (!tx_queue_.empty()) tx_queue_.pop_front();
  retries_ = 0;
  return true;
}

bool NodeMacBase::burn_retry() {
  if (++retries_ <= max_retries_) return false;
  if (!tx_queue_.empty()) tx_queue_.pop_front();
  ++counters_.retry_drops;
  retries_ = 0;
  return true;
}

std::optional<net::BeaconPayload> NodeMacBase::accept_beacon(
    const net::Packet& packet) {
  auto payload = net::BeaconPayload::deserialize(packet.payload);
  if (!payload) return payload;
  ++counters_.beacons_received;
  missed_ = 0;
  if (search_pending_) {
    resync_times_.push_back(simulator_.now() - search_started_);
    search_pending_ = false;
  }
  cycle_ = sim::Duration::microseconds(payload->cycle_us);
  last_beacon_wire_bytes_ = packet.wire_size();
  return payload;
}

int NodeMacBase::owned_slot(const std::vector<net::NodeId>& owners) const {
  const auto mine = std::find(owners.begin(), owners.end(), self_);
  if (must_reassociate_ || mine == owners.end()) return -1;
  return static_cast<int>(mine - owners.begin());
}

void NodeMacBase::note_rejoined() {
  if (!rejoin_pending_) return;
  rejoin_times_.push_back(simulator_.now() - reboot_at_);
  rejoin_pending_ = false;
}

void NodeMacBase::begin_search() {
  ++counters_.resyncs;
  missed_ = 0;
  stop_timer(beacon_timer_);
  search_started_ = simulator_.now();
  search_pending_ = true;
  tracer_.emit(simulator_.now(), sim::TraceCategory::kMac, trace_node_,
               [](sim::TraceMessage& m) { m << "searching for beacon"; });
}

sim::Duration NodeMacBase::beacon_air_estimate() const {
  const std::size_t bytes = last_beacon_wire_bytes_ != 0
                                ? last_beacon_wire_bytes_
                                : net::kHeaderBytes + 12 + net::kCrcBytes;
  return phy::air_time(os_.radio().radio().phy_config(), bytes);
}

BaseStationMacBase::BaseStationMacBase(sim::SimContext& context,
                                       os::NodeOs& node_os,
                                       net::NodeId address,
                                       std::uint8_t pan_id,
                                       sim::Duration slot_width,
                                       sim::Duration cycle_base,
                                       sim::Duration cycle_step)
    : simulator_{context.simulator}, tracer_{context.tracer},
      trace_node_{tracer_.intern(node_os.node_name())}, os_{node_os},
      address_{address}, pan_id_{pan_id}, slot_width_{slot_width},
      cycle_base_{cycle_base}, cycle_step_{cycle_step} {
  os_.radio().radio().set_local_address(address_);
}

void BaseStationMacBase::reset_common() {
  stats_ = BaseStationStats{};
  sources_heard_.clear();
  beacon_seq_ = 0;
  next_cycle_at_ = sim::TimePoint{};
}

void BaseStationMacBase::emit_beacon() {
  if (os_.radio().sending()) {
    // A control frame is still draining out of the half-duplex radio;
    // the beacon goes out (slightly late) the moment it is free.
    os_.timers().start_oneshot("bs.beacon_defer"_task,
                               sim::Duration::from_microseconds(100),
                               [this] { emit_beacon(); });
    return;
  }
  // The control frame's completion restarted the listen; undo it.
  if (os_.radio().listening()) os_.radio().stop_listen();

  net::BeaconPayload payload;
  payload.cycle_us =
      static_cast<std::uint32_t>(current_cycle().to_microseconds());
  payload.num_slots = static_cast<std::uint8_t>(slot_owners_.size());
  payload.slot_us = static_cast<std::uint32_t>(slot_width_.to_microseconds());
  payload.beacon_seq = beacon_seq_++;
  payload.pan_id = pan_id_;
  payload.slot_owners = slot_owners_;

  net::Packet beacon;
  beacon.header.dest = net::kBroadcastId;
  beacon.header.src = address_;
  beacon.header.type = net::PacketType::kBeacon;
  beacon.header.seq = payload.beacon_seq;
  beacon.payload = payload.serialize();
  tracer_.emit(simulator_.now(), sim::TraceCategory::kMac, trace_node_,
               [&](sim::TraceMessage& m) {
                 m << "SB beacon seq=" << beacon.header.seq
                   << " slots=" << slot_owners_.size()
                   << " cycle=" << current_cycle();
               });
  os_.radio().send(beacon, [this] {
    // Beacon is gone: listen for the whole remainder of the cycle — the
    // request window and every data slot (the "R" region).
    ++stats_.beacons_sent;
    os_.radio().start_listen();
  });
}

void BaseStationMacBase::send_control(net::Packet packet,
                                      std::uint64_t prep_cycles) {
  if (os_.radio().sending()) return;  // half duplex: one frame at a time

  // Started too close to the cycle turn, the frame would still be in the
  // air when the beacon is due.  Skip it: the node re-requests next cycle
  // and its grant/ACK is simply repeated.
  const auto& radio = os_.radio().radio();
  const std::size_t wire = packet.wire_size();
  const sim::Duration tx_estimate =
      radio.spi_time(wire) + radio.params().settle_time +
      phy::air_time(radio.phy_config(), wire) +
      sim::Duration::milliseconds(1);  // prep/dispatch + clock-skew margin
  if (simulator_.now() + tx_estimate >= next_cycle_at_) return;

  os_.scheduler().post(
      "bs.send_control"_task, prep_cycles, [this, packet = std::move(packet)] {
        if (os_.radio().sending()) return;
        if (os_.radio().listening()) os_.radio().stop_listen();
        os_.radio().send(packet, [this] { os_.radio().start_listen(); });
      });
}

void BaseStationMacBase::send_grant(net::NodeId requester, std::uint8_t slot) {
  net::SlotGrantPayload grant;
  grant.slot_index = slot;
  grant.cycle_us =
      static_cast<std::uint32_t>(current_cycle().to_microseconds());
  net::Packet reply;
  reply.header.dest = requester;
  reply.header.src = address_;
  reply.header.type = net::PacketType::kSlotGrant;
  reply.payload = grant.serialize();
  ++stats_.grants_sent;
  send_control(std::move(reply), 220);
}

void BaseStationMacBase::receive_data(net::Packet&& packet, bool ack) {
  ++stats_.data_received;
  if (ack) {
    net::Packet reply;
    reply.header.dest = packet.header.src;
    reply.header.src = address_;
    reply.header.type = net::PacketType::kAck;
    reply.header.seq = packet.header.seq;
    ++stats_.acks_sent;
    send_control(std::move(reply), 120);
  }
  deliver(std::move(packet));
}

void BaseStationMacBase::deliver(net::Packet&& packet) {
  const std::uint64_t cycles = 260 + 8 * packet.payload.size();
  os_.scheduler().post("bs.handle_rx"_task, cycles,
                       [this, packet = std::move(packet)] {
                         if (data_handler_) {
                           data_handler_(packet.header.src, packet.payload,
                                         simulator_.now());
                         }
                       });
}

void BaseStationMacBase::note_source(net::NodeId source) {
  const auto at =
      std::lower_bound(sources_heard_.begin(), sources_heard_.end(), source);
  if (at == sources_heard_.end() || *at != source) {
    sources_heard_.insert(at, source);
  }
}

}  // namespace bansim::mac
