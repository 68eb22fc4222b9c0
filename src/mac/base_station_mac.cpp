#include "mac/base_station_mac.hpp"

#include <algorithm>
#include <cassert>

#include "phy/air_frame.hpp"

namespace bansim::mac {

using namespace os::literals;

BaseStationMac::BaseStationMac(sim::SimContext& context, os::NodeOs& node_os,
                               const TdmaConfig& config)
    : simulator_{context.simulator}, tracer_{context.tracer},
      trace_node_{tracer_.intern(node_os.node_name())}, os_{node_os},
      config_{config} {
  if (config_.variant == TdmaVariant::kStatic) {
    slot_owners_.assign(config_.max_slots, kFreeSlot);
    silent_cycles_.assign(config_.max_slots, 0);
  }
  os_.radio().radio().set_local_address(
      TdmaConfig::bs_address(config_.pan_id));
  os_.radio().set_receive_handler(
      [this](net::Packet&& p) { on_packet(std::move(p)); });
}

sim::Duration BaseStationMac::current_cycle() const {
  if (config_.variant == TdmaVariant::kStatic) return config_.static_cycle();
  // Dynamic: beacon slot + one slot per admitted node; the empty-slot
  // request window (ES) lives in the tail of the beacon slot.
  return config_.slot *
         (1 + static_cast<std::int64_t>(slot_owners_.size()));
}

std::size_t BaseStationMac::joined_nodes() const {
  return static_cast<std::size_t>(
      std::count_if(slot_owners_.begin(), slot_owners_.end(),
                    [](net::NodeId id) { return id != kFreeSlot; }));
}

void BaseStationMac::reset_for_reuse() {
  if (config_.variant == TdmaVariant::kStatic) {
    slot_owners_.assign(config_.max_slots, kFreeSlot);
    silent_cycles_.assign(config_.max_slots, 0);
  } else {
    slot_owners_.clear();
    silent_cycles_.clear();
  }
  beacon_seq_ = 0;
  next_cycle_at_ = sim::TimePoint{};
  stats_ = BaseStationStats{};
}

void BaseStationMac::start() {
  os_.radio().init([this] { begin_cycle(); });
}

net::Packet BaseStationMac::make_beacon() {
  net::BeaconPayload payload;
  payload.cycle_us =
      static_cast<std::uint32_t>(current_cycle().to_microseconds());
  payload.num_slots = static_cast<std::uint8_t>(slot_owners_.size());
  payload.slot_us = static_cast<std::uint32_t>(config_.slot.to_microseconds());
  payload.beacon_seq = beacon_seq_++;
  payload.pan_id = config_.pan_id;
  payload.slot_owners = slot_owners_;

  net::Packet beacon;
  beacon.header.dest = net::kBroadcastId;
  beacon.header.src = TdmaConfig::bs_address(config_.pan_id);
  beacon.header.type = net::PacketType::kBeacon;
  beacon.header.seq = payload.beacon_seq;
  beacon.payload = payload.serialize();
  return beacon;
}

void BaseStationMac::begin_cycle() {
  reclaim_silent_slots();

  // The cycle length for *this* cycle is fixed at beacon time; admissions
  // during the cycle take effect from the next beacon.
  const sim::Duration cycle = current_cycle();

  if (os_.radio().listening()) os_.radio().stop_listen();

  next_cycle_at_ = simulator_.now() + cycle;
  os_.scheduler().post("bs.emit_beacon"_task, 380, [this] { emit_beacon(); });

  os_.timers().start_oneshot("mac.cycle"_task, cycle,
                             [this] { begin_cycle(); });
}

void BaseStationMac::emit_beacon() {
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

  net::Packet beacon = make_beacon();
  tracer_.emit(simulator_.now(), sim::TraceCategory::kMac, trace_node_,
               [&](sim::TraceMessage& m) {
                 m << "SB beacon seq=" << beacon.header.seq
                   << " slots=" << slot_owners_.size()
                   << " cycle=" << current_cycle();
               });
  os_.radio().send(beacon, [this] {
    // Beacon is gone: listen for the whole remainder of the cycle — the
    // ES/contention window and every data slot (the "R" region).
    ++stats_.beacons_sent;
    os_.radio().start_listen();
  });
}

void BaseStationMac::send_control(net::Packet packet,
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

void BaseStationMac::note_activity(net::NodeId node) {
  for (std::size_t i = 0; i < slot_owners_.size(); ++i) {
    if (slot_owners_[i] == node) silent_cycles_[i] = 0;
  }
}

void BaseStationMac::reclaim_silent_slots() {
  if (config_.reclaim_after_cycles == 0) return;
  for (std::size_t i = slot_owners_.size(); i-- > 0;) {
    if (slot_owners_[i] == kFreeSlot) continue;
    if (++silent_cycles_[i] <= config_.reclaim_after_cycles) continue;
    tracer_.emit(simulator_.now(), sim::TraceCategory::kMac, trace_node_,
                 [&](sim::TraceMessage& m) {
                   m << "reclaim slot " << i << " from node "
                     << slot_owners_[i];
                 });
    ++stats_.slots_reclaimed;
    if (config_.variant == TdmaVariant::kStatic) {
      slot_owners_[i] = kFreeSlot;
      silent_cycles_[i] = 0;
    } else {
      // Dynamic: drop the slot entirely; the cycle shrinks and later
      // owners shift down, which the next beacon's table announces.
      slot_owners_.erase(slot_owners_.begin() + static_cast<std::ptrdiff_t>(i));
      silent_cycles_.erase(silent_cycles_.begin() +
                           static_cast<std::ptrdiff_t>(i));
    }
  }
}

void BaseStationMac::on_packet(net::Packet&& packet) {
  note_activity(packet.header.src);
  switch (packet.header.type) {
    case net::PacketType::kSlotRequest:
      handle_slot_request(packet);
      break;
    case net::PacketType::kData: {
      ++stats_.data_received;
      if (config_.ack_data) {
        net::Packet ack;
        ack.header.dest = packet.header.src;
        ack.header.src = TdmaConfig::bs_address(config_.pan_id);
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
      break;  // beacons/grants from other cells would be filtered upstream
  }
}

void BaseStationMac::handle_slot_request(const net::Packet& packet) {
  ++stats_.slot_requests;
  const net::NodeId requester = packet.header.src;

  const auto send_grant = [this, requester](std::uint8_t slot) {
    if (!config_.fast_grant) return;
    net::SlotGrantPayload grant;
    grant.slot_index = slot;
    grant.cycle_us =
        static_cast<std::uint32_t>(current_cycle().to_microseconds());
    net::Packet reply;
    reply.header.dest = requester;
    reply.header.src = TdmaConfig::bs_address(config_.pan_id);
    reply.header.type = net::PacketType::kSlotGrant;
    reply.payload = grant.serialize();
    ++stats_.grants_sent;
    send_control(std::move(reply), 220);
  };

  // A node already holding a slot re-requesting (it may have missed the
  // beacon or grant) is answered by repeating its grant.
  const auto already =
      std::find(slot_owners_.begin(), slot_owners_.end(), requester);
  if (already != slot_owners_.end()) {
    send_grant(static_cast<std::uint8_t>(already - slot_owners_.begin()));
    return;
  }

  if (config_.variant == TdmaVariant::kStatic) {
    const std::uint8_t wanted =
        packet.payload.empty() ? 0xFF : packet.payload.front();
    if (wanted < slot_owners_.size() && slot_owners_[wanted] == kFreeSlot) {
      slot_owners_[wanted] = requester;
      silent_cycles_[wanted] = 0;
      ++stats_.slots_granted;
      tracer_.emit(simulator_.now(), sim::TraceCategory::kMac, trace_node_,
                   [&](sim::TraceMessage& m) {
                     m << "grant slot " << wanted << " to node " << requester;
                   });
      send_grant(wanted);
    } else {
      ++stats_.requests_rejected;
    }
  } else {
    // Dynamic: append a new slot; the cycle grows by one slot width and
    // every node learns the new layout from the next beacon.
    if (slot_owners_.size() >= 250) {
      ++stats_.requests_rejected;
      return;
    }
    slot_owners_.push_back(requester);
    silent_cycles_.push_back(0);
    ++stats_.slots_granted;
    tracer_.emit(simulator_.now(), sim::TraceCategory::kMac, trace_node_,
                 [&](sim::TraceMessage& m) {
                   m << "new slot " << slot_owners_.size() - 1 << " for node "
                     << requester << ", cycle -> " << current_cycle();
                 });
    send_grant(static_cast<std::uint8_t>(slot_owners_.size() - 1));
  }
}

}  // namespace bansim::mac
