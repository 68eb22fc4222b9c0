#include "mac/base_station_mac.hpp"

#include <algorithm>

namespace bansim::mac {

using namespace os::literals;

BaseStationMac::BaseStationMac(sim::SimContext& context, os::NodeOs& node_os,
                               Protocol protocol, const TdmaConfig& config)
    : BaseStationMacBase(context, node_os, TdmaConfig::bs_address(config.pan_id),
                         config.pan_id, config.slot, config.slot, config.slot),
      protocol_{protocol},
      config_{config} {
  if (protocol_ == Protocol::kStaticTdma) {
    slot_owners_.assign(config_.max_slots, kFreeSlot);
    silent_cycles_.assign(config_.max_slots, 0);
  }
  os_.radio().set_receive_handler(
      [this](net::Packet&& p) { on_packet(std::move(p)); });
}

std::size_t BaseStationMac::joined_nodes() const {
  return static_cast<std::size_t>(
      std::count_if(slot_owners_.begin(), slot_owners_.end(),
                    [](net::NodeId id) { return id != kFreeSlot; }));
}

void BaseStationMac::reset_for_reuse() {
  reset_common();
  if (protocol_ == Protocol::kStaticTdma) {
    slot_owners_.assign(config_.max_slots, kFreeSlot);
    silent_cycles_.assign(config_.max_slots, 0);
  } else {
    slot_owners_.clear();
    silent_cycles_.clear();
  }
}

void BaseStationMac::start() {
  os_.radio().init([this] { begin_cycle(); });
}

void BaseStationMac::begin_cycle() {
  reclaim_silent_slots();
  // The cycle length for *this* cycle is fixed at beacon time; admissions
  // during the cycle take effect from the next beacon.
  open_cycle(current_cycle(), [this] { begin_cycle(); });
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
    if (protocol_ == Protocol::kStaticTdma) {
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
    case net::PacketType::kData:
      receive_data(std::move(packet), config_.ack_data);
      break;
    default:
      break;  // beacons/grants from other cells would be filtered upstream
  }
}

void BaseStationMac::handle_slot_request(const net::Packet& packet) {
  ++stats_.slot_requests;
  const net::NodeId requester = packet.header.src;

  // A node already holding a slot re-requesting (it may have missed the
  // beacon or grant) is answered by repeating its grant.
  const auto already =
      std::find(slot_owners_.begin(), slot_owners_.end(), requester);
  if (already != slot_owners_.end()) {
    if (config_.fast_grant) {
      send_grant(requester,
                 static_cast<std::uint8_t>(already - slot_owners_.begin()));
    }
    return;
  }

  if (protocol_ == Protocol::kStaticTdma) {
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
      if (config_.fast_grant) send_grant(requester, wanted);
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
    if (config_.fast_grant) {
      send_grant(requester,
                 static_cast<std::uint8_t>(slot_owners_.size() - 1));
    }
  }
}

}  // namespace bansim::mac
