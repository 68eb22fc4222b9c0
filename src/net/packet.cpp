#include "net/packet.hpp"

#include "net/crc16.hpp"

namespace bansim::net {

namespace {

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v & 0xFF));
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v >> 24));
  out.push_back(static_cast<std::uint8_t>((v >> 16) & 0xFF));
  out.push_back(static_cast<std::uint8_t>((v >> 8) & 0xFF));
  out.push_back(static_cast<std::uint8_t>(v & 0xFF));
}

std::uint16_t get_u16(std::span<const std::uint8_t> in, std::size_t at) {
  return static_cast<std::uint16_t>((in[at] << 8) | in[at + 1]);
}

std::uint32_t get_u32(std::span<const std::uint8_t> in, std::size_t at) {
  return (static_cast<std::uint32_t>(in[at]) << 24) |
         (static_cast<std::uint32_t>(in[at + 1]) << 16) |
         (static_cast<std::uint32_t>(in[at + 2]) << 8) |
         static_cast<std::uint32_t>(in[at + 3]);
}

}  // namespace

const char* to_string(PacketType t) {
  switch (t) {
    case PacketType::kBeacon: return "BEACON";
    case PacketType::kSlotRequest: return "SLOT_REQ";
    case PacketType::kSlotGrant: return "SLOT_GRANT";
    case PacketType::kCycleUpdate: return "CYCLE_UPD";
    case PacketType::kData: return "DATA";
    case PacketType::kAck: return "ACK";
  }
  return "?";
}

std::vector<std::uint8_t> Packet::serialize() const {
  std::vector<std::uint8_t> out;
  out.reserve(wire_size());
  put_u16(out, header.dest);
  put_u16(out, header.src);
  out.push_back(static_cast<std::uint8_t>(header.type));
  out.push_back(header.seq);
  out.insert(out.end(), payload.begin(), payload.end());
  const std::uint16_t crc = crc16_ccitt(out);
  put_u16(out, crc);
  return out;
}

std::optional<Packet> Packet::deserialize(std::span<const std::uint8_t> bytes) {
  if (!intact(bytes)) return std::nullopt;
  return decode_intact(bytes);
}

bool Packet::intact(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < kHeaderBytes + kCrcBytes) return false;
  const std::size_t body = bytes.size() - kCrcBytes;
  return get_u16(bytes, body) == crc16_ccitt(bytes.subspan(0, body));
}

PacketHeader Packet::header_of(std::span<const std::uint8_t> bytes) {
  PacketHeader h;
  h.dest = get_u16(bytes, 0);
  h.src = get_u16(bytes, 2);
  h.type = static_cast<PacketType>(bytes[4]);
  h.seq = bytes[5];
  return h;
}

Packet Packet::decode_intact(std::span<const std::uint8_t> bytes) {
  Packet p;
  p.header = header_of(bytes);
  p.payload.assign(bytes.begin() + kHeaderBytes, bytes.end() - kCrcBytes);
  return p;
}

std::vector<std::uint8_t> BeaconPayload::serialize() const {
  std::vector<std::uint8_t> out;
  out.reserve(12 + 2 * slot_owners.size());
  put_u32(out, cycle_us);
  out.push_back(num_slots);
  put_u32(out, slot_us);
  out.push_back(beacon_seq);
  out.push_back(pan_id);
  out.push_back(static_cast<std::uint8_t>(slot_owners.size()));
  for (NodeId id : slot_owners) put_u16(out, id);
  return out;
}

std::optional<BeaconPayload> BeaconPayload::deserialize(
    std::span<const std::uint8_t> bytes) {
  if (bytes.size() < 12) return std::nullopt;
  BeaconPayload b;
  b.cycle_us = get_u32(bytes, 0);
  b.num_slots = bytes[4];
  b.slot_us = get_u32(bytes, 5);
  b.beacon_seq = bytes[9];
  b.pan_id = bytes[10];
  const std::size_t owners = bytes[11];
  if (bytes.size() < 12 + owners * 2) return std::nullopt;
  b.slot_owners.reserve(owners);
  for (std::size_t i = 0; i < owners; ++i) {
    b.slot_owners.push_back(get_u16(bytes, 12 + i * 2));
  }
  return b;
}

std::vector<std::uint8_t> SlotGrantPayload::serialize() const {
  std::vector<std::uint8_t> out;
  out.reserve(5);
  out.push_back(slot_index);
  put_u32(out, cycle_us);
  return out;
}

std::optional<SlotGrantPayload> SlotGrantPayload::deserialize(
    std::span<const std::uint8_t> bytes) {
  if (bytes.size() < 5) return std::nullopt;
  SlotGrantPayload g;
  g.slot_index = bytes[0];
  g.cycle_us = get_u32(bytes, 1);
  return g;
}

}  // namespace bansim::net
