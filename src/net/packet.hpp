// Packet formats of the BAN protocol stack.
//
// The MAC of the paper (Section 3.2.2) uses five frame kinds: beacons (SB),
// slot requests (SSR), slot grants, cycle updates (dynamic TDMA only) and
// data frames.  A Packet is the in-memory form; serialize() produces the
// exact byte image the radio clocks over the air, protected by the
// nRF2401's hardware CRC-16.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace bansim::net {

/// 16-bit node address.  The base station is address 0; kBroadcast matches
/// every receiver's hardware address filter.
using NodeId = std::uint16_t;
inline constexpr NodeId kBaseStationId = 0;
inline constexpr NodeId kBroadcastId = 0xFFFF;

enum class PacketType : std::uint8_t {
  kBeacon = 0x01,       ///< BS -> all: sync + (dynamic) cycle description
  kSlotRequest = 0x02,  ///< node -> BS: SSR, ask to join
  kSlotGrant = 0x03,    ///< BS -> node: assigned slot index
  kCycleUpdate = 0x04,  ///< BS -> all: dynamic TDMA cycle grew/shrank
  kData = 0x05,         ///< node -> BS: application payload
  kAck = 0x06,          ///< BS -> node: link-layer data acknowledgement
};

[[nodiscard]] const char* to_string(PacketType t);

/// Maximum application payload the ShockBurst FIFO can carry after the
/// 6-byte header and 2-byte CRC are accounted for (32-byte FIFO).
inline constexpr std::size_t kMaxPayloadBytes = 24;

/// Fixed header preceding every payload on the air.
struct PacketHeader {
  NodeId dest{kBroadcastId};
  NodeId src{0};
  PacketType type{PacketType::kData};
  std::uint8_t seq{0};
};

inline constexpr std::size_t kHeaderBytes = 6;
inline constexpr std::size_t kCrcBytes = 2;

/// A protocol frame: header + raw payload bytes.
struct Packet {
  PacketHeader header;
  std::vector<std::uint8_t> payload;

  /// Total on-air byte count including header and CRC (excludes preamble
  /// and the radio's address word, which are PHY-level framing).
  [[nodiscard]] std::size_t wire_size() const {
    return kHeaderBytes + payload.size() + kCrcBytes;
  }

  /// Byte image as transmitted: header | payload | crc16(header|payload).
  [[nodiscard]] std::vector<std::uint8_t> serialize() const;

  /// Parses a byte image, verifying length and CRC; nullopt when corrupt.
  [[nodiscard]] static std::optional<Packet> deserialize(
      std::span<const std::uint8_t> bytes);

  // deserialize() in steps, so the radio's address filter can drop an
  // overheard frame on its header alone:
  /// deserialize()'s length and CRC check.
  [[nodiscard]] static bool intact(std::span<const std::uint8_t> bytes);
  /// Header of an image that passed intact().
  [[nodiscard]] static PacketHeader header_of(
      std::span<const std::uint8_t> bytes);
  /// deserialize() of an image that passed intact(), without re-checking.
  [[nodiscard]] static Packet decode_intact(
      std::span<const std::uint8_t> bytes);
};

// --- Typed payload helpers -------------------------------------------------
//
// The MAC exchanges small structured payloads; these helpers give them a
// typed interface while keeping Packet itself a plain byte carrier.

/// Beacon payload: TDMA cycle length, number of slots, slot width, and for
/// the dynamic variant the owner of every slot so nodes learn the cycle
/// layout from the beacon itself.
struct BeaconPayload {
  std::uint32_t cycle_us{0};       ///< full TDMA cycle, microseconds
  std::uint8_t num_slots{0};       ///< data slots currently in the cycle
  std::uint32_t slot_us{0};        ///< width of one data slot, microseconds
  std::uint8_t beacon_seq{0};      ///< increments every cycle
  std::uint8_t pan_id{0};          ///< BAN/cell identifier (coexistence)
  std::vector<NodeId> slot_owners; ///< dynamic TDMA: owner per slot

  [[nodiscard]] std::vector<std::uint8_t> serialize() const;
  [[nodiscard]] static std::optional<BeaconPayload> deserialize(
      std::span<const std::uint8_t> bytes);
};

/// Slot grant payload: which slot was assigned and the resulting cycle.
struct SlotGrantPayload {
  std::uint8_t slot_index{0};
  std::uint32_t cycle_us{0};

  [[nodiscard]] std::vector<std::uint8_t> serialize() const;
  [[nodiscard]] static std::optional<SlotGrantPayload> deserialize(
      std::span<const std::uint8_t> bytes);
};

}  // namespace bansim::net
