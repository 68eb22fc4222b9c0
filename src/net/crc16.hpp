// CRC-16/CCITT-FALSE, the 16-bit CRC option of the nRF2401 ShockBurst
// engine (poly 0x1021, init 0xFFFF, no reflection).  The radio model uses
// it to decide whether a corrupted air frame is delivered or silently
// dropped, which is how the paper's model detects collisions (Section 4.2).
#pragma once

#include <cstdint>
#include <span>

namespace bansim::net {

/// CRC over an arbitrary byte span; table-driven, one lookup per byte.
[[nodiscard]] std::uint16_t crc16_ccitt(std::span<const std::uint8_t> data,
                                        std::uint16_t init = 0xFFFF);

/// Incremental variant: feed one byte into a running CRC.  Bit-serial, the
/// polynomial spelled out: the reference crc16_ccitt's table is built from
/// and tested against.
[[nodiscard]] constexpr std::uint16_t crc16_ccitt_update(std::uint16_t crc,
                                                         std::uint8_t byte) {
  crc ^= static_cast<std::uint16_t>(byte << 8);
  for (int bit = 0; bit < 8; ++bit) {
    if (crc & 0x8000) {
      crc = static_cast<std::uint16_t>((crc << 1) ^ 0x1021);
    } else {
      crc = static_cast<std::uint16_t>(crc << 1);
    }
  }
  return crc;
}

}  // namespace bansim::net
