#include "net/crc16.hpp"

#include <array>

namespace bansim::net {

namespace {

/// kTable[i] is eight bit-serial steps from crc = i << 8.  The CRC is
/// linear, so for any crc and byte,
///   crc16_ccitt_update(crc, byte) == (crc << 8) ^ kTable[(crc >> 8) ^ byte].
constexpr std::array<std::uint16_t, 256> kTable = [] {
  std::array<std::uint16_t, 256> table{};
  for (unsigned i = 0; i < 256; ++i) {
    table[i] = crc16_ccitt_update(static_cast<std::uint16_t>(i << 8), 0);
  }
  return table;
}();

}  // namespace

std::uint16_t crc16_ccitt(std::span<const std::uint8_t> data, std::uint16_t init) {
  std::uint16_t crc = init;
  for (std::uint8_t b : data) {
    crc = static_cast<std::uint16_t>((crc << 8) ^ kTable[(crc >> 8) ^ b]);
  }
  return crc;
}

}  // namespace bansim::net
