#include "apps/delta_codec.hpp"

namespace bansim::apps {

namespace {
constexpr std::uint8_t kEscape = 0x80;  // -128 is unused as a delta

void put_code(std::vector<std::uint8_t>& out, std::uint16_t code) {
  out.push_back(static_cast<std::uint8_t>(code >> 8));
  out.push_back(static_cast<std::uint8_t>(code & 0xFF));
}
}  // namespace

std::vector<std::uint8_t> delta_encode(std::span<const std::uint16_t> codes) {
  std::vector<std::uint8_t> out;
  if (codes.empty()) return out;
  out.reserve(codes.size() + 2);
  std::uint16_t prev = codes.front() & 0x0FFF;
  put_code(out, prev);
  for (std::size_t i = 1; i < codes.size(); ++i) {
    const std::uint16_t code = codes[i] & 0x0FFF;
    const int delta = static_cast<int>(code) - static_cast<int>(prev);
    if (delta >= -127 && delta <= 127) {
      out.push_back(static_cast<std::uint8_t>(static_cast<std::int8_t>(delta)));
    } else {
      out.push_back(kEscape);
      put_code(out, code);
    }
    prev = code;
  }
  return out;
}

std::optional<std::vector<std::uint16_t>> delta_decode(
    std::span<const std::uint8_t> bytes) {
  std::vector<std::uint16_t> out;
  if (bytes.empty()) return out;
  if (bytes.size() < 2) return std::nullopt;
  std::uint16_t prev = static_cast<std::uint16_t>((bytes[0] << 8) | bytes[1]);
  if (prev > 0x0FFF) return std::nullopt;
  out.push_back(prev);
  std::size_t i = 2;
  while (i < bytes.size()) {
    if (bytes[i] == kEscape) {
      if (i + 2 >= bytes.size()) return std::nullopt;
      prev = static_cast<std::uint16_t>((bytes[i + 1] << 8) | bytes[i + 2]);
      if (prev > 0x0FFF) return std::nullopt;
      i += 3;
    } else {
      const auto delta = static_cast<std::int8_t>(bytes[i]);
      const int code = static_cast<int>(prev) + delta;
      if (code < 0 || code > 0x0FFF) return std::nullopt;
      prev = static_cast<std::uint16_t>(code);
      ++i;
    }
    out.push_back(prev);
  }
  return out;
}

}  // namespace bansim::apps
