// Delta compression for biopotential sample blocks.
//
// EEG/ECG waveforms move slowly relative to the 12-bit ADC range, so
// consecutive codes differ by a few counts.  The encoder stores the first
// sample verbatim (2 bytes) and each later sample as a signed 8-bit delta;
// a delta outside [-127, 127] emits the 0x80 escape followed by the full
// 2-byte code.  Lossless, byte-oriented, and cheap enough for the MSP430 —
// the kind of on-node preprocessing the paper advocates to unload the
// radio.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace bansim::apps {

/// Encodes 12-bit codes (upper bits ignored) into the delta stream.
[[nodiscard]] std::vector<std::uint8_t> delta_encode(
    std::span<const std::uint16_t> codes);

/// Decodes a delta stream; nullopt on malformed input (truncated escape,
/// empty-but-nonzero stream).
[[nodiscard]] std::optional<std::vector<std::uint16_t>> delta_decode(
    std::span<const std::uint8_t> bytes);

}  // namespace bansim::apps
