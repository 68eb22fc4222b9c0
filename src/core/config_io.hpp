// Experiment-configuration serialization (INI-style).
//
// Lets scenarios live in version-controlled text files instead of C++:
//
//   [network]
//   nodes = 5
//   app = ecg_streaming        ; none | ecg_streaming | rpeak | eeg_monitoring
//
//   [mac]
//   protocol = static_tdma     ; static_tdma | dynamic_tdma | aloha | csma_ca
//
//   [tdma]
//   variant = static           ; static | dynamic: static_tdma | dynamic_tdma
//   cycle_ms = 30              ; static: full cycle (slot derived)
//   slot_ms = 10               ; dynamic: slot width
//
// `[mac] protocol` and `[tdma] variant` are two spellings of one value,
// BanConfig::protocol; where both name a TDMA protocol they must agree.
// A contention cell's [tdma] block is the parameter set a later switch to
// TDMA (bansim_cli --protocol, a campaign's `protocols =`) runs with; that
// switch names its own variant, so a variant beside a contention protocol
// selects nothing.  The writer names the protocol once: [mac] protocol for
// a contention cell, [tdma] variant for a TDMA cell.
//
//   ; Optional per-node overrides (1-based index).  Any [node.K] section
//   ; switches the network to roster mode: node K starts from the global
//   ; defaults above and overrides only the keys it lists.
//   [node.2]
//   app = rpeak
//   rpeak.sample_rate_hz = 250
//
// The schema is one table, kKeys in config_io.cpp: each entry names a
// section, a key and the field it reads and writes.  parse_config looks
// keys up in it, serialize_config walks it in order, and a [node.K] key
// such as `battery.capacity_mah` is the matching global entry applied to
// node K's own copy.  A time key's unit is its name's suffix (_ms, _us).
// Unknown keys and unknown enum tokens are hard errors naming the offending
// token, so typos do not silently become defaults, and
// parse_config(serialize_config(c)) gives back every field of c bit for bit.
#pragma once

#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "core/ban_network.hpp"

namespace bansim::core {

class ConfigError : public std::runtime_error {
 public:
  explicit ConfigError(const std::string& message)
      : std::runtime_error(message) {}
};

// Number readers for outside text, shared with the campaign manifest.
// Each throws ConfigError naming `key` and the value.

/// Reads `value` (decimal, 0x hex or 0 octal) as a T over T's full range;
/// anything outside it is rejected, never wrapped (stoull alone would read
/// "-1" as its two's complement).
template <typename T>
[[nodiscard]] T to_int(const std::string& key, const std::string& value) {
  static_assert(std::is_unsigned_v<T>, "every integer key is unsigned");
  try {
    std::size_t used = 0;
    const unsigned long long v = std::stoull(value, &used, 0);
    if (used == value.size() && value.find('-') == std::string::npos &&
        v <= std::numeric_limits<T>::max()) {
      return static_cast<T>(v);
    }
  } catch (const std::logic_error&) {
  }
  throw ConfigError("bad integer value for " + key + ": " + value);
}

/// Reads `value` as a time in the unit `key`'s suffix names (_ms or _us).
/// A value that is not finite or lies beyond +-(2^63 - 1) ns, which a
/// Duration cannot hold, is rejected.
[[nodiscard]] sim::Duration to_duration(const std::string& key,
                                        const std::string& value);

// Enum parsing, shared by the file parser and the CLI so every entry
// point rejects unknown tokens the same way.  Each throws ConfigError
// naming the offending token and the accepted values.
[[nodiscard]] AppKind parse_app_kind(const std::string& token);
[[nodiscard]] mac::Protocol parse_mac_protocol(const std::string& token);
/// `static` | `dynamic`, the [tdma] variant spelling of a TDMA protocol.
[[nodiscard]] mac::Protocol parse_tdma_variant(const std::string& token);
[[nodiscard]] Fidelity parse_fidelity(const std::string& token);
[[nodiscard]] fault::FaultKind parse_fault_kind(const std::string& token);
[[nodiscard]] hw::StorageKind parse_storage_kind(const std::string& token);
[[nodiscard]] hw::HarvestParams::Profile parse_harvest_profile(
    const std::string& token);

/// Sets the TDMA slot width so a static cycle (beacon slot plus max_slots
/// data slots) lasts `cycle`, keeping every other field; a no-op on a
/// dynamic_tdma cell, whose slot width is its own parameter.  Shared by
/// `tdma.cycle_ms` and the bansim_cli cycle overrides.
void apply_static_cycle(BanConfig& config, sim::Duration cycle);

/// Parses INI text into a BanConfig (starting from defaults).  [node.K]
/// sections fill config.roster; global keys may appear before or after
/// them (the roster is resolved once the whole file is read).
[[nodiscard]] BanConfig parse_config(const std::string& text);

/// Serializes the fields parse_config understands, including the roster.
[[nodiscard]] std::string serialize_config(const BanConfig& config);

/// One row of the key table, for code that walks the schema.  Indexed
/// sections appear without their index ("node", "fault.episode").
struct ConfigKey {
  std::string_view section;
  std::string_view name;
  bool per_node;  ///< also accepted in [node.K] as "section.name"
};
[[nodiscard]] std::vector<ConfigKey> config_keys();

}  // namespace bansim::core
