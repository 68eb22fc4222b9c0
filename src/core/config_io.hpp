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
//   variant = static           ; static | dynamic
//   cycle_ms = 30              ; static: full cycle (slot derived)
//   slot_ms = 10               ; dynamic: slot width
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

#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/ban_network.hpp"

namespace bansim::core {

class ConfigError : public std::runtime_error {
 public:
  explicit ConfigError(const std::string& message)
      : std::runtime_error(message) {}
};

// Enum parsing, shared by the file parser and the CLI so every entry
// point rejects unknown tokens the same way.  Each throws ConfigError
// naming the offending token and the accepted values.
[[nodiscard]] AppKind parse_app_kind(const std::string& token);
[[nodiscard]] mac::Protocol parse_mac_protocol(const std::string& token);
[[nodiscard]] mac::TdmaVariant parse_tdma_variant(const std::string& token);
[[nodiscard]] Fidelity parse_fidelity(const std::string& token);
[[nodiscard]] fault::FaultKind parse_fault_kind(const std::string& token);
[[nodiscard]] hw::StorageKind parse_storage_kind(const std::string& token);
[[nodiscard]] hw::HarvestParams::Profile parse_harvest_profile(
    const std::string& token);

/// Routes a parsed protocol into BanConfig (the TDMA variants fold into
/// MacKind::kTdma + TdmaConfig::variant) — shared by the file parser, the
/// bansim_cli --protocol override, and the campaign orchestrator's
/// protocol-sweep variants so a protocol override means the same thing at
/// every entry point.
void apply_mac_protocol(BanConfig& config, mac::Protocol protocol);

/// Sets the static-TDMA slot width so the cycle (beacon slot plus
/// max_slots data slots) lasts `cycle`, keeping every other field; a no-op
/// for the dynamic variant, whose slot width is its own parameter.  Shared
/// by `tdma.cycle_ms` and the bansim_cli cycle overrides.
void apply_static_cycle(mac::TdmaConfig& tdma, sim::Duration cycle);

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
