#include "core/config_io.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <map>
#include <sstream>

namespace bansim::core {

namespace {

std::string trim(const std::string& s) {
  const auto begin = s.find_first_not_of(" \t\r");
  if (begin == std::string::npos) return "";
  const auto end = s.find_last_not_of(" \t\r");
  return s.substr(begin, end - begin + 1);
}

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return s;
}

double to_double(const std::string& key, const std::string& value) {
  try {
    std::size_t used = 0;
    const double v = std::stod(value, &used);
    if (used != value.size()) throw ConfigError("");
    return v;
  } catch (...) {
    throw ConfigError("bad numeric value for " + key + ": " + value);
  }
}

sim::Duration from_unit(double v, std::string_view name) {
  if (name.ends_with("_us")) return sim::Duration::from_microseconds(v);
  if (name.ends_with("_ms")) return sim::Duration::from_milliseconds(v);
  throw std::logic_error("time key without a unit suffix: " +
                         std::string(name));
}

bool to_bool(const std::string& key, const std::string& value) {
  const std::string v = lower(value);
  if (v == "true" || v == "1" || v == "yes" || v == "on") return true;
  if (v == "false" || v == "0" || v == "no" || v == "off") return false;
  throw ConfigError("bad boolean value for " + key + ": " + value);
}

ConfigError line_error(int line_no, const std::string& what) {
  return ConfigError("line " + std::to_string(line_no) + ": " + what);
}

/// Matches `token` against the to_string() spellings of `values`; the error
/// names the token and lists every accepted spelling.
template <typename E, std::size_t N>
E parse_token(const std::string& token, const char* what,
              const E (&values)[N]) {
  const std::string v = lower(trim(token));
  std::string expected;
  for (const E e : values) {
    if (v == to_string(e)) return e;
    expected += expected.empty() ? "" : " | ";
    expected += to_string(e);
  }
  throw ConfigError("unknown " + std::string(what) + " '" + token +
                    "' (expected " + expected + ")");
}

}  // namespace

sim::Duration to_duration(const std::string& key, const std::string& value) {
  const double v = to_double(key, value);
  // from_unit's cast to int64 ns is undefined for NaN, for infinities and
  // for magnitudes of 2^63 ns or more.
  const double ns = v * (key.ends_with("_us") ? 1e3 : 1e6);
  if (!(std::fabs(ns) < 0x1p63)) {
    throw ConfigError("bad duration for " + key + ": " + value +
                      " (not finite, or beyond 2^63 ns)");
  }
  return from_unit(v, key);
}

AppKind parse_app_kind(const std::string& token) {
  using enum AppKind;
  return parse_token(token, "app kind",
                     {kNone, kEcgStreaming, kRpeak, kEegMonitoring});
}

mac::Protocol parse_mac_protocol(const std::string& token) {
  using enum mac::Protocol;
  return parse_token(token, "mac protocol",
                     {kStaticTdma, kDynamicTdma, kAloha, kCsmaCa});
}

mac::Protocol parse_tdma_variant(const std::string& token) {
  const std::string v = lower(trim(token));
  if (v == "static") return mac::Protocol::kStaticTdma;
  if (v == "dynamic") return mac::Protocol::kDynamicTdma;
  throw ConfigError("unknown tdma variant '" + token +
                    "' (expected static | dynamic)");
}

Fidelity parse_fidelity(const std::string& token) {
  using enum Fidelity;
  return parse_token(token, "fidelity", {kReference, kModel});
}

fault::FaultKind parse_fault_kind(const std::string& token) {
  using enum fault::FaultKind;
  return parse_token(token, "fault kind", {kCrash, kRadioLockup, kSkewStep});
}

hw::StorageKind parse_storage_kind(const std::string& token) {
  using enum hw::StorageKind;
  return parse_token(token, "storage kind", {kBattery, kCapacitor});
}

hw::HarvestParams::Profile parse_harvest_profile(const std::string& token) {
  using enum hw::HarvestParams::Profile;
  return parse_token(token, "harvest profile", {kConstant, kSine, kSquare});
}

void apply_static_cycle(BanConfig& config, sim::Duration cycle) {
  if (config.protocol == mac::Protocol::kDynamicTdma) return;
  config.tdma.slot =
      mac::TdmaConfig::static_plan(cycle, config.tdma.max_slots).slot;
}

namespace {

using apps::EcgConfig, apps::EegAppConfig, apps::RpeakConfig,
    apps::StreamingConfig;
using fault::BrownoutParams, fault::CrashProcess, fault::FadeParams,
    fault::FaultEvent, fault::FaultPlan, fault::InterfererParams,
    fault::ShadowEpisode;
using hw::BatteryParams, hw::CapacitorParams, hw::HarvestParams,
    hw::StorageParams;
using mac::AlohaConfig, mac::CsmaConfig, mac::TdmaConfig;
using phy::LinkBudget;

/// Parse state beyond the fields themselves.
struct Ctx {
  std::string key{};  ///< "section.key", as error messages name it
  int line_no{0};
  /// [tdma] cycle_ms, applied once max_slots and the protocol are known.
  std::optional<sim::Duration> static_cycle{};
  bool nodes_set{false};
  /// [mac] protocol and [tdma] variant as read; parse_config resolves them
  /// once the whole file is read.
  std::optional<mac::Protocol> protocol{};
  std::optional<mac::Protocol> variant{};
};

struct Key;

/// One value crossing the INI boundary, and whose it is: the config's, or
/// node K's / one indexed fault section's inside it.
struct Io {
  const Key& key;
  std::string& text;  ///< the value: parsed when `reading`, else appended
  Ctx* reading;
  BanConfig& config;
  NodeSpec* node{nullptr};
  void* indexed{nullptr};  ///< the ShadowEpisode or FaultEvent
};

/// Moves one value between text and config; false when nothing is written
/// (an unset override, or a key its section's state leaves out).
using Codec = bool (*)(Io&);

struct Key {
  std::string_view section;
  std::string_view name;  ///< a time key's suffix (_ms or _us) is its unit
  Codec io;
  bool per_node{false};  ///< also accepted in [node.K] as "section.name"
};

/// Appends `shown` at the stream default of 6 significant digits when that
/// text reads back as the same field value (`same`), else with the fewest
/// digits that do: round values keep their bytes, every field round-trips.
template <typename Same>
void put_number(std::string& out, double shown, Same same) {
  char text[32];
  char* end = text;
  for (int digits = 6; digits <= 17; ++digits) {
    end = std::to_chars(text, text + sizeof text, shown,
                        std::chars_format::general, digits).ptr;
    double back = 0.0;
    std::from_chars(text, end, back);
    if (same(back)) break;
  }
  out.append(text, end);
}

template <typename T> struct Unwrap { using type = T; };
template <typename T> struct Unwrap<std::optional<T>> { using type = T; };

template <typename T>
T decode(const Io& io) {
  const std::string& key = io.reading->key;
  if constexpr (std::is_same_v<T, bool>) {
    return to_bool(key, io.text);
  } else if constexpr (std::is_same_v<T, double>) {
    return to_double(key, io.text);
  } else if constexpr (std::is_integral_v<T>) {
    return to_int<T>(key, io.text);
  } else if constexpr (std::is_same_v<T, AppKind>) {
    return parse_app_kind(io.text);
  } else if constexpr (std::is_same_v<T, Fidelity>) {
    return parse_fidelity(io.text);
  } else if constexpr (std::is_same_v<T, fault::FaultKind>) {
    return parse_fault_kind(io.text);
  } else if constexpr (std::is_same_v<T, hw::StorageKind>) {
    return parse_storage_kind(io.text);
  } else if constexpr (std::is_same_v<T, HarvestParams::Profile>) {
    return parse_harvest_profile(io.text);
  } else if constexpr (std::is_same_v<T, sim::Duration>) {
    return to_duration(key, io.text);
  } else {
    return sim::TimePoint::zero() + decode<sim::Duration>(io);
  }
}

template <typename T>
void encode(const T& v, Io& io) {
  if constexpr (std::is_same_v<T, bool>) {
    io.text += v ? "true" : "false";
  } else if constexpr (std::is_same_v<T, double>) {
    put_number(io.text, v, [&](double x) { return x == v; });
  } else if constexpr (std::is_integral_v<T>) {
    io.text += std::to_string(v);
  } else if constexpr (std::is_enum_v<T>) {
    io.text += to_string(v);
  } else if constexpr (std::is_same_v<T, sim::Duration>) {
    const bool us = io.key.name.ends_with("_us");
    put_number(io.text, us ? v.to_microseconds() : v.to_milliseconds(),
               [&](double x) { return from_unit(x, io.key.name) == v; });
  } else {
    encode(v.since_epoch(), io);
  }
}

/// Reads or writes `field`; an unset optional writes nothing.
template <typename T>
bool transfer(T& field, Io& io) {
  if (io.reading) {
    field = decode<typename Unwrap<T>::type>(io);
  } else if constexpr (std::is_same_v<T, typename Unwrap<T>::type>) {
    encode(field, io);
  } else {
    if (!field) return false;
    encode(*field, io);
  }
  return true;
}

template <typename C> C* as(void* p) { return static_cast<C*>(p); }

/// The struct of type C the key belongs to.  Inside [node.K] a per-node
/// group is node K's own copy, seeded from the global one when a key is
/// read into it (null when writing a node without one).
template <typename C>
C* root_of(Io& io) {
  using std::is_same_v;
  BanConfig& c = io.config;
  FaultPlan& plan = c.fault_plan;
  const auto own = [&io](auto NodeSpec::*copy, auto& global) {
    if (io.node == nullptr) return &global;
    auto& mine = io.node->*copy;
    if (!mine && io.reading) mine = global;
    return mine ? &*mine : nullptr;
  };
  if constexpr (is_same_v<C, NodeSpec>) return io.node;
  else if constexpr (is_same_v<C, ShadowEpisode>) return as<C>(io.indexed);
  else if constexpr (is_same_v<C, FaultEvent>) return as<C>(io.indexed);
  else if constexpr (is_same_v<C, BanConfig>) return &c;
  else if constexpr (is_same_v<C, TdmaConfig>) return &c.tdma;
  else if constexpr (is_same_v<C, AlohaConfig>) return &c.aloha;
  else if constexpr (is_same_v<C, CsmaConfig>) return &c.csma;
  else if constexpr (is_same_v<C, EegAppConfig>) return &c.eeg;
  else if constexpr (is_same_v<C, LinkBudget>) return &c.link_budget;
  else if constexpr (is_same_v<C, FaultPlan>) return &plan;
  else if constexpr (is_same_v<C, FadeParams>) return &plan.fade;
  else if constexpr (is_same_v<C, InterfererParams>) return &plan.interferer;
  else if constexpr (is_same_v<C, CrashProcess>) return &plan.crashes;
  else if constexpr (is_same_v<C, BrownoutParams>) return &plan.brownout;
  else if constexpr (is_same_v<C, StreamingConfig>) {
    return own(&NodeSpec::streaming, c.streaming);
  } else if constexpr (is_same_v<C, RpeakConfig>) {
    return own(&NodeSpec::rpeak, c.rpeak);
  } else if constexpr (is_same_v<C, EcgConfig>) {
    return own(&NodeSpec::ecg, c.ecg);
  } else {
    StorageParams* store = own(&NodeSpec::storage, c.storage);
    if (store == nullptr) return nullptr;
    if constexpr (is_same_v<C, StorageParams>) return store;
    else if constexpr (is_same_v<C, BatteryParams>) return &store->battery;
    else if constexpr (is_same_v<C, CapacitorParams>) return &store->capacitor;
    else return &store->harvest;
  }
}

template <typename C, typename M> C class_of(M C::*);

/// The codec of the field at member path First.Rest...; the field's type
/// picks the value format.
template <auto First, auto... Rest>
bool field(Io& io) {
  auto* root = root_of<decltype(class_of(First))>(io);
  return root != nullptr && transfer(((root->*First) .* ... .* Rest), io);
}

// Keys that do more than move one value.

/// [network] nodes also bounds the [node.K] indices; it writes the node
/// count the config has (the roster length, when there is one).
bool nodes(Io& io) {
  if (!io.reading) {
    std::size_t count = io.config.effective_nodes();
    return transfer(count, io);
  }
  io.reading->nodes_set = true;
  transfer(io.config.num_nodes, io);
  if (io.config.num_nodes > kMaxNodes) {
    throw line_error(io.reading->line_no,
                     "'network.nodes' = " + io.text + " exceeds the " +
                         std::to_string(kMaxNodes) + "-node limit");
  }
  return true;
}

/// The [tdma] variant spelling of a TDMA protocol.
const char* variant_name(mac::Protocol protocol) {
  return protocol == mac::Protocol::kStaticTdma ? "static" : "dynamic";
}

/// [mac] protocol names the cell's MAC (a TDMA cell writes [tdma] variant
/// instead).  The protocol is cell-wide, so [node.K] may only restate it
/// (mixed-protocol cells would need per-node radios the channel model does
/// not arbitrate).
bool protocol(Io& io) {
  const mac::Protocol cell = io.config.protocol;
  if (!io.reading) {
    if (io.node == nullptr) io.text += mac::to_string(cell);
    return io.node == nullptr;
  }
  const mac::Protocol parsed = parse_mac_protocol(io.text);
  if (io.node == nullptr) {
    io.reading->protocol = parsed;
  } else if (parsed != cell) {
    throw line_error(io.reading->line_no,
                     "'" + io.reading->key +
                         "' conflicts with the cell protocol '" +
                         mac::to_string(cell) +
                         "' (the protocol is cell-wide; set it once under "
                         "[mac])");
  }
  return true;
}

/// [tdma] variant = static | dynamic: a TDMA cell's protocol.
bool variant(Io& io) {
  if (io.reading) {
    io.reading->variant = parse_tdma_variant(io.text);
    return true;
  }
  if (mac::is_contention(io.config.protocol)) return false;
  io.text += variant_name(io.config.protocol);
  return true;
}

/// [tdma] cycle_ms waits for the whole file (max_slots and the protocol may
/// follow it); a dynamic_tdma cell has no fixed cycle to write.
bool cycle(Io& io) {
  if (io.reading) {
    io.reading->static_cycle = to_duration(io.reading->key, io.text);
    return true;
  }
  sim::Duration span = io.config.tdma.static_cycle();
  return io.config.protocol != mac::Protocol::kDynamicTdma &&
         transfer(span, io);
}

/// [eeg] channels sizes the synthesizer as well as the app.
bool eeg_channels(Io& io) {
  transfer(io.config.eeg.channels, io);
  if (io.reading) io.config.eeg_signal.channels = io.config.eeg.channels;
  return true;
}

// Keys written only where they apply.
bool crash_down(Io& io) {
  auto& event = *as<FaultEvent>(io.indexed);
  return (io.reading || event.kind == fault::FaultKind::kCrash) &&
         transfer(event.down, io);
}
bool skew_delta(Io& io) {
  auto& event = *as<FaultEvent>(io.indexed);
  return (io.reading || event.kind == fault::FaultKind::kSkewStep) &&
         transfer(event.skew_delta, io);
}
bool address(Io& io) {
  return (io.reading || io.node->address != 0) &&
         transfer(io.node->address, io);
}

constexpr bool kPerNode = true;

// The INI schema: every key parse_config accepts, in the order
// serialize_config writes them.
constexpr Key kKeys[] = {
    {"network", "nodes", nodes},
    {"network", "seed", field<&BanConfig::seed>},
    {"network", "stagger_ms", field<&BanConfig::stagger>},
    {"network", "app", field<&BanConfig::app>},
    {"mac", "protocol", protocol},

    {"tdma", "variant", variant},
    {"tdma", "cycle_ms", cycle},
    {"tdma", "slot_ms", field<&TdmaConfig::slot>},
    {"tdma", "max_slots", field<&TdmaConfig::max_slots>},
    {"tdma", "guard_fixed_ms", field<&TdmaConfig::guard_fixed>},
    {"tdma", "guard_fraction", field<&TdmaConfig::guard_fraction>},
    {"tdma", "fast_grant", field<&TdmaConfig::fast_grant>},
    {"tdma", "ack_data", field<&TdmaConfig::ack_data>},
    {"tdma", "max_retries", field<&TdmaConfig::max_retries>},
    {"tdma", "radio_power_down", field<&TdmaConfig::radio_power_down>},
    {"tdma", "reclaim_after_cycles", field<&TdmaConfig::reclaim_after_cycles>},
    {"tdma", "missed_beacon_limit", field<&TdmaConfig::missed_beacon_limit>},
    {"tdma", "tx_queue_cap", field<&TdmaConfig::tx_queue_cap>},
    {"tdma", "search_listen_ms", field<&TdmaConfig::search_listen>},
    {"tdma", "search_backoff_base_ms", field<&TdmaConfig::search_backoff_base>},
    {"tdma", "search_backoff_factor",
     field<&TdmaConfig::search_backoff_factor>},
    {"tdma", "search_backoff_max_ms", field<&TdmaConfig::search_backoff_max>},

    {"aloha", "initial_dither_ms", field<&AlohaConfig::initial_dither>},
    {"aloha", "ack_data", field<&AlohaConfig::ack_data>},
    {"aloha", "ack_wait_ms", field<&AlohaConfig::ack_wait>},
    {"aloha", "max_retries", field<&AlohaConfig::max_retries>},
    {"aloha", "backoff_base_ms", field<&AlohaConfig::backoff_base>},

    {"csma", "pan_id", field<&CsmaConfig::pan_id>},
    {"csma", "cycle_ms", field<&CsmaConfig::cycle>},
    {"csma", "backoff_unit_us", field<&CsmaConfig::backoff_unit>},
    {"csma", "min_be", field<&CsmaConfig::min_be>},
    {"csma", "max_be", field<&CsmaConfig::max_be>},
    {"csma", "max_backoffs", field<&CsmaConfig::max_backoffs>},
    {"csma", "cca_us", field<&CsmaConfig::cca>},
    {"csma", "ack_data", field<&CsmaConfig::ack_data>},
    {"csma", "ack_wait_ms", field<&CsmaConfig::ack_wait>},
    {"csma", "max_retries", field<&CsmaConfig::max_retries>},
    {"csma", "gts_slots", field<&CsmaConfig::gts_slots>},
    {"csma", "gts_slot_ms", field<&CsmaConfig::gts_slot>},
    {"csma", "guard_fixed_ms", field<&CsmaConfig::guard_fixed>},
    {"csma", "guard_fraction", field<&CsmaConfig::guard_fraction>},
    {"csma", "missed_beacon_limit", field<&CsmaConfig::missed_beacon_limit>},
    {"csma", "beacon_timeout_margin_us",
     field<&CsmaConfig::beacon_timeout_margin>},
    {"csma", "tx_queue_cap", field<&CsmaConfig::tx_queue_cap>},

    {"streaming", "sample_rate_hz", field<&StreamingConfig::sample_rate_hz>,
     kPerNode},
    {"streaming", "payload_bytes", field<&StreamingConfig::payload_bytes>,
     kPerNode},
    {"rpeak", "sample_rate_hz", field<&RpeakConfig::sample_rate_hz>, kPerNode},
    {"ecg", "heart_rate_bpm", field<&EcgConfig::heart_rate_bpm>, kPerNode},
    {"eeg", "channels", eeg_channels},
    {"eeg", "sample_rate_hz", field<&EegAppConfig::sample_rate_hz>},
    {"eeg", "block_samples", field<&EegAppConfig::block_samples>},
    {"link", "enabled", field<&BanConfig::use_link_model>},
    {"link", "tx_power_dbm", field<&LinkBudget::tx_power_dbm>},
    {"link", "path_loss_exponent", field<&LinkBudget::path_loss_exponent>},
    {"link", "shadowing_sigma_db", field<&LinkBudget::shadowing_sigma_db>},

    {"fault", "enabled", field<&FaultPlan::enabled>},
    {"fault.fade", "enabled", field<&FadeParams::enabled>},
    {"fault.fade", "p_enter", field<&FadeParams::p_enter>},
    {"fault.fade", "p_exit", field<&FadeParams::p_exit>},
    {"fault.fade", "step_ms", field<&FadeParams::step>},
    {"fault.fade", "extra_loss_db", field<&FadeParams::extra_loss_db>},
    {"fault.fade", "fer", field<&FadeParams::fer>},
    {"fault.interferer", "enabled", field<&InterfererParams::enabled>},
    {"fault.interferer", "period_ms", field<&InterfererParams::period>},
    {"fault.interferer", "burst_ms", field<&InterfererParams::burst>},
    {"fault.interferer", "fer", field<&InterfererParams::fer>},
    {"fault.crashes", "enabled", field<&CrashProcess::enabled>},
    {"fault.crashes", "rate_hz", field<&CrashProcess::rate_hz>},
    {"fault.crashes", "check_ms", field<&CrashProcess::check>},
    {"fault.crashes", "min_down_ms", field<&CrashProcess::min_down>},
    {"fault.crashes", "max_down_ms", field<&CrashProcess::max_down>},
    {"fault.brownout", "enabled", field<&BrownoutParams::enabled>},
    {"fault.brownout", "capacity_mah", field<&BrownoutParams::capacity_mah>},
    {"fault.brownout", "esr_ohms", field<&BrownoutParams::esr_ohms>},
    {"fault.brownout", "brownout_volts", field<&BrownoutParams::brownout_volts>},
    {"fault.brownout", "check_ms", field<&BrownoutParams::check>},
    {"fault.brownout", "recovery_ms", field<&BrownoutParams::recovery>},
    {"fault.episode", "node", field<&ShadowEpisode::node>},
    {"fault.episode", "start_ms", field<&ShadowEpisode::start>},
    {"fault.episode", "duration_ms", field<&ShadowEpisode::duration>},
    {"fault.episode", "extra_loss_db", field<&ShadowEpisode::extra_loss_db>},
    {"fault.episode", "fer", field<&ShadowEpisode::fer>},
    {"fault.event", "kind", field<&FaultEvent::kind>},
    {"fault.event", "node", field<&FaultEvent::node>},
    {"fault.event", "at_ms", field<&FaultEvent::at>},
    {"fault.event", "down_ms", crash_down},
    {"fault.event", "skew_delta", skew_delta},

    {"storage", "enabled", field<&StorageParams::enabled>, kPerNode},
    {"storage", "kind", field<&StorageParams::kind>, kPerNode},
    {"storage", "check_ms", field<&StorageParams::check>},
    {"battery", "capacity_mah", field<&BatteryParams::capacity_mah>, kPerNode},
    {"battery", "nominal_volts", field<&BatteryParams::nominal_volts>},
    {"battery", "full_volts", field<&BatteryParams::full_volts>},
    {"battery", "empty_volts", field<&BatteryParams::empty_volts>},
    {"battery", "dead_volts", field<&BatteryParams::dead_volts>},
    {"battery", "rated_c", field<&BatteryParams::rated_c>},
    {"battery", "peukert_exponent", field<&BatteryParams::peukert_exponent>},
    {"capacitor", "capacitance_f",
     field<&CapacitorParams::capacitance_farads>, kPerNode},
    {"capacitor", "full_volts", field<&CapacitorParams::full_volts>},
    {"capacitor", "turnoff_volts", field<&CapacitorParams::turnoff_volts>},
    {"capacitor", "turnon_volts", field<&CapacitorParams::turnon_volts>},
    {"harvest", "enabled", field<&HarvestParams::enabled>, kPerNode},
    {"harvest", "profile", field<&HarvestParams::profile>},
    {"harvest", "watts", field<&HarvestParams::watts>, kPerNode},
    {"harvest", "floor_watts", field<&HarvestParams::floor_watts>},
    {"harvest", "period_ms", field<&HarvestParams::period>},
    {"harvest", "duty", field<&HarvestParams::duty>},
    {"harvest", "phase_ms", field<&HarvestParams::phase>},

    {"node", "app", field<&NodeSpec::app>},
    {"node", "address", address},
    {"node", "clock_skew", field<&NodeSpec::clock_skew>},
    {"node", "boot_ms", field<&NodeSpec::boot_offset>},
    {"node", "fidelity", field<&NodeSpec::fidelity>},
    {"node", "protocol", protocol},
    {"node", "csma_gts", field<&NodeSpec::csma_gts>},
};

const Key* find_key(std::string_view section, std::string_view name) {
  for (const Key& k : kKeys) {
    if (k.name == name && k.section == section) return &k;
  }
  return nullptr;
}

/// A [node.K] key: a node field, or "section.name" of a per-node global.
const Key* find_node_key(std::string_view name) {
  if (const Key* k = find_key("node", name)) return k;
  const auto dot = name.find('.');
  if (dot == std::string_view::npos) return nullptr;
  const Key* k = find_key(name.substr(0, dot), name.substr(dot + 1));
  return k != nullptr && k->per_node ? k : nullptr;
}

/// Whether serialize_config writes keys of `section` (inside node K's
/// section when `node` is set): sections of unused MACs and of disabled
/// fault/storage features stay out, so configs that do not use them dump
/// the bytes they did before those features existed.
bool shown(std::string_view s, const BanConfig& c, const NodeSpec* node) {
  const FaultPlan& plan = c.fault_plan;
  if (s == "mac") return mac::is_contention(c.protocol);
  if (s == "aloha") return c.protocol == mac::Protocol::kAloha;
  if (s == "csma") return c.protocol == mac::Protocol::kCsmaCa;
  if (s.starts_with("fault")) {
    if (!plan.enabled) return false;
    if (s == "fault.fade") return plan.fade.enabled;
    if (s == "fault.interferer") return plan.interferer.enabled;
    if (s == "fault.crashes") return plan.crashes.enabled;
    return s != "fault.brownout" || plan.brownout.enabled;
  }
  if (s != "storage" && s != "battery" && s != "capacitor" && s != "harvest") {
    return true;
  }
  // A [node.K] storage override is written whole, enabled or not.
  if (node != nullptr && !node->storage) return false;
  const StorageParams* store = node != nullptr ? &*node->storage : &c.storage;
  if (node == nullptr && !store->enabled) return false;
  if (s == "battery") return store->kind == hw::StorageKind::kBattery;
  if (s == "capacitor") return store->kind == hw::StorageKind::kCapacitor;
  if (s != "harvest" || store->harvest.enabled) return true;
  // A node's override starts from the global store on reparse, so its
  // disabled harvest must be written whenever the global one is.
  return node != nullptr && shown(s, c, nullptr);
}

/// One buffered `[node.K]` assignment; applied after the whole file is
/// read so per-node overrides see the final global defaults.
struct NodeAssignment {
  std::size_t index;  ///< 1-based
  std::string key;
  std::string value;
  int line_no;
};

}  // namespace

BanConfig parse_config(const std::string& text) {
  BanConfig config;
  Ctx ctx;
  std::vector<NodeAssignment> node_assignments;
  std::size_t max_node_index = 0;
  // Indexed fault sections, keyed so [fault.episode.2] may precede
  // [fault.episode.1] in the file; flattened in index order afterwards.
  std::map<std::size_t, ShadowEpisode> fault_episodes;
  std::map<std::size_t, FaultEvent> fault_events;

  std::istringstream stream{text};
  std::string line;
  std::string section;
  std::string_view scope;  ///< the table section keys are looked up in
  std::size_t number = 0;  ///< K of [node.K], [fault.episode.K], ...
  int line_no = 0;
  // The 1-based K of [<scope>.K].
  const auto section_index = [&] {
    const bool node = scope == "node";
    std::size_t k = 0;
    try {
      k = to_int<std::size_t>("section index",
                              section.substr(scope.size() + 1));
    } catch (const ConfigError&) {
      throw line_error(line_no, (node ? "bad node section ["
                                      : "bad section index in [") +
                                    section + "]");
    }
    if (k == 0) {
      throw line_error(line_no,
                       node ? "node sections are 1-based ([node.1], ...)"
                            : "[" + section + "] sections are 1-based");
    }
    if (node && k > kMaxNodes) {
      throw line_error(line_no, "[" + section + "] exceeds the " +
                                    std::to_string(kMaxNodes) + "-node limit");
    }
    return k;
  };
  while (std::getline(stream, line)) {
    ++line_no;
    const auto comment = line.find_first_of(";#");
    if (comment != std::string::npos) line = line.substr(0, comment);
    line = trim(line);
    if (line.empty()) continue;
    if (line.front() == '[') {
      if (line.back() != ']') {
        throw line_error(line_no, "malformed section header");
      }
      section = lower(trim(line.substr(1, line.size() - 2)));
      scope = section;
      number = 0;
      for (const std::string_view base :
           {"node", "fault.episode", "fault.event"}) {
        // An indexed section's keys are unknown without its index.
        if (section == base) scope = {};
        if (section.starts_with(base) && section[base.size()] == '.') {
          scope = base;
          number = section_index();
        }
      }
      if (scope == "node") max_node_index = std::max(max_node_index, number);
      continue;
    }
    const auto eq = line.find('=');
    if (eq == std::string::npos) {
      throw line_error(line_no, "expected key = value");
    }
    const std::string key = lower(trim(line.substr(0, eq)));
    std::string value = trim(line.substr(eq + 1));

    if (scope == "node") {
      node_assignments.push_back({number, key, value, line_no});
      continue;
    }
    ctx.key = section + "." + key;
    ctx.line_no = line_no;
    const Key* k = find_key(scope, key);
    if (k == nullptr) {
      throw line_error(line_no, "unknown key '" + ctx.key + "'");
    }
    void* indexed_section = nullptr;
    if (scope == "fault.episode") indexed_section = &fault_episodes[number];
    if (scope == "fault.event") indexed_section = &fault_events[number];
    Io io{*k, value, &ctx, config, nullptr, indexed_section};
    k->io(io);
  }

  // Beside a contention protocol the variant selects nothing: a switch to
  // TDMA names its own.
  if (ctx.protocol && ctx.variant && !mac::is_contention(*ctx.protocol) &&
      *ctx.protocol != *ctx.variant) {
    throw ConfigError("'mac.protocol' = " +
                      std::string(mac::to_string(*ctx.protocol)) +
                      " conflicts with 'tdma.variant' = " +
                      variant_name(*ctx.variant));
  }
  config.protocol =
      ctx.protocol.value_or(ctx.variant.value_or(config.protocol));
  if (ctx.static_cycle) apply_static_cycle(config, *ctx.static_cycle);

  // Resolve the roster last so [node.K] overrides see the final globals no
  // matter where the sections appear in the file.
  if (max_node_index > 0) {
    if (ctx.nodes_set && max_node_index > config.num_nodes) {
      throw ConfigError("[node." + std::to_string(max_node_index) +
                        "] exceeds network.nodes = " +
                        std::to_string(config.num_nodes));
    }
    config.roster.assign(ctx.nodes_set ? config.num_nodes : max_node_index,
                         NodeSpec{});
    for (NodeAssignment& a : node_assignments) {
      ctx.key = "node." + std::to_string(a.index) + "." + a.key;
      ctx.line_no = a.line_no;
      const Key* k = find_node_key(a.key);
      if (k == nullptr) {
        throw line_error(a.line_no, "unknown key '" + ctx.key + "'");
      }
      Io io{*k, a.value, &ctx, config, &config.roster[a.index - 1]};
      k->io(io);
    }
  }

  for (const auto& [index, episode] : fault_episodes) {
    config.fault_plan.episodes.push_back(episode);
  }
  for (const auto& [index, event] : fault_events) {
    config.fault_plan.events.push_back(event);
  }

  // Reject nonsense before it becomes a mysteriously-degenerate run.
  const auto reject = [](const std::string& where, const std::string& problem) {
    if (!problem.empty()) throw ConfigError(where + problem);
  };
  reject("[tdma] ",
         config.tdma.validate(config.protocol == mac::Protocol::kStaticTdma));
  if (config.protocol == mac::Protocol::kCsmaCa) {
    try {
      config.csma.validate();
    } catch (const std::invalid_argument& e) {
      reject("[csma] ", e.what());
    }
  }
  reject("", config.fault_plan.validate());
  reject("", config.storage.validate());
  for (std::size_t i = 0; i < config.roster.size(); ++i) {
    if (!config.roster[i].storage) continue;
    reject("[node." + std::to_string(i + 1) + "] ",
           config.roster[i].storage->validate());
  }
  return config;
}

std::string serialize_config(const BanConfig& config) {
  BanConfig source = config;  // the codecs take a mutable config; writing
                              // only reads it
  std::string out;
  std::string header;  ///< opened before the section's first written key
  const auto put = [&](const Key& k, NodeSpec* node, void* indexed_section) {
    if (!shown(k.section, source, node)) return;
    const std::size_t mark = out.size();
    if (!header.empty()) {
      out += mark == 0 ? "[" : "\n[";
      out += header;
      out += "]\n";
    }
    if (node != nullptr && k.section != "node") (out += k.section) += '.';
    (out += k.name) += " = ";
    Io io{k, out, nullptr, source, node, indexed_section};
    if (!k.io(io)) {
      out.resize(mark);  // nothing to write; the header stays pending
      return;
    }
    header.clear();
    out += '\n';
  };

  FaultPlan& plan = source.fault_plan;
  for (const Key* first = std::begin(kKeys); first != std::end(kKeys);) {
    const Key* last = std::find_if(first, std::end(kKeys), [&](const Key& k) {
      return k.section != first->section;
    });
    const std::string section{first->section};
    const auto write = [&](std::string name, NodeSpec* node, void* indexed) {
      header = std::move(name);
      for (const Key* k = first; k != last; ++k) put(*k, node, indexed);
    };
    const auto numbered = [&](std::size_t i) {
      return section + "." + std::to_string(i + 1);
    };
    if (section == "fault.episode") {
      for (std::size_t i = 0; i < plan.episodes.size(); ++i) {
        write(numbered(i), nullptr, &plan.episodes[i]);
      }
    } else if (section == "fault.event") {
      for (std::size_t i = 0; i < plan.events.size(); ++i) {
        write(numbered(i), nullptr, &plan.events[i]);
      }
    } else if (section == "node") {
      // Every roster entry gets its section, overrides or not: the section
      // count is the roster length.
      for (std::size_t i = 0; i < source.roster.size(); ++i) {
        NodeSpec& node = source.roster[i];
        out += "\n[" + numbered(i) + "]\n";
        write("", &node, nullptr);
        for (const Key& k : kKeys) {
          if (k.per_node) put(k, &node, nullptr);
        }
      }
    } else {
      write(section, nullptr, nullptr);
    }
    first = last;
  }
  return out;
}

std::vector<ConfigKey> config_keys() {
  std::vector<ConfigKey> keys;
  for (const Key& k : kKeys) keys.push_back({k.section, k.name, k.per_node});
  return keys;
}

}  // namespace bansim::core
