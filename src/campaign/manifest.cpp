#include "campaign/manifest.hpp"

#include <fstream>
#include <map>
#include <optional>
#include <sstream>

#include "campaign/store.hpp"

namespace bansim::campaign {
namespace {

constexpr const char* kManifestName = "manifest.ini";
constexpr const char* kBaseConfigName = "base_config.ini";

[[nodiscard]] std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw StoreError("cannot read " + path.string());
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void write_file(const std::filesystem::path& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  if (!out) throw StoreError("cannot write " + path.string());
}

[[nodiscard]] std::vector<std::string> split_csv(const std::string& text) {
  std::vector<std::string> out;
  std::string item;
  std::istringstream in(text);
  while (std::getline(in, item, ',')) {
    const auto first = item.find_first_not_of(" \t");
    if (first == std::string::npos) continue;
    const auto last = item.find_last_not_of(" \t");
    out.push_back(item.substr(first, last - first + 1));
  }
  return out;
}

template <typename T>
[[nodiscard]] std::string join_csv(const std::vector<T>& items,
                                   const char* (*token)(T)) {
  std::string out;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i != 0) out += ",";
    out += token(items[i]);
  }
  return out;
}

/// Reads one manifest value with the INI reader's range checks: `read` is
/// core::to_int<T> for the field's type T, or core::to_duration.
template <typename Read>
[[nodiscard]] auto read_value(Read read, const std::string& key,
                              const std::string& value) {
  try {
    return read(key, value);
  } catch (const core::ConfigError& e) {
    throw StoreError(std::string("manifest: ") + e.what());
  }
}

}  // namespace

std::string CampaignSpec::validate() const {
  if (patients == 0) return "campaign: patients must be > 0";
  if (shard_size == 0) return "campaign: shard_size must be > 0";
  if (protocols.empty()) return "campaign: need at least one protocol";
  if (seeds.empty()) return "campaign: need at least one seed";
  if (fault_modes.empty()) return "campaign: need at least one fault mode";
  if (!measure.is_positive()) return "campaign: measure must be > 0";
  if (!join_deadline.is_positive()) {
    return "campaign: join_deadline must be > 0";
  }
  if (cdf_bins == 0) return "campaign: cdf_bins must be > 0";
  if (retry_budget == 0) return "campaign: retry_budget must be > 0";
  if (deadline_floor_ms == 0) {
    return "campaign: deadline_floor_ms must be > 0";
  }
  if (deadline_ceiling_ms < deadline_floor_ms) {
    return "campaign: deadline_ceiling_ms must be >= deadline_floor_ms";
  }
  if (!(deadline_factor >= 1.0)) {
    return "campaign: deadline_factor must be >= 1";
  }
  return "";
}

std::string VariantSpec::label() const {
  std::ostringstream out;
  out << mac::to_string(protocol) << "/s" << seed
      << (faults ? "/faults" : "/clean");
  return out.str();
}

std::vector<VariantSpec> variants(const CampaignSpec& spec) {
  std::vector<VariantSpec> out;
  out.reserve(spec.variant_count());
  for (mac::Protocol protocol : spec.protocols) {
    for (std::uint64_t seed : spec.seeds) {
      for (bool faults : spec.fault_modes) {
        VariantSpec v;
        v.index = out.size();
        v.protocol = protocol;
        v.seed = seed;
        v.faults = faults;
        out.push_back(v);
      }
    }
  }
  return out;
}

core::BanConfig variant_config(const core::BanConfig& base,
                               const VariantSpec& variant) {
  core::BanConfig config = base;
  config.protocol = variant.protocol;
  config.seed = variant.seed;
  config.fault_plan.enabled = variant.faults;
  return config;
}

core::PopulationConfig population_config(const CampaignSpec& spec) {
  return {.motion = spec.motion};
}

std::vector<ShardSpec> plan_shards(const CampaignSpec& spec) {
  std::vector<ShardSpec> out;
  const std::size_t per_variant =
      (spec.patients + spec.shard_size - 1) / spec.shard_size;
  out.reserve(per_variant * spec.variant_count());
  for (std::size_t v = 0; v < spec.variant_count(); ++v) {
    for (std::size_t first = 0; first < spec.patients;
         first += spec.shard_size) {
      ShardSpec shard;
      shard.index = out.size();
      shard.variant = v;
      shard.first = first;
      shard.count = std::min(spec.shard_size, spec.patients - first);
      out.push_back(shard);
    }
  }
  return out;
}

void write_campaign(const std::filesystem::path& dir, const CampaignSpec& spec,
                    const core::BanConfig& base) {
  const std::string problem = spec.validate();
  if (!problem.empty()) throw StoreError(problem);
  std::filesystem::create_directories(dir);
  if (std::filesystem::exists(dir / kManifestName)) {
    throw StoreError("campaign directory " + dir.string() +
                     " already holds a manifest; resume it instead");
  }
  const std::string base_text = core::serialize_config(base);
  write_file(dir / kBaseConfigName, base_text);

  std::ostringstream out;
  out << "format = " << kStoreFormatVersion << "\n";
  out << "patients = " << spec.patients << "\n";
  out << "shard_size = " << spec.shard_size << "\n";
  out << "protocols = "
      << join_csv<mac::Protocol>(spec.protocols, mac::to_string) << "\n";
  out << "seeds =";
  for (std::size_t i = 0; i < spec.seeds.size(); ++i) {
    out << (i == 0 ? " " : ",") << spec.seeds[i];
  }
  out << "\n";
  out << "fault_modes =";
  for (std::size_t i = 0; i < spec.fault_modes.size(); ++i) {
    out << (i == 0 ? " " : ",") << (spec.fault_modes[i] ? "on" : "off");
  }
  out << "\n";
  out << "motion = " << (spec.motion ? "true" : "false") << "\n";
  out.precision(17);  // durations round-trip exactly through the text form
  out << "measure_ms = " << spec.measure.to_seconds() * 1e3 << "\n";
  out << "settle_ms = " << spec.settle.to_seconds() * 1e3 << "\n";
  out << "join_deadline_ms = " << spec.join_deadline.to_seconds() * 1e3
      << "\n";
  out << "cdf_bins = " << spec.cdf_bins << "\n";
  out << "retry_budget = " << spec.retry_budget << "\n";
  out << "deadline_floor_ms = " << spec.deadline_floor_ms << "\n";
  out << "deadline_ceiling_ms = " << spec.deadline_ceiling_ms << "\n";
  out << "deadline_factor = " << spec.deadline_factor << "\n";
  out << "base_config_crc = " << crc32(base_text) << "\n";
  write_file(dir / kManifestName, out.str());
}

LoadedCampaign load_campaign(const std::filesystem::path& dir) {
  const std::string text = read_file(dir / kManifestName);
  std::map<std::string, std::string> kv;
  std::istringstream in(text);
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    const auto first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos) continue;
    const auto eq = line.find('=');
    if (eq == std::string::npos) {
      throw StoreError("manifest line " + std::to_string(lineno) +
                       ": expected key = value");
    }
    const auto trim = [](std::string s) {
      const auto b = s.find_first_not_of(" \t\r");
      if (b == std::string::npos) return std::string{};
      const auto e = s.find_last_not_of(" \t\r");
      return s.substr(b, e - b + 1);
    };
    kv[trim(line.substr(0, eq))] = trim(line.substr(eq + 1));
  }

  const auto take = [&](const char* key) {
    const auto it = kv.find(key);
    if (it == kv.end()) {
      throw StoreError(std::string("manifest: missing key ") + key);
    }
    const std::string value = it->second;
    kv.erase(it);
    return value;
  };

  const auto format =
      read_value(core::to_int<std::uint64_t>, "format", take("format"));
  if (format != kStoreFormatVersion) {
    throw StoreError("manifest format version " + std::to_string(format) +
                     "; this build reads version " +
                     std::to_string(kStoreFormatVersion));
  }

  CampaignSpec spec;
  spec.patients =
      read_value(core::to_int<std::size_t>, "patients", take("patients"));
  spec.shard_size =
      read_value(core::to_int<std::size_t>, "shard_size", take("shard_size"));
  spec.protocols.clear();
  for (const std::string& token : split_csv(take("protocols"))) {
    spec.protocols.push_back(core::parse_mac_protocol(token));
  }
  spec.seeds.clear();
  for (const std::string& token : split_csv(take("seeds"))) {
    spec.seeds.push_back(
        read_value(core::to_int<std::uint64_t>, "seeds", token));
  }
  spec.fault_modes.clear();
  for (const std::string& token : split_csv(take("fault_modes"))) {
    if (token == "on") {
      spec.fault_modes.push_back(true);
    } else if (token == "off") {
      spec.fault_modes.push_back(false);
    } else {
      throw StoreError("manifest: fault_modes entries must be on|off, got '" +
                       token + "'");
    }
  }
  const std::string motion = take("motion");
  if (motion != "true" && motion != "false") {
    throw StoreError("manifest: motion must be true|false, got '" + motion +
                     "'");
  }
  spec.motion = motion == "true";
  const auto take_ms = [&](const char* key) {
    return read_value(core::to_duration, key, take(key));
  };
  spec.measure = take_ms("measure_ms");
  spec.settle = take_ms("settle_ms");
  spec.join_deadline = take_ms("join_deadline_ms");
  spec.cdf_bins =
      read_value(core::to_int<std::size_t>, "cdf_bins", take("cdf_bins"));
  // Worker-health knobs were added after the first stores shipped; a
  // manifest without them loads with the library defaults.
  const auto take_optional = [&](const char* key) -> std::optional<std::string> {
    const auto it = kv.find(key);
    if (it == kv.end()) return std::nullopt;
    std::string value = it->second;
    kv.erase(it);
    return value;
  };
  if (const auto v = take_optional("retry_budget")) {
    spec.retry_budget =
        read_value(core::to_int<std::size_t>, "retry_budget", *v);
  }
  if (const auto v = take_optional("deadline_floor_ms")) {
    spec.deadline_floor_ms =
        read_value(core::to_int<std::uint32_t>, "deadline_floor_ms", *v);
  }
  if (const auto v = take_optional("deadline_ceiling_ms")) {
    spec.deadline_ceiling_ms =
        read_value(core::to_int<std::uint32_t>, "deadline_ceiling_ms", *v);
  }
  if (const auto v = take_optional("deadline_factor")) {
    try {
      std::size_t pos = 0;
      spec.deadline_factor = std::stod(*v, &pos);
      if (pos != v->size()) throw std::invalid_argument(*v);
    } catch (const std::exception&) {
      throw StoreError("manifest: bad number for deadline_factor: '" + *v +
                       "'");
    }
  }
  const std::uint32_t want_crc = read_value(
      core::to_int<std::uint32_t>, "base_config_crc", take("base_config_crc"));

  if (!kv.empty()) {
    throw StoreError("manifest: unknown key '" + kv.begin()->first + "'");
  }
  const std::string problem = spec.validate();
  if (!problem.empty()) throw StoreError(problem);

  const std::string base_text = read_file(dir / kBaseConfigName);
  if (crc32(base_text) != want_crc) {
    throw StoreError(
        "base_config.ini does not match the manifest fingerprint — the "
        "campaign definition was edited after creation");
  }
  LoadedCampaign loaded;
  loaded.spec = spec;
  try {
    loaded.base = core::parse_config(base_text);
  } catch (const core::ConfigError& e) {
    throw StoreError(std::string("base_config.ini: ") + e.what());
  }
  return loaded;
}

}  // namespace bansim::campaign
