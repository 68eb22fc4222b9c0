// Command-line experiment driver.
//
// The tool a platform team would actually run: configure a scenario from
// flags and/or an INI file, execute it at one or both fidelities, and emit
// human-readable results or CSV.
//
// usage:
//   bansim_cli [--config FILE] [--app ecg_streaming|rpeak|eeg_monitoring]
//              [--protocol static_tdma|dynamic_tdma|aloha|csma_ca]
//              [--cycle-ms N] [--nodes N]
//              [--seconds N] [--seed N] [--fidelity ref|model|both]
//              [--analyze] [--csv] [--dump-config]
//              [--sweep KEY=V1,V2,... | KEY=LO..HI] [--jobs N]
//
// Sweep mode runs the configured scenario once per value of KEY (one of
// cycle-ms, nodes, seed) at each selected fidelity, fanning the runs out
// across cores (--jobs N; 0 = all cores).  A LO..HI range may span at most
// kMaxSweepValues values.  Results are printed in sweep order regardless
// of the worker count — each run owns its own simulator, so the numbers
// are bit-identical to a serial sweep.
#include <cctype>
#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "check/fault_campaign.hpp"
#include "core/bansim.hpp"
#include "core/config_io.hpp"
#include "core/mac_analyzer.hpp"
#include "fault/degradation_report.hpp"
#include "sim/scenario_runner.hpp"

namespace {

using namespace bansim;
using sim::Duration;

struct CliOptions {
  std::optional<std::string> config_file;
  std::optional<std::string> fault_plan_file;
  std::optional<std::string> app;
  std::optional<std::string> protocol;
  std::optional<int> cycle_ms;
  std::optional<int> nodes;
  std::optional<std::uint64_t> seed;
  int seconds{60};
  std::string fidelity{"both"};
  std::optional<std::string> sweep;
  unsigned jobs{0};  ///< sweep workers; 0 = hardware_concurrency()
  bool analyze{false};
  bool csv{false};
  bool dump_config{false};
  bool lifetime{false};
  bool per_node{false};  ///< forced on when the config carries a roster
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--config FILE] [--app NAME]\n"
               "          [--protocol static_tdma|dynamic_tdma|aloha|csma_ca]\n"
               "          [--cycle-ms N] [--nodes N] [--seconds N] [--seed N]\n"
               "          [--fidelity ref|model|both] [--analyze] [--csv] "
               "[--dump-config]\n"
               "          [--per-node] [--sweep KEY=V1,V2,...|KEY=LO..HI] "
               "[--jobs N]\n"
               "          [--fault-plan FILE] [--lifetime]\n"
               "       sweep KEY is one of: cycle-ms, nodes, seed\n"
               "       --lifetime runs a lifetime campaign on a config with "
               "an\n"
               "       enabled [storage] section: advance until the first "
               "store\n"
               "       runs dry (or --seconds pass), then print each node's\n"
               "       measured draw and extrapolated lifetime\n"
               "       --per-node prints a per-node energy table (implied by\n"
               "       a config with [node.K] roster sections)\n"
               "       --fault-plan overlays FILE's [fault.*] sections onto "
               "the\n"
               "       config, runs a fault campaign plus a fault-free "
               "baseline\n"
               "       under the invariant monitor, and prints the "
               "degradation\n"
               "       report (PDR, resync/rejoin times, recovery energy)\n",
               argv0);
  return 2;
}

/// The most values a --sweep LO..HI range may expand to.
constexpr std::uint64_t kMaxSweepValues = 1000;

/// Reads `text` as one whole unsigned token in [lo, hi] (strtoull's `base`;
/// no sign, no trailing characters).
std::optional<std::uint64_t> whole_number(const std::string& text, int base,
                                          std::uint64_t lo, std::uint64_t hi) {
  if (text.empty() || !std::isdigit(static_cast<unsigned char>(text[0]))) {
    return std::nullopt;
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, base);
  if (errno == ERANGE || *end != '\0' || v < lo || v > hi) return std::nullopt;
  return v;
}

/// A flag value the flag does not take: one line naming it, exit 2.
[[noreturn]] void bad_value(const std::string& flag, const char* value,
                            const std::string& expected) {
  std::fprintf(stderr, "error: %s: '%s' is not %s\n", flag.c_str(), value,
               expected.c_str());
  std::exit(2);
}

std::uint64_t number_flag(const std::string& flag, const char* value,
                          std::uint64_t lo, std::uint64_t hi, int base = 10) {
  if (const auto v = whole_number(value, base, lo, hi)) return *v;
  bad_value(flag, value,
            "a whole number in " + std::to_string(lo) + ".." +
                std::to_string(hi));
}

bool parse_cli(int argc, char** argv, CliOptions& options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--config") {
      const char* v = next();
      if (!v) return false;
      options.config_file = v;
    } else if (arg == "--fault-plan") {
      const char* v = next();
      if (!v) return false;
      options.fault_plan_file = v;
    } else if (arg == "--app") {
      const char* v = next();
      if (!v) return false;
      options.app = v;
    } else if (arg == "--protocol") {
      const char* v = next();
      if (!v) return false;
      options.protocol = v;
    } else if (arg == "--cycle-ms") {
      const char* v = next();
      if (!v) return false;
      options.cycle_ms = static_cast<int>(number_flag(arg, v, 1, INT_MAX));
    } else if (arg == "--nodes") {
      const char* v = next();
      if (!v) return false;
      options.nodes = static_cast<int>(number_flag(arg, v, 0, core::kMaxNodes));
    } else if (arg == "--seconds") {
      const char* v = next();
      if (!v) return false;
      options.seconds = static_cast<int>(number_flag(arg, v, 1, INT_MAX));
    } else if (arg == "--seed") {
      const char* v = next();
      if (!v) return false;
      options.seed = number_flag(arg, v, 0, UINT64_MAX, 0);
    } else if (arg == "--fidelity") {
      const char* v = next();
      if (!v) return false;
      options.fidelity = v;
      if (options.fidelity != "ref" && options.fidelity != "model" &&
          options.fidelity != "both") {
        bad_value(arg, v, "one of ref, model, both");
      }
    } else if (arg == "--sweep") {
      const char* v = next();
      if (!v) return false;
      options.sweep = v;
    } else if (arg == "--jobs") {
      const char* v = next();
      if (!v) return false;
      options.jobs = static_cast<unsigned>(number_flag(arg, v, 0, UINT_MAX));
    } else if (arg == "--per-node") {
      options.per_node = true;
    } else if (arg == "--analyze") {
      options.analyze = true;
    } else if (arg == "--csv") {
      options.csv = true;
    } else if (arg == "--dump-config") {
      options.dump_config = true;
    } else if (arg == "--lifetime") {
      options.lifetime = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return false;
    }
  }
  return true;
}

std::string read_file(const std::string& path) {
  std::ifstream file{path};
  if (!file) throw core::ConfigError("cannot open " + path);
  std::stringstream buffer;
  buffer << file.rdbuf();
  return buffer.str();
}

core::BanConfig build_config(const CliOptions& options) {
  core::BanConfig config;
  // Paper-flavoured defaults.
  config.num_nodes = 5;
  config.tdma = mac::TdmaConfig::static_plan(Duration::milliseconds(30), 5);
  config.app = core::AppKind::kEcgStreaming;
  config.streaming.sample_rate_hz = 205;

  if (options.config_file) {
    config = core::parse_config(read_file(*options.config_file));
  }
  if (options.fault_plan_file) {
    // A fault-plan file is an ordinary config INI; only its [fault.*]
    // sections are taken (the scenario itself stays whatever --config and
    // the flags say).  The same file can therefore double as a complete
    // runnable config.
    const core::BanConfig plan_cfg =
        core::parse_config(read_file(*options.fault_plan_file));
    if (!plan_cfg.fault_plan.any()) {
      throw core::ConfigError(*options.fault_plan_file +
                              " has no enabled [fault] sections");
    }
    config.fault_plan = plan_cfg.fault_plan;
  }

  if (options.nodes) config.num_nodes = static_cast<std::size_t>(*options.nodes);
  if (options.seed) config.seed = *options.seed;
  if (options.protocol) {
    config.protocol = core::parse_mac_protocol(*options.protocol);
  }
  if (options.cycle_ms) {
    core::apply_static_cycle(config, Duration::milliseconds(*options.cycle_ms));
  }
  if (options.app) config.app = core::parse_app_kind(*options.app);
  return config;
}

void report(const char* fidelity, const core::ScenarioResult& r, bool csv) {
  if (csv) {
    std::printf("%s,%.3f,%.3f,%.3f,%.3f,%llu,%llu\n", fidelity, r.radio_mj,
                r.mcu_mj, r.asic_mj, r.total_mj,
                static_cast<unsigned long long>(r.data_packets),
                static_cast<unsigned long long>(r.beacons_missed));
    return;
  }
  std::printf(
      "  [%s] radio %.1f mJ, uC %.1f mJ (validated total %.1f mJ), asic %.1f "
      "mJ; %llu data packets, %llu missed beacons\n",
      fidelity, r.radio_mj, r.mcu_mj, r.total_mj, r.asic_mj,
      static_cast<unsigned long long>(r.data_packets),
      static_cast<unsigned long long>(r.beacons_missed));
}

/// run_scenario for the single-run rows: a network that never joins has
/// no steady state to measure, so it is an error rather than a zero row.
core::ScenarioResult joined_run(const core::BanConfig& config,
                                const core::MeasurementProtocol& protocol) {
  core::ScenarioResult result = core::run_scenario(config, protocol);
  if (!result.joined) {
    throw std::runtime_error(
        std::string("the network did not join within ") +
        protocol.join_deadline.to_string() + " at " +
        core::to_string(config.fidelity) + " fidelity");
  }
  return result;
}

/// Runs the scenario once per fidelity and prints one energy row per
/// device (nodes, then the base station) over the measurement window.
/// This is the heterogeneous-roster view: each row names the node's app
/// so a mixed ECG/R-peak ward reads at a glance.
int report_per_node(const core::BanConfig& base, core::Fidelity fidelity,
                    const char* fidelity_name, int seconds) {
  core::BanConfig config = base;
  config.fidelity = fidelity;
  core::BanNetwork network{config};
  const core::RunRecord record =
      core::run(network, {.measure = Duration::seconds(seconds),
                          .settle = Duration::seconds(1)});
  if (!record.joined) {
    std::fprintf(stderr, "per-node [%s]: network failed to join\n",
                 fidelity_name);
    return 1;
  }

  std::printf("\nper-node energy [%s], %d s window:\n", fidelity_name,
              seconds);
  const std::size_t nodes = network.num_nodes();
  for (std::size_t i = 0; i <= nodes; ++i) {
    const bool is_bs = i == nodes;
    const char* name = is_bs ? network.base_station().name().c_str()
                             : network.node(i).name().c_str();
    const char* app =
        is_bs ? "base_station" : to_string(network.node(i).app_kind());
    const hw::Joules& before = record.open.joules[i];
    const hw::Joules& after = record.close.joules[i];
    std::printf("  %-10s %-16s mcu %8.3f  radio %8.3f  asic %8.3f  total "
                "%8.3f mJ\n",
                name, app, (after.mcu - before.mcu) * 1e3,
                (after.radio - before.radio) * 1e3,
                (after.asic - before.asic) * 1e3,
                (after.total() - before.total()) * 1e3);
  }
  return 0;
}

struct SweepSpec {
  std::string key;                   ///< cycle-ms | nodes | seed
  std::vector<std::uint64_t> values;
};

std::optional<SweepSpec> parse_sweep(const std::string& text) {
  const auto eq = text.find('=');
  if (eq == std::string::npos || eq == 0 || eq + 1 >= text.size()) {
    return std::nullopt;
  }
  SweepSpec spec;
  spec.key = text.substr(0, eq);
  if (spec.key != "cycle-ms" && spec.key != "nodes" && spec.key != "seed") {
    return std::nullopt;
  }
  const std::uint64_t hi = spec.key == "seed"    ? UINT64_MAX
                           : spec.key == "nodes" ? core::kMaxNodes
                                                 : INT_MAX;
  const std::uint64_t lo = spec.key == "cycle-ms" ? 1 : 0;
  const auto value = [&](const std::string& item) {
    return whole_number(item, 10, lo, hi);
  };
  const std::string body = text.substr(eq + 1);
  const auto range = body.find("..");
  if (range != std::string::npos) {
    const auto first = value(body.substr(0, range));
    const auto last = value(body.substr(range + 2));
    if (!first || !last || *last < *first ||
        *last - *first >= kMaxSweepValues) {
      return std::nullopt;
    }
    for (std::uint64_t n = 0; n <= *last - *first; ++n) {
      spec.values.push_back(*first + n);
    }
  } else {
    std::stringstream ss{body};
    std::string item;
    while (std::getline(ss, item, ',')) {
      if (item.empty()) continue;
      const auto v = value(item);
      if (!v) return std::nullopt;
      spec.values.push_back(*v);
    }
  }
  if (spec.values.empty()) return std::nullopt;
  return spec;
}

core::BanConfig apply_sweep_value(core::BanConfig config,
                                  const std::string& key, std::uint64_t value) {
  if (key == "seed") {
    config.seed = value;
  } else if (key == "nodes") {
    config.num_nodes = static_cast<std::size_t>(value);
  } else {  // cycle-ms (static TDMA only; dynamic plans own their slot size)
    core::apply_static_cycle(
        config, Duration::milliseconds(static_cast<std::int64_t>(value)));
  }
  return config;
}

int run_sweep(const CliOptions& options, const core::BanConfig& base,
              const core::MeasurementProtocol& protocol) {
  const auto spec = parse_sweep(*options.sweep);
  if (!spec) {
    std::fprintf(stderr, "bad --sweep spec: %s\n", options.sweep->c_str());
    return 2;
  }

  std::vector<core::Fidelity> fidelities;
  if (options.fidelity == "ref" || options.fidelity == "both") {
    fidelities.push_back(core::Fidelity::kReference);
  }
  if (options.fidelity == "model" || options.fidelity == "both") {
    fidelities.push_back(core::Fidelity::kModel);
  }

  // One scenario per (value, fidelity), index-ordered so the report below
  // is identical for any --jobs count.
  std::vector<std::function<core::ScenarioResult()>> scenarios;
  std::vector<std::pair<std::uint64_t, const char*>> labels;
  for (const std::uint64_t value : spec->values) {
    for (const core::Fidelity fidelity : fidelities) {
      core::BanConfig cfg = apply_sweep_value(base, spec->key, value);
      cfg.fidelity = fidelity;
      scenarios.push_back(
          [cfg, protocol] { return core::run_scenario(cfg, protocol); });
      labels.emplace_back(value, fidelity == core::Fidelity::kReference
                                     ? "reference"
                                     : "model");
    }
  }

  sim::ScenarioRunner runner{options.jobs};
  const auto results = runner.run(scenarios);

  std::printf(
      "%s,fidelity,radio_mj,mcu_mj,asic_mj,total_mj,data_packets,"
      "beacons_missed\n",
      spec->key.c_str());
  std::uint64_t events = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const core::ScenarioResult& r = results[i];
    events += r.events;
    std::printf("%llu,%s,%.3f,%.3f,%.3f,%.3f,%llu,%llu\n",
                static_cast<unsigned long long>(labels[i].first),
                labels[i].second, r.radio_mj, r.mcu_mj, r.asic_mj, r.total_mj,
                static_cast<unsigned long long>(r.data_packets),
                static_cast<unsigned long long>(r.beacons_missed));
  }
  // Throughput summary to stderr so the CSV on stdout stays machine-clean.
  std::fprintf(stderr,
               "sweep: %zu scenarios, %llu kernel events, %.2f s wall "
               "(jobs=%u), %.2f Mevents/s\n",
               results.size(), static_cast<unsigned long long>(events),
               runner.last_wall_seconds(), runner.jobs(),
               static_cast<double>(events) / runner.last_wall_seconds() / 1e6);
  return 0;
}

/// Fault-campaign mode: the faulted run and a fault-free baseline from the
/// same seed, both under the invariant monitor, distilled into a
/// DegradationReport.  Non-zero exit if any invariant was violated — a
/// campaign that breaks conservation laws is a simulator bug, not a result.
int run_campaign(const CliOptions& options, const core::BanConfig& config) {
  check::CampaignOptions campaign;
  campaign.horizon = Duration::seconds(options.seconds);

  std::printf("fault campaign: %s, %zu nodes%s, %s MAC, %d s horizon, "
              "seed %llu\n",
              to_string(config.app), config.effective_nodes(),
              config.roster.empty() ? "" : " (roster)",
              mac::to_string(config.protocol), options.seconds,
              static_cast<unsigned long long>(config.seed));

  const check::CampaignOutcome faulted = run_fault_campaign(config, campaign);

  core::BanConfig baseline_cfg = config;
  baseline_cfg.fault_plan = fault::FaultPlan{};  // bit-identical wiring
  const check::CampaignOutcome baseline =
      run_fault_campaign(baseline_cfg, campaign);

  const auto& stats = faulted.injector;
  std::printf("injected: %llu scripted faults, %llu stochastic crashes, "
              "%llu brown-outs, %llu fade transitions, %llu permanent "
              "deaths\n",
              static_cast<unsigned long long>(stats.scripted_faults),
              static_cast<unsigned long long>(stats.stochastic_crashes),
              static_cast<unsigned long long>(stats.brownouts),
              static_cast<unsigned long long>(stats.fade_transitions),
              static_cast<unsigned long long>(stats.permanent_deaths));

  const fault::DegradationReport report =
      fault::DegradationReport::build(faulted.run, baseline.run);
  std::printf("%s", report.to_string().c_str());

  const std::uint64_t violations = faulted.violations + baseline.violations;
  if (violations != 0) {
    std::fprintf(stderr, "invariant violations: %llu\n%s%s",
                 static_cast<unsigned long long>(violations),
                 faulted.violation_report.c_str(),
                 baseline.violation_report.c_str());
    return 1;
  }
  std::printf("invariants: clean (0 violations across both runs)\n");
  return 0;
}

/// Lifetime-campaign mode: advance the cell until the first store runs dry
/// (or the horizon passes), then print each node's measured average draw
/// and its extrapolated lifetime.  Non-zero exit on invariant violations.
int run_lifetime(const CliOptions& options, const core::BanConfig& config) {
  check::LifetimeCampaignOptions campaign;
  campaign.horizon = Duration::seconds(options.seconds);

  bool any_storage = config.storage.enabled;
  for (const auto& spec : config.roster) {
    if (spec.storage && spec.storage->enabled) any_storage = true;
  }
  if (!any_storage) {
    std::fprintf(stderr,
                 "note: no enabled [storage] section — every node runs off "
                 "the bench supply and never dies\n");
  }

  const check::LifetimeOutcome outcome =
      check::run_lifetime_campaign(config, campaign);

  if (options.csv) {
    std::printf("%s", outcome.report.render_csv().c_str());
  } else {
    std::printf("lifetime campaign: %s, %zu nodes%s, %s MAC, %d s horizon, "
                "seed %llu\n",
                to_string(config.app), config.effective_nodes(),
                config.roster.empty() ? "" : " (roster)",
                mac::to_string(config.protocol), options.seconds,
                static_cast<unsigned long long>(config.seed));
    std::printf("%s", outcome.report.render().c_str());
    if (outcome.death_observed) {
      std::printf("first depletion at %.2f s simulated (%llu deaths, %llu "
                  "recharge reboots)\n",
                  outcome.first_death.to_seconds(),
                  static_cast<unsigned long long>(
                      outcome.storage.depletion_deaths),
                  static_cast<unsigned long long>(
                      outcome.storage.recharge_reboots));
    } else {
      std::printf("no depletion within the %.1f s simulated window (%llu "
                  "recharge reboots)\n",
                  outcome.simulated.to_seconds(),
                  static_cast<unsigned long long>(
                      outcome.storage.recharge_reboots));
    }
  }
  if (outcome.violations != 0) {
    std::fprintf(stderr, "invariant violations: %llu\n%s",
                 static_cast<unsigned long long>(outcome.violations),
                 outcome.violation_report.c_str());
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions options;
  if (!parse_cli(argc, argv, options)) return usage(argv[0]);

  try {
    core::BanConfig config = build_config(options);
    if (options.dump_config) {
      std::printf("%s", core::serialize_config(config).c_str());
      return 0;
    }

    if (options.lifetime) return run_lifetime(options, config);
    if (options.fault_plan_file) return run_campaign(options, config);

    core::MeasurementProtocol protocol;
    protocol.measure = Duration::seconds(options.seconds);

    if (options.sweep) return run_sweep(options, config, protocol);

    if (!options.csv) {
      std::printf(
          "scenario: %s, %zu nodes%s, %s MAC, %d s window, seed %llu\n",
          to_string(config.app), config.effective_nodes(),
          config.roster.empty() ? "" : " (roster)",
          mac::to_string(config.protocol), options.seconds,
          static_cast<unsigned long long>(config.seed));
    } else {
      std::printf(
          "fidelity,radio_mj,mcu_mj,asic_mj,total_mj,data_packets,"
          "beacons_missed\n");
    }

    if (options.fidelity == "ref" || options.fidelity == "both") {
      config.fidelity = core::Fidelity::kReference;
      report("reference", joined_run(config, protocol), options.csv);
    }
    if (options.fidelity == "model" || options.fidelity == "both") {
      config.fidelity = core::Fidelity::kModel;
      report("model", joined_run(config, protocol), options.csv);
    }

    // A roster config describes a heterogeneous ward network, where the
    // aggregate focus-node numbers above hide the interesting structure —
    // always show the per-node table for those.
    if ((options.per_node || !config.roster.empty()) && !options.csv) {
      int rc = 0;
      if (options.fidelity == "ref" || options.fidelity == "both") {
        rc |= report_per_node(config, core::Fidelity::kReference, "reference",
                              options.seconds);
      }
      if (options.fidelity == "model" || options.fidelity == "both") {
        rc |= report_per_node(config, core::Fidelity::kModel, "model",
                              options.seconds);
      }
      if (rc != 0) return 1;
    }

    if (options.analyze) {
      config.fidelity = core::Fidelity::kReference;
      core::BanNetwork network{config};
      auto sink = std::make_shared<sim::MemorySink>();
      network.tracer().attach(sink, {sim::TraceCategory::kMac});
      const core::RunRecord record =
          core::run(network, {.measure = Duration::seconds(options.seconds),
                              .settle = Duration::seconds(1)});
      if (record.joined) {
        std::printf("\n%s", core::analyze_mac(network, sink->records(),
                                              record.open.at)
                                .render()
                                .c_str());
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
