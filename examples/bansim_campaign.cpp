// bansim_campaign — resumable population-campaign driver.
//
//   bansim_campaign run <dir> [options]      create (if needed) and run
//   bansim_campaign resume <dir> [options]   alias for run on an existing dir
//   bansim_campaign report <dir> [--csv FILE] [--cdf-csv FILE]
//   bansim_campaign verify <dir>
//
// run/resume options:
//   --config FILE         base ward config (INI); default ward otherwise
//   --patients N          patients per variant            (default 1000)
//   --shard-size N        patients per shard              (default 250)
//   --protocols a,b,..    static_tdma,dynamic_tdma,aloha,csma_ca
//   --seeds s1,s2,..      base seeds                      (default 1)
//   --fault-modes m,..    off,on (on enables the config's fault plan)
//   --motion              sample per-patient motion episodes
//   --measure-ms N --settle-ms N --join-deadline-ms N
//   --retry-budget N      failed attempts before a shard is quarantined
//   --deadline-floor-ms N --deadline-ceiling-ms N --deadline-factor F
//                         per-shard watchdog deadline policy (manifest)
//   --workers N           worker processes (0 = in this process)
//   --checkpoint-every N  checkpoint record cadence       (default 4)
//   --backoff-ms N        retry backoff base (doubles per attempt)
//   --worker-cpu-limit-s N --worker-mem-limit-mb N
//                         setrlimit caps applied inside each worker
//   --die-after N         chaos: SIGKILL everything after N shards
//   --stop-after N        chaos: stop cleanly after N shards
//   --worker-chaos SPEC   chaos list: "<ordinal>:<mid|torn|post|hang>"
//                         (first worker) and/or "shard=<k>:<hang|crash>"
//                         (poison shard, every worker)
//
// `run` on a directory that already holds a manifest resumes it (creation
// options are then rejected — the manifest is the definition).
//
// Exit codes:
//   0  run: campaign complete | report: aggregates complete | verify: OK
//   2  usage error, or report/resume/verify on a directory with no campaign
//   3  run returned incomplete (chaos stop / SIGTERM / worker exhaustion)
//      | report: aggregates incomplete
//   4  verify found errors
//   5  complete except quarantined: every planned shard is either durable
//      or quarantined, and at least one is quarantined (run/report/verify)
#include <cctype>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/orchestrator.hpp"
#include "campaign/report.hpp"
#include "core/bansim.hpp"
#include "core/config_io.hpp"

namespace {

using namespace bansim;

[[noreturn]] void usage(const std::string& problem) {
  if (!problem.empty()) std::cerr << "error: " << problem << "\n";
  std::cerr << "usage: bansim_campaign run|resume|report|verify <dir> "
               "[options]\n       (see the header of "
               "examples/bansim_campaign.cpp)\n";
  std::exit(2);
}

[[nodiscard]] std::vector<std::string> split_csv(const std::string& text) {
  std::vector<std::string> out;
  std::string item;
  std::istringstream in(text);
  while (std::getline(in, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

/// The default ward when --config is not given: the paper's 5-node ECG
/// streaming cell with a small battery so lifetimes are finite.
[[nodiscard]] core::BanConfig default_ward() {
  core::BanConfig config;
  config.num_nodes = 5;
  config.tdma =
      mac::TdmaConfig::static_plan(sim::Duration::milliseconds(30), 5);
  config.app = core::AppKind::kEcgStreaming;
  config.streaming.sample_rate_hz = 205;
  config.stagger = sim::Duration::milliseconds(2);
  config.storage.enabled = true;
  config.storage.battery.capacity_mah = 25.0;  // coin cell: finite lifetimes
  return config;
}

struct CliOptions {
  std::string verb;
  std::string dir;
  std::optional<std::string> config_path;
  campaign::CampaignSpec spec;
  bool spec_touched{false};
  campaign::RunCampaignOptions run;
  std::optional<std::string> csv_path;
  std::optional<std::string> cdf_csv_path;
};

[[nodiscard]] CliOptions parse_cli(int argc, char** argv) {
  if (argc < 3) usage("need a verb and a campaign directory");
  CliOptions cli;
  cli.verb = argv[1];
  cli.dir = argv[2];
  // CLI defaults lean smaller than the library's (a CLI smoke should not
  // take minutes unless asked).
  cli.spec.patients = 1000;
  cli.spec.shard_size = 250;
  cli.spec.measure = sim::Duration::seconds(5);
  cli.spec.settle = sim::Duration::seconds(1);
  cli.run.workers = 2;

  const auto need_value = [&](int i) -> std::string {
    if (i + 1 >= argc) usage(std::string(argv[i]) + " needs a value");
    return argv[i + 1];
  };
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    // A whole unsigned decimal token: stoul alone would wrap "-1" to 2^64-1
    // and stop at trailing characters.
    const auto num = [&](const std::string& v) {
      try {
        std::size_t used = 0;
        const unsigned long value = std::stoul(v, &used);
        if (used == v.size() &&
            std::isdigit(static_cast<unsigned char>(v[0]))) {
          return value;
        }
      } catch (const std::exception&) {
      }
      usage(arg + ": bad number '" + v + "'");
    };
    if (arg == "--config") {
      cli.config_path = need_value(i++);
      cli.spec_touched = true;
    } else if (arg == "--patients") {
      cli.spec.patients = num(need_value(i++));
      cli.spec_touched = true;
    } else if (arg == "--shard-size") {
      cli.spec.shard_size = num(need_value(i++));
      cli.spec_touched = true;
    } else if (arg == "--protocols") {
      cli.spec.protocols.clear();
      for (const std::string& token : split_csv(need_value(i++))) {
        cli.spec.protocols.push_back(core::parse_mac_protocol(token));
      }
      cli.spec_touched = true;
    } else if (arg == "--seeds") {
      cli.spec.seeds.clear();
      for (const std::string& token : split_csv(need_value(i++))) {
        cli.spec.seeds.push_back(num(token));
      }
      cli.spec_touched = true;
    } else if (arg == "--fault-modes") {
      cli.spec.fault_modes.clear();
      for (const std::string& token : split_csv(need_value(i++))) {
        if (token == "on") {
          cli.spec.fault_modes.push_back(true);
        } else if (token == "off") {
          cli.spec.fault_modes.push_back(false);
        } else {
          usage("--fault-modes entries must be on|off");
        }
      }
      cli.spec_touched = true;
    } else if (arg == "--motion") {
      cli.spec.motion = true;
      cli.spec_touched = true;
    } else if (arg == "--measure-ms") {
      cli.spec.measure = sim::Duration::milliseconds(
          static_cast<std::int64_t>(num(need_value(i++))));
      cli.spec_touched = true;
    } else if (arg == "--settle-ms") {
      cli.spec.settle = sim::Duration::milliseconds(
          static_cast<std::int64_t>(num(need_value(i++))));
      cli.spec_touched = true;
    } else if (arg == "--join-deadline-ms") {
      cli.spec.join_deadline = sim::Duration::milliseconds(
          static_cast<std::int64_t>(num(need_value(i++))));
      cli.spec_touched = true;
    } else if (arg == "--retry-budget") {
      cli.spec.retry_budget = num(need_value(i++));
      cli.spec_touched = true;
    } else if (arg == "--deadline-floor-ms") {
      cli.spec.deadline_floor_ms =
          static_cast<std::uint32_t>(num(need_value(i++)));
      cli.spec_touched = true;
    } else if (arg == "--deadline-ceiling-ms") {
      cli.spec.deadline_ceiling_ms =
          static_cast<std::uint32_t>(num(need_value(i++)));
      cli.spec_touched = true;
    } else if (arg == "--deadline-factor") {
      const std::string value = need_value(i++);
      try {
        std::size_t pos = 0;
        cli.spec.deadline_factor = std::stod(value, &pos);
        if (pos != value.size()) throw std::invalid_argument(value);
      } catch (const std::exception&) {
        usage("--deadline-factor: bad number '" + value + "'");
      }
      cli.spec_touched = true;
    } else if (arg == "--workers") {
      cli.run.workers = static_cast<unsigned>(num(need_value(i++)));
    } else if (arg == "--checkpoint-every") {
      cli.run.checkpoint_every = num(need_value(i++));
    } else if (arg == "--backoff-ms") {
      cli.run.backoff_base_ms = static_cast<std::uint32_t>(num(need_value(i++)));
    } else if (arg == "--worker-cpu-limit-s") {
      cli.run.worker_cpu_limit_s =
          static_cast<std::uint32_t>(num(need_value(i++)));
    } else if (arg == "--worker-mem-limit-mb") {
      cli.run.worker_mem_limit_mb =
          static_cast<std::uint32_t>(num(need_value(i++)));
    } else if (arg == "--die-after") {
      cli.run.die_after_shards = num(need_value(i++));
    } else if (arg == "--stop-after") {
      cli.run.stop_after_shards = num(need_value(i++));
    } else if (arg == "--worker-chaos") {
      cli.run.worker_chaos = need_value(i++);
    } else if (arg == "--csv") {
      cli.csv_path = need_value(i++);
    } else if (arg == "--cdf-csv") {
      cli.cdf_csv_path = need_value(i++);
    } else {
      usage("unknown option " + arg);
    }
  }
  return cli;
}

void write_text(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  if (!out) {
    std::cerr << "error: cannot write " << path << "\n";
    std::exit(2);
  }
}

[[nodiscard]] bool has_manifest(const std::string& dir) {
  return std::filesystem::exists(std::filesystem::path(dir) / "manifest.ini");
}

/// report/verify/resume on a directory without a campaign is an operator
/// mistake, not store corruption — one actionable line, exit 2, no
/// StoreError backtrace.
[[nodiscard]] int missing_campaign(const std::string& dir) {
  std::cerr << "error: no campaign at " << dir
            << " (missing manifest.ini); create one with `bansim_campaign "
               "run " << dir << " [options]`\n";
  return 2;
}

int run_verb(const CliOptions& cli) {
  if (!has_manifest(cli.dir)) {
    if (cli.verb == "resume") return missing_campaign(cli.dir);
    core::BanConfig base = default_ward();
    if (cli.config_path) {
      std::ifstream in(*cli.config_path, std::ios::binary);
      if (!in) {
        std::cerr << "error: cannot read " << *cli.config_path << "\n";
        return 2;
      }
      std::ostringstream buf;
      buf << in.rdbuf();
      base = core::parse_config(buf.str());
    }
    campaign::create_campaign(cli.dir, cli.spec, base);
    std::cout << "created campaign: " << cli.spec.patients << " patients x "
              << cli.spec.variant_count() << " variant(s), "
              << campaign::plan_shards(cli.spec).size() << " shards\n";
  } else if (cli.spec_touched) {
    std::cerr << "error: " << cli.dir
              << " already holds a manifest; scenario options only apply at "
                 "creation\n";
    return 2;
  }

  const campaign::RunCampaignResult result =
      campaign::run_campaign(cli.dir, cli.run);
  std::cout << "generation " << result.generation << ": ran "
            << result.shards_run << " shard(s), "
            << result.shards_already_complete << " already complete of "
            << result.shards_total;
  const std::size_t quarantined =
      result.shards_quarantined + result.shards_already_quarantined;
  if (quarantined != 0) {
    std::cout << ", " << quarantined << " quarantined";
  }
  if (result.workers_spawned != 0) {
    std::cout << " (" << result.workers_spawned << " worker(s), "
              << result.workers_died << " died, " << result.workers_hung
              << " hung)";
  }
  std::cout << (result.incomplete
                    ? " [INCOMPLETE]"
                    : (result.complete_except_quarantined()
                           ? " [COMPLETE EXCEPT QUARANTINED]"
                           : ""))
            << "\n";
  if (result.incomplete) return 3;
  return result.complete_except_quarantined() ? 5 : 0;
}

int report_verb(const CliOptions& cli) {
  const campaign::LoadedCampaign campaign_def = campaign::load_campaign(cli.dir);
  const campaign::CollectedResults results =
      campaign::collect_results(cli.dir);
  const campaign::CampaignAggregates aggregates =
      campaign::aggregate(campaign_def, results);
  std::cout << campaign::render_report(aggregates);
  if (cli.csv_path) write_text(*cli.csv_path, campaign::render_csv(aggregates));
  if (cli.cdf_csv_path) {
    write_text(*cli.cdf_csv_path, aggregates.lifetime_cdf.render_csv());
  }
  if (aggregates.complete()) return 0;
  return aggregates.complete_except_quarantined() ? 5 : 3;
}

}  // namespace

int main(int argc, char** argv) {
  // Worker-mode children of `run --workers N` re-enter through this hook.
  if (const int rc = bansim::campaign::maybe_worker_main(argc, argv); rc >= 0) {
    return rc;
  }
  try {
    const CliOptions cli = parse_cli(argc, argv);
    if (cli.verb == "run" || cli.verb == "resume") return run_verb(cli);
    if (cli.verb == "report") {
      if (!has_manifest(cli.dir)) return missing_campaign(cli.dir);
      return report_verb(cli);
    }
    if (cli.verb == "verify") {
      if (!has_manifest(cli.dir)) return missing_campaign(cli.dir);
      const campaign::VerifyReport report = campaign::verify_store(cli.dir);
      std::cout << report.render();
      if (!report.ok) return 4;
      return report.shards_quarantined != 0 ? 5 : 0;
    }
    usage("unknown verb " + cli.verb);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
