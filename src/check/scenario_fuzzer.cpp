#include "check/scenario_fuzzer.hpp"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <functional>
#include <utility>

#include "campaign/orchestrator.hpp"
#include "campaign/report.hpp"
#include "check/fault_campaign.hpp"
#include "check/invariant_monitor.hpp"
#include "core/config_io.hpp"
#include "core/experiment.hpp"
#include "sim/rng.hpp"
#include "sim/scenario_runner.hpp"

namespace bansim::check {

namespace {

/// The fuzz window's settle and join deadline, shared by every leg and by
/// the shard-resume oracle's campaign.
constexpr sim::Duration kSettle = sim::Duration::milliseconds(200);
constexpr sim::Duration kJoinDeadline = sim::Duration::seconds(12);

/// Everything evaluate() needs from one simulation.
struct RunOutput {
  bool joined{false};
  std::vector<energy::NodeEnergy> energies;
  std::uint64_t monitor_violations{0};
  std::string monitor_report;
};

std::vector<double> flatten(const std::vector<energy::NodeEnergy>& nodes) {
  std::vector<double> flat;
  for (const auto& n : nodes) {
    for (const auto& c : n.components) {
      flat.push_back(c.joules);
      for (const auto& [state, joules] : c.per_state) flat.push_back(joules);
    }
  }
  return flat;
}

/// Runs `network` through the fuzz window: join, settle, then measure.  A
/// cell that never joined still runs a window's worth, so its invariants
/// are audited on a live cell too.
bool run_window(core::BanNetwork& network, const FuzzOptions& opt) {
  const bool joined = core::run(network, {.measure = opt.measure,
                                          .settle = kSettle,
                                          .join_deadline = kJoinDeadline})
                          .joined;
  if (!joined) network.run_until(network.simulator().now() + opt.measure);
  return joined;
}

RunOutput run_config(const core::BanConfig& config, bool monitored,
                     const FuzzOptions& opt) {
  core::BanNetwork network{config};
  std::optional<InvariantMonitor> monitor;
  if (monitored) {
    monitor.emplace(network.context());
    monitor->watch_network(network);
  }
  RunOutput out;
  out.joined = run_window(network, opt);
  if (monitor) {
    monitor->final_audit(network.simulator().now());
    out.monitor_violations = monitor->total_violations();
    out.monitor_report = monitor->report();
  }
  out.energies = network.energy_snapshot();
  return out;
}

/// The reused-cell leg of the reset-vs-rebuild oracle: builds a cell from
/// a same-shape decoy config (different seed and physiology, identical
/// roster/fault/storage shape), runs it for a while so every arena, meter,
/// store and fault process accumulates state, then resets to `config` and
/// measures exactly as run_config() does.
std::vector<double> run_reset_config(const core::BanConfig& config,
                                     const FuzzOptions& opt) {
  core::BanConfig decoy = config;
  decoy.seed = config.seed ^ 0x9e3779b97f4a7c15ull;
  decoy.ecg.heart_rate_bpm =
      std::min(config.ecg.heart_rate_bpm + 11.0, 180.0);

  core::BanNetwork network{decoy};
  (void)core::run(network, {.measure = sim::Duration::milliseconds(150),
                            .join_deadline = {}});

  network.reset(config);
  (void)run_window(network, opt);
  return flatten(network.energy_snapshot());
}

}  // namespace

core::BanConfig make_fuzz_config(std::uint64_t seed) {
  sim::Rng rng = sim::Rng::stream(seed, "fuzz/config");
  core::BanConfig config;
  config.seed = seed;

  const int nodes = rng.uniform_int(1, 6);
  config.num_nodes = static_cast<std::size_t>(nodes);

  if (rng.chance(0.5)) {
    config.protocol = mac::Protocol::kStaticTdma;
    config.tdma.max_slots =
        static_cast<std::uint8_t>(rng.uniform_int(nodes, 6));
  } else {
    config.protocol = mac::Protocol::kDynamicTdma;
    config.tdma.max_slots = 0;
  }
  config.tdma.slot = sim::Duration::from_milliseconds(rng.uniform(5.0, 15.0));
  config.tdma.pan_id = static_cast<std::uint8_t>(rng.uniform_int(0, 3));
  config.tdma.fast_grant = rng.chance(0.7);
  config.tdma.ack_data = rng.chance(0.3);
  config.tdma.radio_power_down = rng.chance(0.3);

  config.stagger = sim::Duration::from_milliseconds(rng.uniform(5.0, 80.0));
  if (rng.chance(0.25)) {
    config.address_offset =
        static_cast<net::NodeId>(rng.uniform_int(0, 200));
  }

  config.roster.resize(config.num_nodes);
  for (auto& spec : config.roster) {
    const double draw = rng.uniform(0.0, 1.0);
    if (draw < 0.50) {
      spec.app = core::AppKind::kEcgStreaming;
    } else if (draw < 0.75) {
      spec.app = core::AppKind::kRpeak;
    } else if (draw < 0.90) {
      spec.app = core::AppKind::kEegMonitoring;
    } else {
      spec.app = core::AppKind::kNone;
    }
    if (rng.chance(0.2)) spec.clock_skew = rng.uniform(-2.0e-3, 2.0e-3);
    if (rng.chance(0.2)) {
      spec.boot_offset =
          sim::Duration::from_milliseconds(rng.uniform(0.0, 40.0));
    }
  }

  // standard_ban_layout covers up to 6 nodes, so the link model is always
  // applicable here.
  config.use_link_model = rng.chance(0.25);

  // Fault-plan dimension, drawn last so the scenario draws above stay
  // where they were for pre-fault corpora.  Bounds keep every fuzzed fault
  // recoverable: fade never fully blacks out a link (fer <= 0.9) and
  // always exits (p_exit >= 0.2), scripted faults land after the join
  // phase starts settling but inside the campaign oracle's horizon.
  if (rng.chance(0.4)) {
    fault::FaultPlan& plan = config.fault_plan;
    plan.enabled = true;
    // A faulted cell always carries the recovery hardening; the legacy
    // infinite-listen configuration is deliberately out of scope (a fuzzed
    // radio lock-up would hang it by design).
    config.tdma.missed_beacon_limit =
        static_cast<std::uint8_t>(rng.uniform_int(2, 3));
    config.tdma.search_listen =
        sim::Duration::from_milliseconds(rng.uniform(100.0, 250.0));
    config.tdma.search_backoff_base =
        sim::Duration::from_milliseconds(rng.uniform(20.0, 60.0));
    config.tdma.search_backoff_max =
        sim::Duration::from_milliseconds(rng.uniform(300.0, 600.0));
    if (config.protocol == mac::Protocol::kDynamicTdma) {
      config.tdma.reclaim_after_cycles =
          static_cast<std::uint32_t>(rng.uniform_int(4, 6));
    }
    if (rng.chance(0.5)) {
      plan.fade.enabled = true;
      plan.fade.p_enter = rng.uniform(0.01, 0.08);
      plan.fade.p_exit = rng.uniform(0.2, 0.5);
      plan.fade.step =
          sim::Duration::from_milliseconds(rng.uniform(2.0, 10.0));
      plan.fade.fer = rng.uniform(0.3, 0.9);
    }
    if (rng.chance(0.3)) {
      plan.interferer.enabled = true;
      plan.interferer.period =
          sim::Duration::from_milliseconds(rng.uniform(60.0, 200.0));
      plan.interferer.burst =
          sim::Duration::from_milliseconds(rng.uniform(1.0, 8.0));
      plan.interferer.fer = rng.uniform(0.2, 0.9);
    }
    const int episodes = rng.uniform_int(0, 2);
    for (int i = 0; i < episodes; ++i) {
      fault::ShadowEpisode ep;
      ep.node = static_cast<std::uint32_t>(rng.uniform_int(0, nodes));
      ep.start = sim::TimePoint::zero() +
                 sim::Duration::from_milliseconds(rng.uniform(2000.0, 4000.0));
      ep.duration =
          sim::Duration::from_milliseconds(rng.uniform(100.0, 800.0));
      ep.extra_loss_db = rng.uniform(6.0, 30.0);
      ep.fer = rng.uniform(0.0, 0.9);
      plan.episodes.push_back(ep);
    }
    const int events = rng.uniform_int(0, 2);
    for (int i = 0; i < events; ++i) {
      fault::FaultEvent ev;
      const double kind = rng.uniform(0.0, 1.0);
      ev.kind = kind < 0.5   ? fault::FaultKind::kCrash
                : kind < 0.8 ? fault::FaultKind::kRadioLockup
                             : fault::FaultKind::kSkewStep;
      ev.node = static_cast<std::uint32_t>(rng.uniform_int(1, nodes));
      ev.at = sim::TimePoint::zero() +
              sim::Duration::from_milliseconds(rng.uniform(2000.0, 4000.0));
      ev.down = sim::Duration::from_milliseconds(rng.uniform(100.0, 900.0));
      ev.skew_delta = rng.uniform(-1.5e-3, 1.5e-3);
      plan.events.push_back(ev);
    }
    if (rng.chance(0.25)) {
      plan.crashes.enabled = true;
      plan.crashes.rate_hz = rng.uniform(0.02, 0.2);
      plan.crashes.min_down =
          sim::Duration::from_milliseconds(rng.uniform(100.0, 300.0));
      plan.crashes.max_down =
          plan.crashes.min_down +
          sim::Duration::from_milliseconds(rng.uniform(0.0, 900.0));
    }
    if (rng.chance(0.15)) {
      plan.brownout.enabled = true;
      plan.brownout.capacity_mah = rng.uniform(0.02, 0.1);
      plan.brownout.esr_ohms = rng.uniform(40.0, 150.0);
      plan.brownout.brownout_volts = rng.uniform(3.4, 3.8);
      plan.brownout.recovery =
          sim::Duration::from_milliseconds(rng.uniform(300.0, 1200.0));
    }
  }

  // Storage dimension, drawn after the fault dimension for the same
  // reason that one is drawn after the scenario draws: pre-storage corpora
  // keep their meaning.  Stores are sized so depletion lands inside the
  // fuzz window (a node draws ~10-30 mW), and harvest may out-run the load
  // entirely — both the dying and the immortal cases are interesting.
  if (rng.chance(0.3)) {
    hw::StorageParams& storage = config.storage;
    storage.enabled = true;
    storage.check = sim::Duration::from_milliseconds(rng.uniform(20.0, 200.0));
    if (rng.chance(0.5)) {
      storage.kind = hw::StorageKind::kBattery;
      storage.battery.capacity_mah = rng.uniform(0.005, 0.2);
    } else {
      storage.kind = hw::StorageKind::kCapacitor;
      storage.capacitor.capacitance_farads = rng.uniform(0.002, 0.05);
    }
    if (rng.chance(0.4)) {
      hw::HarvestParams& harvest = storage.harvest;
      harvest.enabled = true;
      const double profile = rng.uniform(0.0, 1.0);
      harvest.profile = profile < 0.4 ? hw::HarvestParams::Profile::kConstant
                        : profile < 0.7 ? hw::HarvestParams::Profile::kSine
                                        : hw::HarvestParams::Profile::kSquare;
      harvest.watts = rng.uniform(0.001, 0.03);
      harvest.floor_watts = rng.uniform(-0.005, 0.01);
      harvest.period = sim::Duration::from_milliseconds(rng.uniform(200.0, 2000.0));
      harvest.duty = rng.uniform(0.1, 0.9);
    }
    // One node may opt back onto the bench supply: mixed cells exercise
    // the driver's sparse registration.
    if (rng.chance(0.25) && !config.roster.empty()) {
      const auto victim = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(config.roster.size()) - 1));
      config.roster[victim].storage = hw::StorageParams{};  // disabled
    }
  }

  // MAC-protocol dimension, drawn last like the two above so pre-seam
  // corpora keep their meaning (a seed that reproduced a TDMA failure
  // still builds the same TDMA cell).  A contention draw overwrites the
  // static/dynamic one, and the TDMA draws simply go unused.
  {
    const double protocol = rng.uniform(0.0, 1.0);
    if (protocol < 0.2) {
      config.protocol = mac::Protocol::kAloha;
      config.aloha.ack_data = rng.chance(0.7);
      config.aloha.max_retries =
          static_cast<std::uint8_t>(rng.uniform_int(1, 5));
      config.aloha.backoff_base =
          sim::Duration::from_milliseconds(rng.uniform(2.0, 8.0));
    } else if (protocol < 0.4) {
      config.protocol = mac::Protocol::kCsmaCa;
      config.csma.min_be = static_cast<std::uint8_t>(rng.uniform_int(2, 3));
      config.csma.max_be = static_cast<std::uint8_t>(
          rng.uniform_int(config.csma.min_be, 5));
      config.csma.max_backoffs =
          static_cast<std::uint8_t>(rng.uniform_int(3, 5));
      config.csma.ack_data = rng.chance(0.7);
      config.csma.max_retries =
          static_cast<std::uint8_t>(rng.uniform_int(1, 4));
      if (rng.chance(0.3)) {
        // CFP cells: a long superframe keeps the CAP usable next to the
        // reserved slots, and at least one roster member owns a GTS.
        config.csma.cycle =
            sim::Duration::from_milliseconds(rng.uniform(40.0, 60.0));
        config.csma.gts_slots =
            static_cast<std::uint8_t>(rng.uniform_int(1, 2));
        config.csma.gts_slot =
            sim::Duration::from_milliseconds(rng.uniform(3.0, 5.0));
        bool any_gts = false;
        for (core::NodeSpec& spec : config.roster) {
          if (rng.chance(0.5)) {
            spec.csma_gts = true;
            any_gts = true;
          }
        }
        if (!any_gts) config.roster.front().csma_gts = true;
      } else {
        config.csma.cycle =
            sim::Duration::from_milliseconds(rng.uniform(20.0, 50.0));
      }
    }
  }
  return config;
}

namespace {

bool storage_active(const core::BanConfig& config) {
  if (config.storage.enabled) return true;
  for (const core::NodeSpec& spec : config.roster) {
    if (spec.storage && spec.storage->enabled) return true;
  }
  return false;
}

}  // namespace

ScenarioFuzzer::ScenarioFuzzer(FuzzOptions options)
    : options_{std::move(options)} {}

std::vector<double> ScenarioFuzzer::reference_energies(
    const core::BanConfig& config) const {
  return flatten(run_config(config, /*monitored=*/false, options_).energies);
}

std::optional<std::string> ScenarioFuzzer::evaluate(
    const core::BanConfig& config) const {
  // Invariants live under the monitor at reference fidelity.
  const RunOutput monitored = run_config(config, true, options_);
  if (monitored.monitor_violations != 0) {
    return "invariant violations (reference fidelity):\n" +
           monitored.monitor_report;
  }

  // Oracle: monitor-on vs monitor-off, bit-identical energies.
  const RunOutput plain = run_config(config, false, options_);
  const auto mon_flat = flatten(monitored.energies);
  const auto plain_flat = flatten(plain.energies);
  if (mon_flat != plain_flat) {
    for (std::size_t i = 0; i < std::min(mon_flat.size(), plain_flat.size());
         ++i) {
      if (mon_flat[i] != plain_flat[i]) {
        return "monitor-on/off oracle: energy slot " + std::to_string(i) +
               " differs (" + std::to_string(mon_flat[i]) + " J vs " +
               std::to_string(plain_flat[i]) + " J)";
      }
    }
    return "monitor-on/off oracle: energy vector shapes differ";
  }

  // Oracle: reset-vs-rebuild.  A cell that already ran a same-shape decoy
  // and was reset to `config` must reproduce the fresh build bit-for-bit —
  // including with storage and fault plans active.
  const auto reset_flat = run_reset_config(config, options_);
  if (reset_flat != plain_flat) {
    for (std::size_t i = 0;
         i < std::min(reset_flat.size(), plain_flat.size()); ++i) {
      if (reset_flat[i] != plain_flat[i]) {
        return "reset-vs-rebuild oracle: energy slot " + std::to_string(i) +
               " differs (reset " + std::to_string(reset_flat[i]) +
               " J vs rebuild " + std::to_string(plain_flat[i]) + " J)";
      }
    }
    return "reset-vs-rebuild oracle: energy vector shapes differ";
  }

  // Invariants must also hold at model fidelity (the estimator drives the
  // same state machines with the second-order effects zeroed).
  core::BanConfig model_config = config;
  model_config.fidelity = core::Fidelity::kModel;
  const RunOutput model = run_config(model_config, true, options_);
  if (model.monitor_violations != 0) {
    return "invariant violations (model fidelity):\n" + model.monitor_report;
  }

  // Oracle: bounded ref-vs-model divergence (only comparable when both
  // networks actually formed).  Brown-out and live storage both feed the
  // metered energy back into crash timing, so crash instants — and with
  // them whole radio-on stretches — legitimately differ between
  // fidelities; skip the bound for those plans.
  if (plain.joined && model.joined && !config.fault_plan.brownout.enabled &&
      !storage_active(config) &&
      plain.energies.size() == model.energies.size()) {
    for (std::size_t i = 0; i < plain.energies.size(); ++i) {
      const double ref_j = plain.energies[i].total_joules();
      const double model_j = model.energies[i].total_joules();
      const double hi = std::max(ref_j, model_j);
      const double lo = std::min(ref_j, model_j);
      if (hi > 5.0 * lo + 5e-3) {
        return "fidelity oracle: node '" + plain.energies[i].node +
               "' diverges (reference " + std::to_string(ref_j * 1e3) +
               " mJ vs model " + std::to_string(model_j * 1e3) + " mJ)";
      }
    }
  }

  // Oracle: fault campaigns terminate and conserve.  The campaign runner
  // stops the injector's recurring processes at the horizon, lets the
  // in-flight faults drain (scheduled reboots still fire), then re-audits
  // — a crashed node must not leave frames on the air or joules off the
  // ledger once the cell quiesces.
  if (config.fault_plan.any()) {
    const CampaignOutcome campaign =
        run_fault_campaign(config, {.horizon = sim::Duration::seconds(5),
                                    .drain = sim::Duration::seconds(2)});
    if (campaign.violations != 0) {
      return "fault-campaign oracle: violations after injector drain:\n" +
             campaign.violation_report;
    }
  }

  if (storage_active(config)) {
    // Oracle: the storage driver is a pure observer until a store runs
    // dry.  The same cell with storage stripped and with an effectively
    // infinite battery (nothing ever depletes, no harvest) must meter
    // bit-identical energies — the driver's sampling events interleave
    // with the cell's but may never perturb it.
    core::BanConfig off = config;
    off.storage = hw::StorageParams{};
    for (auto& spec : off.roster) spec.storage.reset();
    core::BanConfig infinite = off;
    infinite.storage.enabled = true;
    infinite.storage.kind = hw::StorageKind::kBattery;
    infinite.storage.battery.capacity_mah = 1.0e9;
    const auto off_flat = flatten(run_config(off, false, options_).energies);
    const auto inf_flat =
        flatten(run_config(infinite, false, options_).energies);
    if (off_flat != inf_flat) {
      return "storage-on/off oracle: an undepleted store perturbed the "
             "cell's energies";
    }

    // Oracle: lifetime campaigns terminate and conserve — the storage
    // closure identities must hold at the instant the first node dies
    // (or at the horizon when nothing does).
    const LifetimeOutcome lifetime = run_lifetime_campaign(
        config, {.horizon = sim::Duration::seconds(5),
                 .poll = sim::Duration::milliseconds(250)});
    if (lifetime.violations != 0) {
      return "lifetime-campaign oracle: violations at stop:\n" +
             lifetime.violation_report;
    }
  }
  return std::nullopt;
}

CaseOutcome ScenarioFuzzer::run_case(std::uint64_t seed) const {
  CaseOutcome outcome;
  outcome.seed = seed;

  core::BanConfig config = make_fuzz_config(seed);
  std::optional<std::string> failure = evaluate(config);
  if (!failure) return outcome;

  if (options_.shrink) {
    // Greedy minimization: keep any single simplification that still fails.
    using Mutation = std::function<bool(core::BanConfig&)>;
    const std::vector<Mutation> mutations = {
        [](core::BanConfig& c) {
          if (c.roster.size() <= 1) return false;
          c.roster.resize((c.roster.size() + 1) / 2);
          c.num_nodes = c.roster.size();
          return true;
        },
        [](core::BanConfig& c) {
          if (!c.fault_plan.any()) return false;
          c.fault_plan = fault::FaultPlan{};
          return true;
        },
        // Downgrade exotic protocols: a failure that survives on static
        // TDMA is a seam bug, not a protocol bug.
        [](core::BanConfig& c) {
          if (c.protocol == mac::Protocol::kStaticTdma) return false;
          c.protocol = mac::Protocol::kStaticTdma;
          if (c.tdma.max_slots == 0) {
            c.tdma.max_slots = static_cast<std::uint8_t>(
                std::max<std::size_t>(c.effective_nodes(), 1));
          }
          for (core::NodeSpec& spec : c.roster) spec.csma_gts.reset();
          return true;
        },
        [](core::BanConfig& c) {
          if (!c.use_link_model) return false;
          c.use_link_model = false;
          return true;
        },
        [](core::BanConfig& c) {
          bool changed = false;
          for (auto& spec : c.roster) {
            if (spec.app != core::AppKind::kEcgStreaming ||
                spec.clock_skew || spec.boot_offset) {
              changed = true;
            }
            spec = core::NodeSpec{};
            spec.app = core::AppKind::kEcgStreaming;
          }
          return changed;
        },
        [](core::BanConfig& c) {
          if (!c.tdma.ack_data && !c.tdma.radio_power_down) return false;
          c.tdma.ack_data = false;
          c.tdma.radio_power_down = false;
          return true;
        },
        [](core::BanConfig& c) {
          bool changed = c.storage.enabled;
          c.storage = hw::StorageParams{};
          for (auto& spec : c.roster) {
            if (spec.storage) changed = true;
            spec.storage.reset();
          }
          return changed;
        },
    };
    for (const auto& mutate : mutations) {
      core::BanConfig candidate = config;
      if (!mutate(candidate)) continue;
      if (auto candidate_failure = evaluate(candidate)) {
        config = std::move(candidate);
        failure = std::move(candidate_failure);
      }
    }
  }

  outcome.ok = false;
  outcome.failure = *failure;
  outcome.config_ini = core::serialize_config(config);
  return outcome;
}

FuzzSummary ScenarioFuzzer::run() const {
  FuzzSummary summary;

  std::vector<std::function<CaseOutcome()>> cases;
  cases.reserve(options_.num_seeds);
  for (std::size_t i = 0; i < options_.num_seeds; ++i) {
    const std::uint64_t seed = options_.start_seed + i;
    cases.emplace_back([this, seed] { return run_case(seed); });
  }
  sim::ScenarioRunner runner{options_.jobs};
  const std::vector<CaseOutcome> outcomes = runner.run(cases);
  summary.cases_run = outcomes.size();
  for (const auto& outcome : outcomes) {
    if (!outcome.ok) {
      ++summary.failures;
      summary.failed.push_back(outcome);
    }
  }

  // Serial vs parallel oracle: the same scenario batch through a 1-worker
  // and an N-worker pool must be bit-identical.
  const std::size_t oracle_seeds =
      std::min(options_.parallel_oracle_seeds, options_.num_seeds);
  if (oracle_seeds > 0) {
    std::vector<std::function<std::vector<double>()>> batch;
    batch.reserve(oracle_seeds);
    for (std::size_t i = 0; i < oracle_seeds; ++i) {
      const std::uint64_t seed = options_.start_seed + i;
      batch.emplace_back(
          [this, seed] { return reference_energies(make_fuzz_config(seed)); });
    }
    sim::ScenarioRunner parallel{options_.jobs == 1 ? 0 : options_.jobs};
    sim::ScenarioRunner serial{1};
    const auto parallel_energies = parallel.run(batch);
    const auto serial_energies = serial.run(batch);
    for (std::size_t i = 0; i < oracle_seeds; ++i) {
      if (parallel_energies[i] != serial_energies[i]) {
        summary.parallel_oracle_ok = false;
        summary.parallel_oracle_detail =
            "serial-vs-parallel oracle: seed " +
            std::to_string(options_.start_seed + i) +
            " produced different energies on " +
            std::to_string(parallel.jobs()) + " workers";
        break;
      }
    }
  }

  // Shard-resume oracle: one tiny campaign executed whole, a second
  // stopped after a seed-chosen shard count and resumed — the final
  // per-patient rows and lifetime CDF must be bit-identical.  Runs
  // in-process (workers = 0): this pins the store/resume determinism
  // contract, not the process plumbing.
  namespace fs = std::filesystem;
  campaign::CampaignSpec spec;
  spec.patients = 6;
  spec.shard_size = 2;
  spec.protocols = {mac::Protocol::kStaticTdma, mac::Protocol::kAloha};
  spec.seeds = {options_.start_seed};
  spec.measure = options_.measure;
  spec.settle = kSettle;
  spec.join_deadline = kJoinDeadline;
  core::BanConfig base;
  base.num_nodes = 3;
  base.tdma = mac::TdmaConfig::static_plan(sim::Duration::milliseconds(30), 3);
  base.app = core::AppKind::kEcgStreaming;
  base.storage.enabled = true;
  base.storage.battery.capacity_mah = 20.0;

  const fs::path root = fs::temp_directory_path() /
                        ("bansim_fuzz_resume_" + std::to_string(::getpid()));
  const fs::path whole_dir = root / "whole";
  const fs::path split_dir = root / "split";
  try {
    fs::remove_all(root);
    const std::size_t total = campaign::plan_shards(spec).size();
    // Seed-chosen split point in [1, total - 1].
    const std::size_t split =
        1 + static_cast<std::size_t>(options_.start_seed % (total - 1));

    campaign::create_campaign(whole_dir, spec, base);
    campaign::RunCampaignOptions in_process;
    in_process.workers = 0;
    (void)campaign::run_campaign(whole_dir, in_process);

    campaign::create_campaign(split_dir, spec, base);
    campaign::RunCampaignOptions stop = in_process;
    stop.stop_after_shards = split;
    const auto partial = campaign::run_campaign(split_dir, stop);
    const auto resumed = campaign::run_campaign(split_dir, in_process);

    const auto aggregates_of = [](const fs::path& dir) {
      return campaign::aggregate(campaign::load_campaign(dir),
                                 campaign::collect_results(dir));
    };
    const campaign::CampaignAggregates whole = aggregates_of(whole_dir);
    const campaign::CampaignAggregates split_agg = aggregates_of(split_dir);

    const auto fail = [&](const std::string& why) {
      summary.shard_resume_oracle_ok = false;
      summary.shard_resume_oracle_detail =
          "shard-resume oracle (split after " + std::to_string(split) + "/" +
          std::to_string(total) + " shards): " + why;
    };
    if (!partial.incomplete || resumed.incomplete) {
      fail("stop/resume bookkeeping wrong (partial.incomplete=" +
           std::to_string(partial.incomplete) + ", resumed.incomplete=" +
           std::to_string(resumed.incomplete) + ")");
    } else if (!whole.complete() || !split_agg.complete()) {
      fail("aggregates incomplete after resume");
    } else if (campaign::render_csv(whole) != campaign::render_csv(split_agg)) {
      fail("per-patient rows differ between whole and resumed runs");
    } else if (whole.lifetime_cdf.render_csv() !=
               split_agg.lifetime_cdf.render_csv()) {
      fail("lifetime CDFs differ between whole and resumed runs");
    }
  } catch (const std::exception& e) {
    summary.shard_resume_oracle_ok = false;
    summary.shard_resume_oracle_detail =
        std::string("shard-resume oracle threw: ") + e.what();
  }
  std::error_code cleanup_ec;
  fs::remove_all(root, cleanup_ec);
  return summary;
}

}  // namespace bansim::check
