// The paper's Section 5 evaluation, printed in one run: Tables 1-4, Fig. 4,
// Figs. 2-3, Ablation A (which model features the estimator needs),
// Ablation C (radio standby vs power-down), the parameter sensitivity table
// and the MAC comparison baseline.  Seeded and argument-free: the
// cli_output.paper test diffs its stdout against tests/cli_outputs/paper.txt
// byte for byte, and EXPERIMENTS.md's tables are pasted from that file.
//
// The four sweeps fan their independent scenarios out over
// sim::ScenarioRunner at its automatic worker count; results are
// index-ordered, so the output is the same bytes for any core count.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "baseline/powertossim_estimator.hpp"
#include "core/bansim.hpp"
#include "core/config_io.hpp"
#include "sim/scenario_runner.hpp"

namespace {

using namespace bansim;
using sim::Duration;
using sim::TimePoint;

// ---------------------------------------------------------------- Tables 1-4

/// Our table, the paper's table, then our table as CSV.
void print_table(int which, const energy::ValidationTable& table) {
  std::printf("%s\n", table.render().c_str());
  std::printf("%s\n", core::paper_table(which).render().c_str());
  std::printf("reproduction CSV:\n%s\n", table.render_csv().c_str());
}

// ------------------------------------------------------------------ Figure 4

/// Total node energy of ECG streaming (30 ms static TDMA cycle) vs the Rpeak
/// application (120 ms cycle), Real and Sim bars, plus the saving of
/// on-node preprocessing (paper: 65 %).
void print_figure4() {
  const core::Figure4Result fig = core::figure4();
  std::printf("%s\n", fig.render().c_str());
  std::printf(
      "Paper Figure 4: streaming Real 540.6+170.2=710.8 mJ, Sim "
      "502.9+161.2=664.1 mJ;\n"
      "                Rpeak     Real 113.1+133.1=246.2 mJ, Sim "
      "116.7+132.8=249.5 mJ; saving 65%%\n\n");

  // ASCII bars (10 mJ per character) for terminal-side comparison.
  auto bar = [](const char* label, double radio, double mcu) {
    std::printf("  %-22s|", label);
    const auto r = static_cast<int>(radio / 10.0);
    const auto m = static_cast<int>(mcu / 10.0);
    for (int i = 0; i < r; ++i) std::printf("R");
    for (int i = 0; i < m; ++i) std::printf("u");
    std::printf("  %.1f mJ\n", radio + mcu);
  };
  bar("ECG streaming Real", fig.streaming_real_radio_mj,
      fig.streaming_real_mcu_mj);
  bar("ECG streaming Sim", fig.streaming_sim_radio_mj,
      fig.streaming_sim_mcu_mj);
  bar("Rpeak Real", fig.rpeak_real_radio_mj, fig.rpeak_real_mcu_mj);
  bar("Rpeak Sim", fig.rpeak_sim_radio_mj, fig.rpeak_sim_mcu_mj);
  std::printf("\n");
}

// ------------------------------------------------------------- Figures 2, 3

/// The protocol timeline of a 3-node static or dynamic TDMA network: SB
/// beacons, SSR slot requests from joining nodes, grants, and the data
/// slots of the steady state.  The dynamic cycle stretches as nodes join.
std::string capture_timeline(mac::Protocol protocol) {
  core::BanConfig cfg;
  cfg.num_nodes = 3;
  cfg.protocol = protocol;
  cfg.app = core::AppKind::kEcgStreaming;
  if (protocol == mac::Protocol::kStaticTdma) {
    cfg.tdma = mac::TdmaConfig::static_plan(Duration::milliseconds(60), 5);
    cfg.streaming.sample_rate_hz = 105;
  } else {
    cfg.tdma = mac::TdmaConfig::dynamic_plan();
    cfg.streaming.sample_rate_hz = 100;
  }
  cfg.stagger = Duration::milliseconds(150);  // spread the joins out

  core::BanNetwork network{cfg};
  auto sink = std::make_shared<sim::MemorySink>();
  network.tracer().attach(sink, {sim::TraceCategory::kMac});

  network.start();
  network.run_until(TimePoint::zero() + Duration::milliseconds(700));

  core::TimelineOptions options;
  options.start = TimePoint::zero() + Duration::milliseconds(0);
  options.window = Duration::milliseconds(640);
  options.bin = Duration::milliseconds(4);
  return core::render_timeline(sink->records(), options);
}

void print_timelines() {
  std::printf("Figure 2 (static TDMA: fixed cycle, SSR in free slots):\n%s\n",
              capture_timeline(mac::Protocol::kStaticTdma).c_str());
  std::printf(
      "Figure 3 (dynamic TDMA: cycle grows as nodes join; SSR in ES):\n%s\n",
      capture_timeline(mac::Protocol::kDynamicTdma).c_str());
}

// ---------------------------------------------------------------- Ablation A
//
// The paper argues (Section 4.2) that an accurate BAN energy model must
// account for collisions (hardware CRC), idle listening, overhearing and
// control-packet overhead — the things plain PowerTOSSIM-style accounting
// simplifies.  This runs the reference 5-node streaming scenario with a
// PowerTOSSIM-style analytical estimator attached and reports its radio
// estimation error with each ingredient toggled off.

struct AblationRow {
  const char* label;
  baseline::EstimatorOptions options;
};

struct AblationResult {
  double est_radio_mj{0};
  double est_mcu_mj{0};
  double ref_radio_mj{0};
  double ref_mcu_mj{0};
  bool joined{false};
};

AblationResult run_estimator_variant(const core::BanConfig& cfg,
                                     const core::MeasurementProtocol& protocol,
                                     const baseline::EstimatorOptions& options) {
  baseline::PowerTossimEstimator estimator{
      cfg.board.mcu, cfg.board.radio, cfg.board.phy,
      os::CycleCostModel::platform_defaults(), options};

  core::BanNetwork network{cfg, &estimator};
  // Measure from t=0 so the join phase (SSR control traffic, searching
  // listen) is inside the window; steady state then dominates the tail.
  estimator.begin_measurement(TimePoint::zero());
  const core::RunRecord record = core::run(network, protocol);
  AblationResult result;
  result.joined = record.joined;
  if (!result.joined) return result;

  result.ref_radio_mj = record.close.joules[0].radio * 1e3;
  result.ref_mcu_mj = record.close.joules[0].mcu * 1e3;

  const auto estimates = estimator.finalize(record.close.at);
  const auto it = estimates.find("node1");
  result.est_radio_mj =
      it != estimates.end() ? it->second.radio_joules * 1e3 : 0.0;
  result.est_mcu_mj = it != estimates.end() ? it->second.mcu_joules * 1e3 : 0.0;
  return result;
}

void print_ablation_model_features() {
  core::PaperSetup setup;
  core::BanConfig cfg =
      core::streaming_static_config(setup, Duration::milliseconds(30));
  cfg.streaming.sample_rate_hz = 205;
  core::MeasurementProtocol protocol;

  const std::vector<AblationRow> rows = {
      {"full analytical model", {true, true, true}},
      {"- control packets", {false, true, true}},
      {"- listen windows (idle listening + beacons)", {true, false, true}},
      {"- MCU task accounting", {true, true, false}},
  };

  std::printf(
      "Ablation A: analytical (PowerTOSSIM-style) radio/uC estimates vs the "
      "reference platform,\n5-node ECG streaming, static TDMA 30 ms, 60 s "
      "window\n\n");
  std::printf("%-46s %12s %12s %10s %10s\n", "estimator variant",
              "radio (mJ)", "uC (mJ)", "radio err", "uC err");

  // Each estimator variant re-runs the whole reference scenario with its
  // own network and estimator.
  std::vector<std::function<AblationResult()>> scenarios;
  for (const AblationRow& row : rows) {
    scenarios.push_back([cfg, protocol, options = row.options] {
      return run_estimator_variant(cfg, protocol, options);
    });
  }
  const auto results = sim::ScenarioRunner{}.run(scenarios);

  for (std::size_t i = 0; i < rows.size(); ++i) {
    const AblationResult& r = results[i];
    if (!r.joined) continue;
    std::printf("%-46s %12.1f %12.1f %9.1f%% %9.1f%%\n", rows[i].label,
                r.est_radio_mj, r.est_mcu_mj,
                100.0 * (r.est_radio_mj - r.ref_radio_mj) / r.ref_radio_mj,
                100.0 * (r.est_mcu_mj - r.ref_mcu_mj) / r.ref_mcu_mj);
  }
  std::printf(
      "\n\n(reference radio/uC come from the platform meters; a negative "
      "error is underestimation.\n On the node side, control-frame TX (SSRs) "
      "is sub-mJ — the control overhead the paper\n warns about is dominated "
      "by the beacon *listen* windows, which the third row removes:\n "
      "dropping them collapses the radio estimate, exactly why "
      "idle-listening/beacon accounting\n is mandatory for BAN energy "
      "models.)\n\n");
}

// ---------------------------------------------------------------- Ablation C
//
// The nRF2401 offers a 1 uA power-down mode below its 12 uA standby; the
// paper notes the platform can "switch-off the radio when not used".  The
// saving is the standby-vs-power-down current over the idle stretch minus
// the extra crystal start-ups, and the beacon listen windows dwarf it.

core::ScenarioResult run_radio_policy(int cycle_ms, bool power_down) {
  core::PaperSetup setup;
  core::BanConfig cfg =
      core::rpeak_static_config(setup, Duration::milliseconds(cycle_ms));
  cfg.tdma.radio_power_down = power_down;
  return core::run_scenario(cfg, core::MeasurementProtocol{});
}

void print_ablation_radio_policy() {
  std::printf(
      "Ablation C: radio standby vs power-down between TDMA activities\n"
      "(Rpeak app, 5-node static TDMA, node radio energy over 60 s)\n\n");
  std::printf("%10s | %14s %14s %12s\n", "cycle(ms)", "standby (mJ)",
              "power-down(mJ)", "saving");

  // Scenario 2i is standby and 2i+1 power-down for cycle i.
  const std::vector<int> cycles = {60, 120, 240, 480};
  std::vector<std::function<core::ScenarioResult()>> scenarios;
  for (const int cycle_ms : cycles) {
    scenarios.push_back([cycle_ms] { return run_radio_policy(cycle_ms, false); });
    scenarios.push_back([cycle_ms] { return run_radio_policy(cycle_ms, true); });
  }
  const auto results = sim::ScenarioRunner{}.run(scenarios);

  for (std::size_t i = 0; i < cycles.size(); ++i) {
    const core::ScenarioResult& sb = results[2 * i];
    const core::ScenarioResult& pd = results[2 * i + 1];
    const double standby = sb.joined ? sb.radio_mj : -1.0;
    const double off = pd.joined ? pd.radio_mj : -1.0;
    std::printf("%10d | %14.2f %14.2f %11.2f%%\n", cycles[i], standby, off,
                100.0 * (standby - off) / standby);
  }
  std::printf(
      "\n\n(Savings of about 2 %%: idle-mode housekeeping is marginal next to "
      "the guard/listen\n windows, which is why the paper neglects standby "
      "current in its model.)\n\n");
}

// --------------------------------------------------------------- Sensitivity
//
// Perturbs one parameter at a time by ±20 % around the paper's headline
// operating point (5-node streaming, 30 ms static TDMA) and reports the
// elasticity of the validated node energy (radio + MCU):
//   elasticity = (dE/E) / (dp/p)
// An elasticity near 1 means the parameter linearly owns the budget; near
// 0 means the model is insensitive to it.

double sensitivity_energy_mj(const core::BanConfig& cfg) {
  core::MeasurementProtocol protocol;
  protocol.measure = Duration::seconds(30);
  const core::ScenarioResult r = core::run_scenario(cfg, protocol);
  return r.joined ? r.total_mj : -1.0;
}

struct Knob {
  const char* name;
  void (*apply)(core::BanConfig&, double factor);
};

void print_sensitivity() {
  core::PaperSetup setup;
  const core::BanConfig baseline =
      core::streaming_static_config(setup, Duration::milliseconds(30));

  const Knob knobs[] = {
      {"radio RX current",
       [](core::BanConfig& c, double f) { c.board.radio.rx_current_amps *= f; }},
      {"radio TX current",
       [](core::BanConfig& c, double f) { c.board.radio.tx_current_amps *= f; }},
      {"radio settle time",
       [](core::BanConfig& c, double f) {
         c.board.radio.settle_time = c.board.radio.settle_time.scaled(f);
       }},
      {"MCU active current",
       [](core::BanConfig& c, double f) { c.board.mcu.active_current_amps *= f; }},
      {"MCU sleep current",
       [](core::BanConfig& c, double f) { c.board.mcu.lpm_current_amps *= f; }},
      {"guard time (fixed)",
       [](core::BanConfig& c, double f) {
         c.tdma.guard_fixed = c.tdma.guard_fixed.scaled(f);
       }},
      {"SPI clock-in rate",
       [](core::BanConfig& c, double f) { c.board.radio.spi_rate_bps *= f; }},
      {"air data rate",
       [](core::BanConfig& c, double f) { c.board.phy.air_rate_bps *= f; }},
  };

  // Scenario 0 is the baseline; knob k contributes scenarios 1+2k (-20 %)
  // and 2+2k (+20 %).
  std::vector<std::function<double()>> scenarios;
  scenarios.push_back([baseline] { return sensitivity_energy_mj(baseline); });
  for (const Knob& knob : knobs) {
    for (const double factor : {0.8, 1.2}) {
      core::BanConfig cfg = baseline;
      knob.apply(cfg, factor);
      scenarios.push_back([cfg] { return sensitivity_energy_mj(cfg); });
    }
  }
  const auto results = sim::ScenarioRunner{}.run(scenarios);
  const double base_mj = results[0];

  std::printf(
      "Parameter sensitivity of validated node energy (radio + uC)\n"
      "5-node ECG streaming, 30 ms static TDMA; baseline %.1f mJ / 30 s\n\n",
      base_mj);
  std::printf("%-22s | %11s %11s | %10s\n", "parameter", "-20% -> mJ",
              "+20% -> mJ", "elasticity");
  std::printf("%s\n", std::string(64, '-').c_str());
  for (std::size_t k = 0; k < std::size(knobs); ++k) {
    const double lo_mj = results[1 + 2 * k];
    const double hi_mj = results[2 + 2 * k];
    const double elasticity = (hi_mj - lo_mj) / base_mj / 0.4;
    std::printf("%-22s | %11.1f %11.1f | %+10.2f\n", knobs[k].name, lo_mj,
                hi_mj, elasticity);
  }
  std::printf(
      "\n\n(RX current and the guard window dominate — they set the beacon "
      "listen cost;\n faster air/SPI rates barely matter because the data "
      "burst is already short.\n This is why the paper's model needs exact "
      "RX-window timing but tolerates\n a coarse CPU-cycle mapping.)\n\n");
}

// ------------------------------------------------------------ MAC comparison
//
// The paper's TDMA MAC vs the contention side of the zoo — pure ALOHA and
// beacon-enabled slotted CSMA/CA — on identical hardware and an identical
// fixed-rate payload workload, swept over offered load.  Delivery is
// computed the same way for every MAC.

struct MacResult {
  double radio_mj_per_min{0};
  /// 1 - (payloads dropped after max retries or on queue overflow, plus
  /// those still queued) / payloads offered, summed over every node.
  /// Counted at the senders, so a retransmission is not a second delivery.
  double delivery{0};
};

/// Queues one 18-byte payload on `node` every `interval`, on the simulator
/// clock.
struct PayloadTick {
  core::BanNetwork* net;
  std::size_t node;
  Duration interval;

  void operator()() const {
    net->node(node).mac_base().queue_payload(
        std::vector<std::uint8_t>(18, 0xEC));
    net->simulator().schedule_in(interval, *this);
  }
};

/// Five nodes on `cfg`'s MAC with no sampling app (this is a MAC-layer
/// contest), each carrying the same fixed-rate payload generator.  The
/// window starts after join + settle; node 1's radio energy is reported.
MacResult run_mac(core::BanConfig cfg, int interval_ms, double seconds) {
  cfg.num_nodes = 5;
  cfg.app = core::AppKind::kNone;
  cfg.seed = 5;
  core::BanNetwork net{cfg};
  net.start();
  if (!net.run_until_joined(Duration::seconds(1),
                            TimePoint::zero() + Duration::seconds(30))) {
    return {};
  }
  const TimePoint t0 = net.simulator().now();
  const double radio_before =
      net.node(0).board().radio().meter().total_energy(t0);
  for (std::size_t i = 0; i < cfg.num_nodes; ++i) {
    const PayloadTick tick{&net, i, Duration::milliseconds(interval_ms)};
    net.simulator().schedule_in(tick.interval, tick);
  }
  net.run_until(t0 + Duration::from_seconds(seconds));

  std::uint64_t offered = 0, lost = 0;
  for (std::size_t i = 0; i < cfg.num_nodes; ++i) {
    const mac::NodeMacBase& mac = net.node(i).mac_base();
    const mac::MacStatsSnapshot stats = mac.stats_snapshot();
    offered += stats.payloads_queued;
    lost += stats.retry_drops + stats.payloads_dropped + mac.queue_depth();
  }
  MacResult result;
  const double joules = net.node(0).board().radio().meter().total_energy(
                            net.simulator().now()) -
                        radio_before;
  result.radio_mj_per_min = joules * 1e3 * 60.0 / seconds;
  result.delivery = offered > 0 ? 1.0 - static_cast<double>(lost) /
                                            static_cast<double>(offered)
                                : 0.0;
  return result;
}

void print_mac_comparison() {
  std::printf(
      "MAC comparison: static TDMA (paper) vs slotted CSMA/CA vs ALOHA\n"
      "5 nodes, 18-byte payloads, node radio energy normalized to mJ/min\n\n");
  std::printf("%14s | %12s %9s | %12s %9s | %12s %9s\n", "payload every",
              "TDMA mJ/min", "delivery", "CSMA mJ/min", "delivery",
              "ALOHA mJ/min", "delivery");
  std::printf("%s\n", std::string(90, '-').c_str());

  // Slotted CSMA/CA keeps its default superframe (30 ms beacons, CAP only,
  // no GTS), so the contention path itself is what the sweep measures.
  core::BanConfig csma_cell;
  csma_cell.protocol = mac::Protocol::kCsmaCa;
  core::BanConfig aloha_cell;
  aloha_cell.protocol = mac::Protocol::kAloha;

  // Scenario 3i is TDMA, 3i+1 CSMA/CA, and 3i+2 ALOHA for interval i.
  const std::vector<int> intervals = {200, 100, 60, 30, 12, 6};
  std::vector<std::function<MacResult()>> scenarios;
  for (const int interval_ms : intervals) {
    // 30 ms is the shortest cycle whose guard window stays clear of the
    // last data slot; beyond that offered load, TDMA saturates at one
    // frame per cycle and sheds the excess from the queue.
    core::BanConfig tdma_cell;
    tdma_cell.tdma = mac::TdmaConfig::static_plan(
        Duration::milliseconds(std::max(30, interval_ms)), 5);
    for (const core::BanConfig& cfg : {tdma_cell, csma_cell, aloha_cell}) {
      scenarios.push_back(
          [cfg, interval_ms] { return run_mac(cfg, interval_ms, 30.0); });
    }
  }
  const auto results = sim::ScenarioRunner{}.run(scenarios);

  for (std::size_t i = 0; i < intervals.size(); ++i) {
    const MacResult& tdma = results[3 * i];
    const MacResult& csma = results[3 * i + 1];
    const MacResult& aloha = results[3 * i + 2];
    std::printf("%11d ms | %12.1f %8.1f%% | %12.1f %8.1f%% | %12.1f %8.1f%%\n",
                intervals[i], tdma.radio_mj_per_min, tdma.delivery * 100,
                csma.radio_mj_per_min, csma.delivery * 100,
                aloha.radio_mj_per_min, aloha.delivery * 100);
  }
  std::printf(
      "\n\n(Every generator fires in phase, so each round of payloads contends "
      "at once.\n TDMA pays a flat beacon-tracking cost, delivers ~99%% up to "
      "its slot capacity (one\n frame per 30 ms cycle) and sheds excess load "
      "deterministically; ALOHA retransmits\n through the in-phase collisions "
      "at 1.1-1.3x TDMA's energy up to that load, and\n beyond it delivers "
      "more than TDMA at twice the energy; slotted CSMA/CA pays the\n beacon "
      "tax plus a backoff lottery per frame, 3-7x TDMA's energy, and keeps the "
      "most\n payloads once the load exceeds TDMA's capacity.  For the BAN "
      "streaming workload\n TDMA is the cheapest reliable MAC — the paper's "
      "design choice.)\n\n");
}

}  // namespace

int main() {
  print_table(1, core::table1());
  print_table(2, core::table2());
  print_table(3, core::table3());
  print_table(4, core::table4());
  print_figure4();
  print_timelines();
  print_ablation_model_features();
  print_ablation_radio_policy();
  print_sensitivity();
  print_mac_comparison();
  return 0;
}
