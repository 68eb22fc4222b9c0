#include "core/paper_experiments.hpp"

#include <cmath>
#include <cstdio>

namespace bansim::core {

namespace {

using sim::Duration;

/// The paper couples sampling rate and cycle: a 18-byte payload holds 12
/// twelve-bit codes = 6 per channel, so fs = 6 / cycle.
double coupled_sample_rate(Duration cycle) {
  return 6.0 / cycle.to_seconds();
}

MeasurementProtocol protocol_for(const PaperSetup& setup) {
  MeasurementProtocol p;
  p.measure = setup.measure;
  return p;
}

}  // namespace

BanConfig streaming_static_config(const PaperSetup& setup, Duration cycle) {
  BanConfig cfg;
  cfg.seed = setup.seed;
  cfg.num_nodes = setup.static_nodes;
  cfg.tdma = mac::TdmaConfig::static_plan(
      cycle, static_cast<std::uint8_t>(setup.static_nodes));
  cfg.app = AppKind::kEcgStreaming;
  cfg.streaming.sample_rate_hz = coupled_sample_rate(cycle);
  return cfg;
}

BanConfig streaming_dynamic_config(const PaperSetup& setup, std::size_t nodes) {
  BanConfig cfg;
  cfg.seed = setup.seed;
  cfg.num_nodes = nodes;
  cfg.protocol = mac::Protocol::kDynamicTdma;
  cfg.tdma = mac::TdmaConfig::dynamic_plan();
  cfg.app = AppKind::kEcgStreaming;
  const Duration cycle =
      cfg.tdma.slot * (1 + static_cast<std::int64_t>(nodes));
  cfg.streaming.sample_rate_hz = coupled_sample_rate(cycle);
  return cfg;
}

BanConfig rpeak_static_config(const PaperSetup& setup, Duration cycle) {
  BanConfig cfg;
  cfg.seed = setup.seed;
  cfg.num_nodes = setup.static_nodes;
  cfg.tdma = mac::TdmaConfig::static_plan(
      cycle, static_cast<std::uint8_t>(setup.static_nodes));
  cfg.app = AppKind::kRpeak;
  return cfg;
}

BanConfig rpeak_dynamic_config(const PaperSetup& setup, std::size_t nodes) {
  BanConfig cfg;
  cfg.seed = setup.seed;
  cfg.num_nodes = nodes;
  cfg.protocol = mac::Protocol::kDynamicTdma;
  cfg.tdma = mac::TdmaConfig::dynamic_plan();
  cfg.app = AppKind::kRpeak;
  return cfg;
}

energy::ValidationTable table1(const PaperSetup& setup) {
  energy::ValidationTable table;
  table.title =
      "Table 1: Simulator estimations for ECG streaming application and "
      "static TDMA (node energy over 60 s)";
  table.parameter_name = "F (Hz)";
  const struct {
    int fs;
    int cycle_ms;
  } rows[] = {{205, 30}, {105, 60}, {70, 90}, {55, 120}};
  for (const auto& r : rows) {
    BanConfig cfg =
        streaming_static_config(setup, Duration::milliseconds(r.cycle_ms));
    cfg.streaming.sample_rate_hz = r.fs;  // the paper's stated frequencies
    table.rows.push_back(validation_row(cfg, protocol_for(setup),
                                        std::to_string(r.fs),
                                        static_cast<double>(r.cycle_ms)));
  }
  return table;
}

energy::ValidationTable table2(const PaperSetup& setup) {
  energy::ValidationTable table;
  table.title =
      "Table 2: Simulator estimations for ECG streaming application and "
      "dynamic TDMA (node energy over 60 s)";
  table.parameter_name = "# nodes";
  for (std::size_t n = 1; n <= 5; ++n) {
    BanConfig cfg = streaming_dynamic_config(setup, n);
    const double cycle_ms =
        cfg.tdma.slot.to_milliseconds() * (1.0 + static_cast<double>(n));
    table.rows.push_back(validation_row(cfg, protocol_for(setup),
                                        std::to_string(n), cycle_ms));
  }
  return table;
}

energy::ValidationTable table3(const PaperSetup& setup) {
  energy::ValidationTable table;
  table.title =
      "Table 3: Simulator estimations for Rpeak application and static TDMA "
      "(node energy over 60 s)";
  table.parameter_name = "Cycle";
  for (int cycle_ms : {30, 60, 90, 120}) {
    BanConfig cfg =
        rpeak_static_config(setup, Duration::milliseconds(cycle_ms));
    table.rows.push_back(validation_row(cfg, protocol_for(setup),
                                        std::to_string(cycle_ms),
                                        static_cast<double>(cycle_ms)));
  }
  return table;
}

energy::ValidationTable table4(const PaperSetup& setup) {
  energy::ValidationTable table;
  table.title =
      "Table 4: Simulator estimations for Rpeak application and dynamic TDMA "
      "(node energy over 60 s)";
  table.parameter_name = "# nodes";
  for (std::size_t n = 1; n <= 5; ++n) {
    BanConfig cfg = rpeak_dynamic_config(setup, n);
    const double cycle_ms =
        cfg.tdma.slot.to_milliseconds() * (1.0 + static_cast<double>(n));
    table.rows.push_back(validation_row(cfg, protocol_for(setup),
                                        std::to_string(n), cycle_ms));
  }
  return table;
}

Figure4Result figure4(const PaperSetup& setup) {
  Figure4Result fig;
  const MeasurementProtocol protocol = protocol_for(setup);

  BanConfig streaming =
      streaming_static_config(setup, Duration::milliseconds(30));
  streaming.streaming.sample_rate_hz = 205;
  BanConfig rpeak = rpeak_static_config(setup, Duration::milliseconds(120));

  auto run_both = [&](BanConfig cfg, double& real_radio, double& real_mcu,
                      double& sim_radio, double& sim_mcu) {
    cfg.fidelity = Fidelity::kReference;
    const ScenarioResult real = run_scenario(cfg, protocol);
    cfg.fidelity = Fidelity::kModel;
    const ScenarioResult sim = run_scenario(cfg, protocol);
    real_radio = real.radio_mj;
    real_mcu = real.mcu_mj;
    sim_radio = sim.radio_mj;
    sim_mcu = sim.mcu_mj;
  };

  run_both(streaming, fig.streaming_real_radio_mj, fig.streaming_real_mcu_mj,
           fig.streaming_sim_radio_mj, fig.streaming_sim_mcu_mj);
  run_both(rpeak, fig.rpeak_real_radio_mj, fig.rpeak_real_mcu_mj,
           fig.rpeak_sim_radio_mj, fig.rpeak_sim_mcu_mj);
  return fig;
}

std::string Figure4Result::render() const {
  char buf[640];
  std::snprintf(
      buf, sizeof buf,
      "Figure 4: ECG streaming (30 ms cycle) vs Rpeak (120 ms cycle), node "
      "energy over 60 s\n"
      "                      %12s %12s\n"
      "  ECG streaming Real: %9.1f mJ radio, %7.1f mJ uC  (total %7.1f mJ)\n"
      "  ECG streaming Sim : %9.1f mJ radio, %7.1f mJ uC  (total %7.1f mJ)\n"
      "  Rpeak         Real: %9.1f mJ radio, %7.1f mJ uC  (total %7.1f mJ)\n"
      "  Rpeak         Sim : %9.1f mJ radio, %7.1f mJ uC  (total %7.1f mJ)\n"
      "  On-node preprocessing saves %.0f%% (paper: 65%%)\n",
      "radio", "uC", streaming_real_radio_mj, streaming_real_mcu_mj,
      streaming_real_total(), streaming_sim_radio_mj, streaming_sim_mcu_mj,
      streaming_sim_radio_mj + streaming_sim_mcu_mj, rpeak_real_radio_mj,
      rpeak_real_mcu_mj, rpeak_real_total(), rpeak_sim_radio_mj,
      rpeak_sim_mcu_mj, rpeak_sim_radio_mj + rpeak_sim_mcu_mj,
      saving_fraction() * 100.0);
  return buf;
}

const energy::ValidationTable& paper_table(int which) {
  static const energy::ValidationTable t1 = [] {
    energy::ValidationTable t;
    t.title = "Paper Table 1";
    t.parameter_name = "F (Hz)";
    t.rows = {
        {"205", 30, 540.6, 502.9, 170.2, 161.2},
        {"105", 60, 267.7, 252.9, 131.6, 135.9},
        {"70", 90, 177.2, 167.9, 119.4, 127.6},
        {"55", 120, 132.2, 126.2, 113.7, 123.5},
    };
    return t;
  }();
  static const energy::ValidationTable t2 = [] {
    energy::ValidationTable t;
    t.title = "Paper Table 2";
    t.parameter_name = "# nodes";
    t.rows = {
        {"1", 20, 628.5, 665.6, 165.9, 178.1},
        {"2", 30, 451.4, 496.5, 140.2, 147.6},
        {"3", 40, 356.9, 354.8, 137.4, 142.6},
        {"4", 50, 298.4, 281.8, 130.4, 132.3},
        {"5", 60, 263.9, 249.5, 122.9, 129.9},
    };
    return t;
  }();
  static const energy::ValidationTable t3 = [] {
    energy::ValidationTable t;
    t.title = "Paper Table 3";
    t.parameter_name = "Cycle";
    t.rows = {
        {"30", 30, 446.3, 455.4, 153.3, 145.41},
        {"60", 60, 228.5, 229.6, 139.8, 137.0},
        {"90", 90, 159.0, 154.4, 135.5, 134.3},
        {"120", 120, 113.1, 116.7, 133.1, 132.8},
    };
    return t;
  }();
  static const energy::ValidationTable t4 = [] {
    energy::ValidationTable t;
    t.title = "Paper Table 4";
    t.parameter_name = "# nodes";
    t.rows = {
        {"1", 20, 507.1, 494.9, 150.7, 153.0},
        {"2", 30, 405.6, 373.1, 144.3, 141.3},
        {"3", 40, 305.5, 299.9, 141.0, 137.2},
        {"4", 50, 255.7, 246.0, 138.6, 135.9},
        {"5", 60, 222.1, 210.5, 136.3, 134.5},
    };
    return t;
  }();
  switch (which) {
    case 1: return t1;
    case 2: return t2;
    case 3: return t3;
    default: return t4;
  }
}

}  // namespace bansim::core
