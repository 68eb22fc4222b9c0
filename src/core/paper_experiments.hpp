// The paper's evaluation scenarios (Section 5), one function per table or
// figure.  Each returns the data needed to print the corresponding artifact;
// bench/bansim_paper formats them, and tests/cli_outputs/paper.txt pins
// what it prints.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/ban_network.hpp"
#include "core/experiment.hpp"
#include "energy/energy_report.hpp"

namespace bansim::core {

/// Shared scenario parameters for the paper reproduction.
struct PaperSetup {
  std::uint64_t seed{42};
  sim::Duration measure{sim::Duration::seconds(60)};
  std::size_t static_nodes{5};  ///< the paper's 5-node BAN
};

/// Base config for an ECG-streaming node network on static TDMA with the
/// given cycle.  Sampling frequency follows the paper's coupling: 18 bytes
/// (12 codes, 2 channels) fill exactly one TDMA cycle.
[[nodiscard]] BanConfig streaming_static_config(const PaperSetup& setup,
                                                sim::Duration cycle);

/// ECG streaming on dynamic TDMA (10 ms slots) with `nodes` nodes.
[[nodiscard]] BanConfig streaming_dynamic_config(const PaperSetup& setup,
                                                 std::size_t nodes);

/// Rpeak on static TDMA with the given cycle (200 Hz fixed sampling).
[[nodiscard]] BanConfig rpeak_static_config(const PaperSetup& setup,
                                            sim::Duration cycle);

/// Rpeak on dynamic TDMA with `nodes` nodes.
[[nodiscard]] BanConfig rpeak_dynamic_config(const PaperSetup& setup,
                                             std::size_t nodes);

/// Table 1: ECG streaming, static TDMA, fs in {205,105,70,55} Hz.
[[nodiscard]] energy::ValidationTable table1(const PaperSetup& setup = {});

/// Table 2: ECG streaming, dynamic TDMA, nodes in {1..5}.
[[nodiscard]] energy::ValidationTable table2(const PaperSetup& setup = {});

/// Table 3: Rpeak, static TDMA, cycle in {30,60,90,120} ms.
[[nodiscard]] energy::ValidationTable table3(const PaperSetup& setup = {});

/// Table 4: Rpeak, dynamic TDMA, nodes in {1..5}.
[[nodiscard]] energy::ValidationTable table4(const PaperSetup& setup = {});

/// Figure 4: total node energy, ECG streaming @30 ms vs Rpeak @120 ms.
struct Figure4Result {
  double streaming_real_radio_mj{0};
  double streaming_real_mcu_mj{0};
  double streaming_sim_radio_mj{0};
  double streaming_sim_mcu_mj{0};
  double rpeak_real_radio_mj{0};
  double rpeak_real_mcu_mj{0};
  double rpeak_sim_radio_mj{0};
  double rpeak_sim_mcu_mj{0};

  [[nodiscard]] double streaming_real_total() const {
    return streaming_real_radio_mj + streaming_real_mcu_mj;
  }
  [[nodiscard]] double rpeak_real_total() const {
    return rpeak_real_radio_mj + rpeak_real_mcu_mj;
  }
  /// Energy saved by on-node preprocessing (the paper reports 65 %).
  [[nodiscard]] double saving_fraction() const {
    return 1.0 - rpeak_real_total() / streaming_real_total();
  }
  [[nodiscard]] std::string render() const;
};

[[nodiscard]] Figure4Result figure4(const PaperSetup& setup = {});

/// The paper's reference values for every table, printed next to ours by
/// bansim_paper.
[[nodiscard]] const energy::ValidationTable& paper_table(int which);

}  // namespace bansim::core
