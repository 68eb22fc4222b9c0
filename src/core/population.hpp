// Population-scale Monte Carlo campaigns: N distinct simulated patients.
//
// The paper validates one wearer; a ward deployment question ("what
// lifetime does the 5th-percentile patient see?") needs a population.
// PopulationGenerator turns one ward BanConfig into per-patient variants by
// sampling physiology and environment from named RNG streams keyed by the
// patient index — heart-rate distribution, ECG waveform morphology and
// noise, motion/posture shadowing episodes on the channel, and the spread
// of manufactured storage capacity.  Every variant is same-shape with the
// base config (node count, MAC/app kinds, activeness of the fault layer),
// which is exactly the contract BanNetwork::reset() enforces, so a
// campaign runs patient k+1 by resetting the warmed cell patient k used.
// The campaign engine that runs each patient through core::run, shards a
// population over worker processes and aggregates the rows lives in
// src/campaign/ (campaign::ShardRunner + the orchestrator).
#pragma once

#include <cstdint>
#include <string>

#include "core/ban_network.hpp"
#include "core/experiment.hpp"
#include "sim/time.hpp"

namespace bansim::core {

/// Per-patient sampling distributions.  Defaults describe a resting adult
/// ward population; all draws are deterministic in (base seed, index).
struct PopulationConfig {
  /// Heart rate: normal(mean, sd) clamped into [lo, hi] bpm.
  double hr_mean_bpm{75.0};
  double hr_sd_bpm{12.0};
  double hr_lo_bpm{45.0};
  double hr_hi_bpm{150.0};

  /// Waveform morphology/noise: uniform spreads around the base config's
  /// front-end defaults.
  double rr_variability_lo{0.015};
  double rr_variability_hi{0.06};
  double r_amplitude_lo_volts{0.45};
  double r_amplitude_hi_volts{0.75};
  double noise_lo_volts{0.003};
  double noise_hi_volts{0.009};

  /// Motion/posture: per-patient timed shadowing episodes on the channel.
  /// When enabled, every patient draws AT LEAST one episode, so
  /// FaultPlan::any()/touches_channel() — the network's shape — is the
  /// same for the whole population and cells stay reset-compatible.
  bool motion{false};
  std::uint32_t motion_episodes_min{1};
  std::uint32_t motion_episodes_max{3};
  /// Episodes start uniformly inside [0, motion_window).
  sim::Duration motion_window{sim::Duration::seconds(30)};
  sim::Duration motion_duration_min{sim::Duration::milliseconds(200)};
  sim::Duration motion_duration_max{sim::Duration::seconds(2)};
  double motion_extra_loss_db_min{4.0};
  double motion_extra_loss_db_max{14.0};
  double motion_fer_min{0.05};
  double motion_fer_max{0.35};

  /// Storage capacity manufacturing spread: each patient's battery
  /// capacity / capacitor capacitance scales by uniform[min, max].
  /// Applied only where storage is enabled, so enabled-ness never changes.
  double capacity_scale_min{0.85};
  double capacity_scale_max{1.15};

  /// Empty when well-formed, else the first problem.
  [[nodiscard]] std::string validate() const;
};

/// Derives per-patient BanConfigs from a base ward config.  patient(i) is
/// pure: same (base seed, population, i) always yields the same config.
class PopulationGenerator {
 public:
  /// Throws std::invalid_argument when `population` fails validate().
  PopulationGenerator(BanConfig base, PopulationConfig population);

  /// The i-th patient's config: base with per-patient seed, physiology,
  /// motion episodes and storage capacity — same-shape with every other
  /// patient (and with patient(0), which campaigns build their cells from).
  [[nodiscard]] BanConfig patient(std::size_t index) const;

  [[nodiscard]] const BanConfig& base() const { return base_; }
  [[nodiscard]] const PopulationConfig& population() const {
    return population_;
  }

 private:
  BanConfig base_;
  PopulationConfig population_;
};

/// The campaign unit's measurement window (perfbench's ward replay names
/// it).
using PatientWindow = MeasurementProtocol;

}  // namespace bansim::core
