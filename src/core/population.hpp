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

#include <cstddef>

#include "core/ban_network.hpp"
#include "core/experiment.hpp"

namespace bansim::core {

/// The one per-patient sampling knob a campaign varies.  The distributions
/// themselves (a resting adult ward population: heart rate, waveform
/// morphology and noise, motion episodes, storage capacity spread) are
/// fixed modelling assumptions, constants in population.cpp; all draws are
/// deterministic in (base seed, index).
struct PopulationConfig {
  /// Motion/posture: per-patient timed shadowing episodes on the channel.
  /// When enabled, every patient draws AT LEAST one episode, so
  /// FaultPlan::any()/touches_channel() — the network's shape — is the
  /// same for the whole population and cells stay reset-compatible.
  bool motion{false};
};

/// Derives per-patient BanConfigs from a base ward config.  patient(i) is
/// pure: same (base seed, population, i) always yields the same config.
class PopulationGenerator {
 public:
  PopulationGenerator(BanConfig base, PopulationConfig population);

  /// The i-th patient's config: base with per-patient seed, physiology,
  /// motion episodes and storage capacity — same-shape with every other
  /// patient (and with patient(0), which campaigns build their cells from).
  [[nodiscard]] BanConfig patient(std::size_t index) const;

 private:
  BanConfig base_;
  PopulationConfig population_;
};

/// The campaign unit's measurement window (perfbench's ward replay names
/// it).
using PatientWindow = MeasurementProtocol;

}  // namespace bansim::core
