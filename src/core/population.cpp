#include "core/population.hpp"

#include <algorithm>
#include <cstdint>
#include <string>

#include "sim/rng.hpp"

namespace bansim::core {

namespace {

// A resting adult ward population.  Heart rate: normal(mean, sd) clamped
// into [lo, hi] bpm.
constexpr double kHrMeanBpm = 75.0;
constexpr double kHrSdBpm = 12.0;
constexpr double kHrLoBpm = 45.0;
constexpr double kHrHiBpm = 150.0;

// Waveform morphology/noise: uniform spreads around the base config's
// front-end defaults.
constexpr double kRrVariabilityLo = 0.015;
constexpr double kRrVariabilityHi = 0.06;
constexpr double kRAmplitudeLoVolts = 0.45;
constexpr double kRAmplitudeHiVolts = 0.75;
constexpr double kNoiseLoVolts = 0.003;
constexpr double kNoiseHiVolts = 0.009;

// Motion/posture: 1..3 shadowing episodes per patient (never 0: an
// episode-free patient would change the fault layer's shape), each
// starting uniformly inside [0, kMotionWindow).
constexpr std::uint32_t kMotionEpisodesMin = 1;
constexpr std::uint32_t kMotionEpisodesMax = 3;
constexpr sim::Duration kMotionWindow = sim::Duration::seconds(30);
constexpr sim::Duration kMotionDurationMin = sim::Duration::milliseconds(200);
constexpr sim::Duration kMotionDurationMax = sim::Duration::seconds(2);
constexpr double kMotionExtraLossDbMin = 4.0;
constexpr double kMotionExtraLossDbMax = 14.0;
constexpr double kMotionFerMin = 0.05;
constexpr double kMotionFerMax = 0.35;

// Storage capacity manufacturing spread: each patient's battery capacity /
// capacitor capacitance scales by uniform[min, max].
constexpr double kCapacityScaleMin = 0.85;
constexpr double kCapacityScaleMax = 1.15;

}  // namespace

PopulationGenerator::PopulationGenerator(BanConfig base,
                                         PopulationConfig population)
    : base_{std::move(base)}, population_{population} {}

BanConfig PopulationGenerator::patient(std::size_t index) const {
  const std::string tag = std::to_string(index);
  BanConfig cfg = base_;
  cfg.seed = base_.seed ^ sim::fnv1a64("pop/patient/" + tag);

  sim::Rng heart = sim::Rng::stream(base_.seed, "pop/heart/" + tag);
  cfg.ecg.heart_rate_bpm =
      std::clamp(heart.normal(kHrMeanBpm, kHrSdBpm), kHrLoBpm, kHrHiBpm);

  sim::Rng morph = sim::Rng::stream(base_.seed, "pop/morphology/" + tag);
  cfg.ecg.rr_variability = morph.uniform(kRrVariabilityLo, kRrVariabilityHi);
  cfg.ecg.r_amplitude_volts =
      morph.uniform(kRAmplitudeLoVolts, kRAmplitudeHiVolts);
  cfg.ecg.noise_volts = morph.uniform(kNoiseLoVolts, kNoiseHiVolts);

  if (population_.motion) {
    sim::Rng motion = sim::Rng::stream(base_.seed, "pop/motion/" + tag);
    const auto count = static_cast<std::uint32_t>(
        motion.uniform_int(kMotionEpisodesMin, kMotionEpisodesMax));
    for (std::uint32_t e = 0; e < count; ++e) {
      fault::ShadowEpisode episode;
      // 0 shadows every node; 1..N a single roster position.
      episode.node = static_cast<std::uint32_t>(motion.uniform_int(
          0, static_cast<std::int64_t>(cfg.effective_nodes())));
      episode.start = sim::TimePoint::zero() +
                      sim::Duration::from_seconds(
                          motion.uniform(0.0, kMotionWindow.to_seconds()));
      episode.duration = sim::Duration::from_seconds(
          motion.uniform(kMotionDurationMin.to_seconds(),
                         kMotionDurationMax.to_seconds()));
      episode.extra_loss_db =
          motion.uniform(kMotionExtraLossDbMin, kMotionExtraLossDbMax);
      episode.fer = motion.uniform(kMotionFerMin, kMotionFerMax);
      cfg.fault_plan.episodes.push_back(episode);
    }
    // A motion population always carries >= 1 episode per patient, so this
    // switch is constant across the population (reset-compatible shape).
    cfg.fault_plan.enabled = true;
  }

  sim::Rng storage = sim::Rng::stream(base_.seed, "pop/storage/" + tag);
  const double scale = storage.uniform(kCapacityScaleMin, kCapacityScaleMax);
  const auto rescale = [scale](hw::StorageParams& params) {
    if (!params.enabled) return;
    params.battery.capacity_mah *= scale;
    params.capacitor.capacitance_farads *= scale;
  };
  rescale(cfg.storage);
  for (NodeSpec& spec : cfg.roster) {
    if (spec.storage) rescale(*spec.storage);
  }
  return cfg;
}

}  // namespace bansim::core
