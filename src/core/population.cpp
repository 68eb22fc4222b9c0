#include "core/population.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "sim/rng.hpp"

namespace bansim::core {

std::string PopulationConfig::validate() const {
  if (hr_sd_bpm < 0) return "hr_sd_bpm must be >= 0";
  if (hr_lo_bpm <= 0 || hr_hi_bpm < hr_lo_bpm) {
    return "heart-rate clamp must satisfy 0 < lo <= hi";
  }
  const auto ordered = [](double lo, double hi) { return lo <= hi; };
  if (!ordered(rr_variability_lo, rr_variability_hi) ||
      rr_variability_lo < 0) {
    return "rr_variability range must satisfy 0 <= lo <= hi";
  }
  if (!ordered(r_amplitude_lo_volts, r_amplitude_hi_volts)) {
    return "r_amplitude range must satisfy lo <= hi";
  }
  if (!ordered(noise_lo_volts, noise_hi_volts) || noise_lo_volts < 0) {
    return "noise range must satisfy 0 <= lo <= hi";
  }
  if (motion) {
    if (motion_episodes_min == 0) {
      return "motion_episodes_min must be >= 1 (an episode-free patient "
             "would change the fault layer's shape)";
    }
    if (motion_episodes_max < motion_episodes_min) {
      return "motion episode count range must satisfy min <= max";
    }
    if (motion_duration_max < motion_duration_min) {
      return "motion duration range must satisfy min <= max";
    }
    if (!ordered(motion_extra_loss_db_min, motion_extra_loss_db_max)) {
      return "motion extra-loss range must satisfy min <= max";
    }
    if (!ordered(motion_fer_min, motion_fer_max) || motion_fer_min < 0 ||
        motion_fer_max > 1) {
      return "motion fer range must satisfy 0 <= min <= max <= 1";
    }
  }
  if (capacity_scale_min <= 0 || capacity_scale_max < capacity_scale_min) {
    return "capacity scale range must satisfy 0 < min <= max";
  }
  return {};
}

PopulationGenerator::PopulationGenerator(BanConfig base,
                                         PopulationConfig population)
    : base_{std::move(base)}, population_{std::move(population)} {
  if (const std::string problem = population_.validate(); !problem.empty()) {
    throw std::invalid_argument("PopulationConfig: " + problem);
  }
}

BanConfig PopulationGenerator::patient(std::size_t index) const {
  const std::string tag = std::to_string(index);
  BanConfig cfg = base_;
  cfg.seed = base_.seed ^ sim::fnv1a64("pop/patient/" + tag);

  sim::Rng heart = sim::Rng::stream(base_.seed, "pop/heart/" + tag);
  cfg.ecg.heart_rate_bpm =
      std::clamp(heart.normal(population_.hr_mean_bpm, population_.hr_sd_bpm),
                 population_.hr_lo_bpm, population_.hr_hi_bpm);

  sim::Rng morph = sim::Rng::stream(base_.seed, "pop/morphology/" + tag);
  cfg.ecg.rr_variability = morph.uniform(population_.rr_variability_lo,
                                         population_.rr_variability_hi);
  cfg.ecg.r_amplitude_volts = morph.uniform(population_.r_amplitude_lo_volts,
                                            population_.r_amplitude_hi_volts);
  cfg.ecg.noise_volts =
      morph.uniform(population_.noise_lo_volts, population_.noise_hi_volts);

  if (population_.motion) {
    sim::Rng motion = sim::Rng::stream(base_.seed, "pop/motion/" + tag);
    const auto count = static_cast<std::uint32_t>(motion.uniform_int(
        population_.motion_episodes_min, population_.motion_episodes_max));
    for (std::uint32_t e = 0; e < count; ++e) {
      fault::ShadowEpisode episode;
      // 0 shadows every node; 1..N a single roster position.
      episode.node = static_cast<std::uint32_t>(motion.uniform_int(
          0, static_cast<std::int64_t>(cfg.effective_nodes())));
      episode.start =
          sim::TimePoint::zero() +
          sim::Duration::from_seconds(motion.uniform(
              0.0, population_.motion_window.to_seconds()));
      episode.duration = sim::Duration::from_seconds(
          motion.uniform(population_.motion_duration_min.to_seconds(),
                         population_.motion_duration_max.to_seconds()));
      episode.extra_loss_db = motion.uniform(
          population_.motion_extra_loss_db_min,
          population_.motion_extra_loss_db_max);
      episode.fer =
          motion.uniform(population_.motion_fer_min, population_.motion_fer_max);
      cfg.fault_plan.episodes.push_back(episode);
    }
    // A motion population always carries >= 1 episode per patient, so this
    // switch is constant across the population (reset-compatible shape).
    cfg.fault_plan.enabled = true;
  }

  sim::Rng storage = sim::Rng::stream(base_.seed, "pop/storage/" + tag);
  const double scale = storage.uniform(population_.capacity_scale_min,
                                       population_.capacity_scale_max);
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
