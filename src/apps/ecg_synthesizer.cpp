#include "apps/ecg_synthesizer.hpp"

#include <cmath>

namespace bansim::apps {

namespace {

/// One Gaussian wave of the PQRST complex: relative amplitude, center
/// offset from the R peak (s), width (s).
struct Wave {
  double amplitude;
  double mu;
  double sigma;
};

constexpr Wave kWaves[] = {
    {+0.12, -0.170, 0.022},  // P
    {-0.10, -0.025, 0.010},  // Q
    {+1.00, +0.000, 0.011},  // R
    {-0.18, +0.026, 0.011},  // S
    {+0.25, +0.200, 0.045},  // T
};

/// A Gaussian exponent below which std::exp rounds to +0.
constexpr double kExpUnderflow = -746.0;

/// Deterministic per-instant noise: a hash of the tick count mapped to
/// [-1, 1], so sample(t) is a pure function of t.
double hash_noise(std::int64_t ticks) {
  auto x = static_cast<std::uint64_t>(ticks) * 0x9E3779B97F4A7C15ull;
  x ^= x >> 29;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 32;
  return (static_cast<double>(x >> 11) * 0x1.0p-53) * 2.0 - 1.0;
}

}  // namespace

EcgSynthesizer::EcgSynthesizer(const EcgConfig& config, sim::Rng rng)
    : config_{config}, rng_{rng} {}

void EcgSynthesizer::extend(sim::TimePoint t) {
  const double mean_rr = 60.0 / config_.heart_rate_bpm;
  const sim::TimePoint needed = t + sim::Duration::from_seconds(2.0 * mean_rr);
  while (horizon_ < needed) {
    double rr = rng_.normal(mean_rr, mean_rr * config_.rr_variability);
    rr = std::max(0.3 * mean_rr, rr);  // physiological floor
    const sim::TimePoint beat =
        (beats_.empty() ? sim::TimePoint::zero() +
                              sim::Duration::from_seconds(0.35 * mean_rr)
                        : beats_.back() + sim::Duration::from_seconds(rr));
    beats_.push_back(beat);
    horizon_ = beat;
    // A new beat can lie within 1.2 s of the memoised instant (2 RR < 1.2 s
    // above 100 bpm), where it adds a term to that instant's sum.
    memo_valid_ = false;
  }
}

double EcgSynthesizer::pqrst(double dt) const {
  double v = 0.0;
  for (const Wave& w : kWaves) {
    const double z = (dt - w.mu) / w.sigma;
    const double a = -0.5 * z * z;
    // Below -745.13, exp(a) is under half the smallest subnormal and
    // rounds to +0, so the term is +-0 and adding it leaves v unchanged to
    // the bit (v starts at +0 and is never -0): skipping it is exact.
    if (a < kExpUnderflow) continue;
    v += w.amplitude * std::exp(a);
  }
  return v;
}

double EcgSynthesizer::sample(sim::TimePoint t) {
  // A memo hit needs no extend(): extend(t) already ran for t, and nothing
  // has been appended since.
  if (memo_valid_ && t == memo_at_) return memo_value_;
  extend(t);
  // Only the two beats bracketing t contribute measurably.
  double v = 0.0;
  for (auto it = beats_.rbegin(); it != beats_.rend(); ++it) {
    const double dt = (t - *it).to_seconds();
    if (dt > 1.2) break;       // too long past this beat (and all earlier)
    if (dt < -1.2) continue;   // beat far in the future
    v += pqrst(dt);
  }
  memo_at_ = t;
  memo_value_ = config_.baseline_volts + config_.r_amplitude_volts * v +
                config_.noise_volts * hash_noise(t.ticks());
  memo_valid_ = true;
  return memo_value_;
}

std::vector<sim::TimePoint> EcgSynthesizer::beats_until(sim::TimePoint until) {
  extend(until);
  std::vector<sim::TimePoint> out;
  for (sim::TimePoint b : beats_) {
    if (b <= until) out.push_back(b);
  }
  return out;
}

}  // namespace bansim::apps
