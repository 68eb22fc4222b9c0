#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "apps/ecg_streaming_app.hpp"
#include "apps/ecg_synthesizer.hpp"
#include "apps/rpeak_app.hpp"
#include "apps/rpeak_detector.hpp"
#include "sim/rng.hpp"

namespace bansim::apps {
namespace {

using namespace bansim::sim::literals;
using sim::Duration;
using sim::Rng;
using sim::TimePoint;

TimePoint at_s(double s) {
  return TimePoint::zero() + Duration::from_seconds(s);
}

TEST(EcgSynthesizer, BeatRateMatchesHeartRate) {
  EcgConfig cfg;
  cfg.heart_rate_bpm = 75.0;
  EcgSynthesizer ecg{cfg, Rng::stream(1, "ecg")};
  const auto beats = ecg.beats_until(at_s(60.0));
  EXPECT_NEAR(static_cast<double>(beats.size()), 75.0, 4.0);
}

TEST(EcgSynthesizer, RrVariabilityBoundsIntervals) {
  EcgConfig cfg;
  cfg.heart_rate_bpm = 60.0;
  cfg.rr_variability = 0.03;
  EcgSynthesizer ecg{cfg, Rng::stream(2, "ecg")};
  const auto beats = ecg.beats_until(at_s(120.0));
  ASSERT_GT(beats.size(), 10u);
  for (std::size_t i = 1; i < beats.size(); ++i) {
    const double rr = (beats[i] - beats[i - 1]).to_seconds();
    EXPECT_GT(rr, 0.8);
    EXPECT_LT(rr, 1.2);
  }
}

TEST(EcgSynthesizer, DeterministicForSameSeed) {
  EcgConfig cfg;
  EcgSynthesizer a{cfg, Rng::stream(7, "ecg")};
  EcgSynthesizer b{cfg, Rng::stream(7, "ecg")};
  for (int i = 0; i < 2000; ++i) {
    const TimePoint t = at_s(i * 0.005);
    EXPECT_DOUBLE_EQ(a.sample(t), b.sample(t));
  }
}

TEST(EcgSynthesizer, SampleIsPureFunctionOfTime) {
  EcgConfig cfg;
  EcgSynthesizer ecg{cfg, Rng::stream(7, "ecg")};
  const double first = ecg.sample(at_s(1.0));
  (void)ecg.sample(at_s(30.0));  // extend far ahead
  EXPECT_DOUBLE_EQ(ecg.sample(at_s(1.0)), first);
}

TEST(EcgSynthesizer, OutputStaysInFrontEndRange) {
  EcgConfig cfg;
  EcgSynthesizer ecg{cfg, Rng::stream(3, "ecg")};
  double lo = 1e9, hi = -1e9;
  for (int i = 0; i < 4000; ++i) {
    const double v = ecg.sample(at_s(i * 0.005));
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  // Baseline 1.25 V, R amplitude 0.6 V, small negative waves.
  EXPECT_GT(lo, 0.8);
  EXPECT_LT(hi, 2.2);
  EXPECT_GT(hi, 1.6);  // R peaks present
}

/// EcgSynthesizer as it computed samples before its fast path: every
/// Gaussian of every bracketing beat through std::exp, no memo.  The
/// exactness tests require the synthesizer to reproduce it bit for bit.
class ReferenceEcg {
 public:
  ReferenceEcg(const EcgConfig& config, Rng rng) : config_{config}, rng_{rng} {}

  double sample(TimePoint t) {
    extend(t);
    double v = 0.0;
    for (auto it = beats_.rbegin(); it != beats_.rend(); ++it) {
      const double dt = (t - *it).to_seconds();
      if (dt > 1.2) break;
      if (dt < -1.2) continue;
      v += pqrst(dt);
    }
    return config_.baseline_volts + config_.r_amplitude_volts * v +
           config_.noise_volts * hash_noise(t.ticks());
  }

  std::vector<TimePoint> beats_until(TimePoint until) {
    extend(until);
    std::vector<TimePoint> out;
    for (TimePoint b : beats_) {
      if (b <= until) out.push_back(b);
    }
    return out;
  }

  void reset(const EcgConfig& config, Rng rng) {
    config_ = config;
    rng_ = rng;
    beats_.clear();
    horizon_ = TimePoint::zero();
  }

 private:
  struct Wave {
    double amplitude;
    double mu;
    double sigma;
  };

  void extend(TimePoint t) {
    const double mean_rr = 60.0 / config_.heart_rate_bpm;
    const TimePoint needed = t + Duration::from_seconds(2.0 * mean_rr);
    while (horizon_ < needed) {
      double rr = rng_.normal(mean_rr, mean_rr * config_.rr_variability);
      rr = std::max(0.3 * mean_rr, rr);
      const TimePoint beat =
          (beats_.empty() ? TimePoint::zero() +
                                Duration::from_seconds(0.35 * mean_rr)
                          : beats_.back() + Duration::from_seconds(rr));
      beats_.push_back(beat);
      horizon_ = beat;
    }
  }

  static double pqrst(double dt) {
    constexpr Wave kWaves[] = {
        {+0.12, -0.170, 0.022},
        {-0.10, -0.025, 0.010},
        {+1.00, +0.000, 0.011},
        {-0.18, +0.026, 0.011},
        {+0.25, +0.200, 0.045},
    };
    double v = 0.0;
    for (const Wave& w : kWaves) {
      const double z = (dt - w.mu) / w.sigma;
      v += w.amplitude * std::exp(-0.5 * z * z);
    }
    return v;
  }

  static double hash_noise(std::int64_t ticks) {
    auto x = static_cast<std::uint64_t>(ticks) * 0x9E3779B97F4A7C15ull;
    x ^= x >> 29;
    x *= 0xBF58476D1CE4E5B9ull;
    x ^= x >> 32;
    return (static_cast<double>(x >> 11) * 0x1.0p-53) * 2.0 - 1.0;
  }

  EcgConfig config_;
  Rng rng_;
  std::vector<TimePoint> beats_;
  TimePoint horizon_{TimePoint::zero()};
};

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

TEST(EcgSynthesizer, ExpOfSkippedExponentsIsPositiveZero) {
  // The fast path skips Gaussian terms whose exponent is below -746,
  // relying on std::exp rounding them to +0 exactly.
  for (const double a : {-746.0, -746.5, -800.0, -1e4, -1e300,
                         -std::numeric_limits<double>::infinity()}) {
    EXPECT_EQ(bits(std::exp(a)), bits(0.0)) << a;
  }
}

TEST(EcgSynthesizer, FastPathIsBitIdenticalToReference) {
  // An hour at the streaming app's 205 Hz for each heart rate, every
  // instant read twice (ASIC channels 0 and 1), with beats_until() and
  // reset() interleaved, as population campaigns and tests call them.
  Rng jitter{99};
  for (const double bpm : {40.0, 75.0, 120.0, 180.0}) {
    EcgConfig cfg;
    cfg.heart_rate_bpm = bpm;
    cfg.rr_variability = 0.01 + bpm / 3000.0;
    cfg.r_amplitude_volts = 0.3 + bpm / 300.0;
    cfg.baseline_volts = 1.0 + bpm / 1000.0;
    cfg.noise_volts = bpm > 100.0 ? 0.0 : 0.01;
    const std::uint64_t seed = static_cast<std::uint64_t>(bpm);
    EcgSynthesizer fast{cfg, Rng::stream(seed, "ecg")};
    ReferenceEcg reference{cfg, Rng::stream(seed, "ecg")};

    const Duration period = Duration::from_seconds(1.0 / 205.0);
    const std::int64_t samples = 205 * 3600;
    TimePoint t = TimePoint::zero();
    std::int64_t mismatches = 0;
    std::int64_t first_mismatch = -1;
    for (std::int64_t i = 0; i < samples; ++i) {
      if (i == samples / 3 || i == 2 * samples / 3) {
        // New wearer: morphology and seed change, the clock restarts.
        cfg.r_amplitude_volts *= 1.1;
        cfg.rr_variability *= 2.0;
        const Rng rng =
            Rng::stream(seed + static_cast<std::uint64_t>(i), "ecg");
        fast.reset(cfg, rng);
        reference.reset(cfg, rng);
        t = TimePoint::zero();
      }
      const double want0 = reference.sample(t);
      const double channel0 = fast.sample(t);
      if (i % 20000 == 19999) {
        // Extending the beat train between the two reads must not leave
        // the second read a stale memo.
        ASSERT_EQ(fast.beats_until(t + Duration::seconds(3)),
                  reference.beats_until(t + Duration::seconds(3)));
      }
      const double want1 = reference.sample(t);
      const double channel1 = fast.sample(t);
      if (bits(channel0) != bits(want0) || bits(channel1) != bits(want1)) {
        if (mismatches++ == 0) first_mismatch = i;
      }
      // Timer instants wander by the local clock's skew; a few ticks of
      // jitter keeps the instants off an exact grid.
      t = t + period + Duration::nanoseconds(jitter.uniform_int(-50, 50));
    }
    EXPECT_EQ(mismatches, 0)
        << bpm << " bpm, first at sample " << first_mismatch;
  }
}

TEST(EcgSynthesizer, RPeakIsNearBeatTime) {
  EcgConfig cfg;
  cfg.noise_volts = 0.0;
  EcgSynthesizer ecg{cfg, Rng::stream(5, "ecg")};
  const auto beats = ecg.beats_until(at_s(5.0));
  ASSERT_GE(beats.size(), 3u);
  // The waveform maximum within +-50 ms of a declared beat is at the beat.
  const TimePoint beat = beats[2];
  const double peak_value = ecg.sample(beat);
  for (double dt = -0.05; dt <= 0.05; dt += 0.001) {
    EXPECT_LE(ecg.sample(beat + Duration::from_seconds(dt)),
              peak_value + 1e-9);
  }
}

class RpeakAccuracy : public ::testing::TestWithParam<double> {};

TEST_P(RpeakAccuracy, DetectsBeatsAtHeartRate) {
  const double bpm = GetParam();
  EcgConfig cfg;
  cfg.heart_rate_bpm = bpm;
  EcgSynthesizer ecg{cfg, Rng::stream(17, "ecg")};
  RpeakDetector detector{200.0};

  const double fs = 200.0;
  const double seconds = 30.0;
  std::uint64_t detections = 0;
  for (int n = 0; n < static_cast<int>(seconds * fs); ++n) {
    const TimePoint t = at_s(n / fs);
    // Scale volts into 12-bit codes the way the platform ADC does.
    const auto code = static_cast<std::uint16_t>(
        std::lround(ecg.sample(t) / 2.5 * 4095.0));
    if (detector.step(code).beat_samples_ago > 0) ++detections;
  }
  const double expected = seconds * bpm / 60.0;
  EXPECT_NEAR(static_cast<double>(detections), expected, expected * 0.12 + 2);
}

INSTANTIATE_TEST_SUITE_P(HeartRates, RpeakAccuracy,
                         ::testing::Values(55.0, 75.0, 100.0));

TEST(RpeakDetector, SamplesAgoPointsNearTrueBeat) {
  EcgConfig cfg;
  cfg.heart_rate_bpm = 75.0;
  cfg.noise_volts = 0.0;
  EcgSynthesizer ecg{cfg, Rng::stream(23, "ecg")};
  RpeakDetector detector{200.0};
  const auto truth = ecg.beats_until(at_s(30.0));

  const double fs = 200.0;
  std::vector<double> detected_at;
  for (int n = 0; n < static_cast<int>(30.0 * fs); ++n) {
    const double t = n / fs;
    const auto code = static_cast<std::uint16_t>(
        std::lround(ecg.sample(at_s(t)) / 2.5 * 4095.0));
    const RpeakResult r = detector.step(code);
    if (r.beat_samples_ago > 0) {
      detected_at.push_back(t - r.beat_samples_ago / fs);
    }
  }
  ASSERT_GT(detected_at.size(), 20u);
  // Skip the warm-up detections; each later detection must be within
  // 120 ms of a true beat.
  std::size_t matched = 0;
  for (std::size_t i = 2; i < detected_at.size(); ++i) {
    double best = 1e9;
    for (const TimePoint b : truth) {
      best = std::min(best, std::abs(detected_at[i] - b.to_seconds()));
    }
    if (best < 0.12) ++matched;
  }
  EXPECT_GE(static_cast<double>(matched),
            0.85 * static_cast<double>(detected_at.size() - 2));
}

TEST(RpeakDetector, RefractoryPreventsDoubleDetection) {
  EcgConfig cfg;
  cfg.heart_rate_bpm = 75.0;
  EcgSynthesizer ecg{cfg, Rng::stream(29, "ecg")};
  RpeakDetector detector{200.0};
  std::vector<std::uint64_t> beat_indices;
  for (int n = 0; n < 6000; ++n) {
    const auto code = static_cast<std::uint16_t>(
        std::lround(ecg.sample(at_s(n / 200.0)) / 2.5 * 4095.0));
    const RpeakResult r = detector.step(code);
    if (r.beat_samples_ago > 0) {
      beat_indices.push_back(static_cast<std::uint64_t>(n) -
                             r.beat_samples_ago);
    }
  }
  for (std::size_t i = 1; i < beat_indices.size(); ++i) {
    // 250 ms refractory at 200 Hz = 50 samples.
    EXPECT_GT(beat_indices[i] - beat_indices[i - 1], 50u);
  }
}

TEST(RpeakDetector, FlatSignalNeverDetects) {
  RpeakDetector detector{200.0};
  for (int n = 0; n < 4000; ++n) {
    EXPECT_EQ(detector.step(2048).beat_samples_ago, 0u);
  }
  EXPECT_EQ(detector.beats_detected(), 0u);
}

TEST(RpeakDetector, WorkCyclesAreDataDependent) {
  EcgConfig cfg;
  EcgSynthesizer ecg{cfg, Rng::stream(31, "ecg")};
  RpeakDetector detector{200.0};
  std::uint32_t lo = ~0u, hi = 0;
  for (int n = 0; n < 4000; ++n) {
    const auto code = static_cast<std::uint16_t>(
        std::lround(ecg.sample(at_s(n / 200.0)) / 2.5 * 4095.0));
    const auto cycles = detector.step(code).work_cycles;
    lo = std::min(lo, cycles);
    hi = std::max(hi, cycles);
  }
  EXPECT_LT(lo, hi);  // quiet samples cheaper than confirmation paths
  EXPECT_GE(lo, 300u);
}

TEST(Pack12, RoundTripEvenCount) {
  const std::vector<std::uint16_t> codes = {0x0ABC, 0x0123, 0x0FFF, 0x0000};
  EXPECT_EQ(unpack12(pack12(codes)), codes);
  EXPECT_EQ(pack12(codes).size(), 6u);  // 2 codes -> 3 bytes
}

TEST(Pack12, RoundTripRandom) {
  Rng rng{55};
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<std::uint16_t> codes(
        static_cast<std::size_t>(rng.uniform_int(2, 40)) & ~1ull);
    for (auto& c : codes) {
      c = static_cast<std::uint16_t>(rng.uniform_int(0, 4095));
    }
    EXPECT_EQ(unpack12(pack12(codes)), codes);
  }
}

TEST(Pack12, MasksTo12Bits) {
  const auto packed = pack12({0xFABC, 0xF123});
  const auto codes = unpack12(packed);
  ASSERT_EQ(codes.size(), 2u);
  EXPECT_EQ(codes[0], 0x0ABC);
  EXPECT_EQ(codes[1], 0x0123);
}

TEST(BeatEventCodec, RoundTrip) {
  BeatEvent e;
  e.channel = 1;
  e.samples_ago = 74;  // the paper's example: 74 * 5 ms = 370 ms ago
  e.beat_number = 1234;
  const BeatEvent back = BeatEvent::deserialize(e.serialize());
  EXPECT_EQ(back.channel, 1);
  EXPECT_EQ(back.samples_ago, 74);
  EXPECT_EQ(back.beat_number, 1234);
  EXPECT_EQ(e.serialize().size(), 5u);
}

}  // namespace
}  // namespace bansim::apps
