#include <gtest/gtest.h>

#include <cmath>

#include "apps/eeg_app.hpp"
#include "apps/eeg_synthesizer.hpp"
#include "core/ban_network.hpp"

namespace bansim::apps {
namespace {

using namespace bansim::sim::literals;
using sim::Duration;
using sim::TimePoint;

TimePoint at_s(double s) {
  return TimePoint::zero() + Duration::from_seconds(s);
}

TEST(EegSynthesizer, DeterministicPerSeedAndChannel) {
  EegConfig cfg;
  EegSynthesizer a{cfg, 5};
  EegSynthesizer b{cfg, 5};
  EegSynthesizer c{cfg, 6};
  bool any_diff_seed = false;
  for (int i = 0; i < 200; ++i) {
    const TimePoint t = at_s(i * 0.01);
    EXPECT_DOUBLE_EQ(a.sample(0, t), b.sample(0, t));
    if (std::abs(a.sample(0, t) - c.sample(0, t)) > 1e-9) any_diff_seed = true;
  }
  EXPECT_TRUE(any_diff_seed);
}

TEST(EegSynthesizer, ChannelsAreDistinct) {
  EegSynthesizer eeg{EegConfig{}, 9};
  bool differ = false;
  for (int i = 0; i < 100; ++i) {
    if (std::abs(eeg.sample(0, at_s(i * 0.01)) - eeg.sample(3, at_s(i * 0.01))) >
        1e-6) {
      differ = true;
      break;
    }
  }
  EXPECT_TRUE(differ);
}

TEST(EegSynthesizer, StaysInFrontEndRange) {
  EegSynthesizer eeg{EegConfig{}, 2};
  for (int i = 0; i < 4000; ++i) {
    const double v = eeg.sample(i % 8u, at_s(i * 0.004));
    EXPECT_GT(v, 0.5);
    EXPECT_LT(v, 2.1);
  }
}

TEST(EegSynthesizer, HasOscillatoryEnergy) {
  // The signal must actually move (alpha-band oscillation), not sit at
  // the baseline.
  EegSynthesizer eeg{EegConfig{}, 3};
  double lo = 1e9, hi = -1e9;
  for (int i = 0; i < 256; ++i) {
    const double v = eeg.sample(0, at_s(i / 128.0));
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  EXPECT_GT(hi - lo, 0.05);
}

TEST(EegSynthesizer, OutOfRangeChannelIsBaseline) {
  EegConfig cfg;
  EegSynthesizer eeg{cfg, 1};
  EXPECT_DOUBLE_EQ(eeg.sample(200, at_s(1.0)), cfg.baseline_volts);
}

core::BanConfig eeg_network(std::uint32_t channels, double fs) {
  core::BanConfig cfg;
  cfg.num_nodes = 1;
  cfg.protocol = mac::Protocol::kDynamicTdma;
  cfg.tdma = mac::TdmaConfig::dynamic_plan();  // 20 ms cycle at 1 node
  cfg.app = core::AppKind::kEegMonitoring;
  cfg.eeg.channels = channels;
  cfg.eeg.sample_rate_hz = fs;
  cfg.eeg_signal.channels = channels;
  return cfg;
}

TEST(EegAppIntegration, LosslessRecoveryOverCleanChannel) {
  core::BanConfig cfg = eeg_network(4, 64.0);
  core::BanNetwork net{cfg};
  net.start();
  ASSERT_TRUE(net.run_until_joined(500_ms, TimePoint::zero() + 20_s));
  net.run_until(net.simulator().now() + 10_s);

  auto* app = net.node(0).eeg_app();
  EXPECT_GT(app->blocks_sent(), 20u);
  EXPECT_EQ(app->blocks_dropped(), 0u);

  auto* collector = net.eeg_collector(1);
  ASSERT_NE(collector, nullptr);
  EXPECT_GT(collector->blocks_decoded(), 20u);
  EXPECT_EQ(collector->decode_failures(), 0u);

  // Recovered codes must exactly match the synthesizer re-quantized:
  // spot-check amplitude statistics per channel.
  const auto& recovered = collector->samples();
  ASSERT_EQ(recovered.size(), 4u);
  for (const auto& channel : recovered) {
    ASSERT_GT(channel.size(), 100u);
    double mean = 0;
    for (const auto c : channel) mean += c;
    mean /= static_cast<double>(channel.size());
    // Baseline 1.25 V on 2.5 V ADC ~ 2048.
    EXPECT_NEAR(mean, 2048.0, 120.0);
  }
}

TEST(EegAppIntegration, OvercommittedConfigurationShedsBlocks) {
  // 24 channels at 128 Hz cannot fit one 24-byte frame per 20 ms.
  core::BanConfig cfg = eeg_network(24, 128.0);
  core::BanNetwork net{cfg};
  net.start();
  ASSERT_TRUE(net.run_until_joined(500_ms, TimePoint::zero() + 20_s));
  auto* app = net.node(0).eeg_app();
  net.run_until(net.simulator().now() + 5_s);
  EXPECT_GT(app->blocks_dropped(), 0u);
  // The shedding is block-atomic: whatever was decoded is still clean.
  auto* collector = net.eeg_collector(1);
  if (collector != nullptr) {
    EXPECT_EQ(collector->decode_failures(), 0u);
  }
}

TEST(EegAppIntegration, MultiNodeEegNetwork) {
  core::BanConfig cfg = eeg_network(4, 64.0);
  cfg.num_nodes = 3;
  core::BanNetwork net{cfg};
  net.start();
  ASSERT_TRUE(net.run_until_joined(500_ms, TimePoint::zero() + 30_s));
  net.run_until(net.simulator().now() + 10_s);
  for (net::NodeId node = 1; node <= 3; ++node) {
    auto* collector = net.eeg_collector(node);
    ASSERT_NE(collector, nullptr) << "node " << node;
    EXPECT_GT(collector->blocks_decoded(), 10u) << "node " << node;
  }
}

}  // namespace
}  // namespace bansim::apps
