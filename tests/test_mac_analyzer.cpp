#include "core/mac_analyzer.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "core/paper_experiments.hpp"

namespace bansim::core {
namespace {

using namespace bansim::sim::literals;
using sim::Duration;
using sim::TimePoint;

struct AnalyzerFixture : ::testing::Test {
  std::unique_ptr<BanNetwork> network;
  std::shared_ptr<sim::MemorySink> sink;
  TimePoint t0;

  void make_and_run() {
    PaperSetup setup;
    BanConfig cfg =
        streaming_static_config(setup, Duration::milliseconds(60));
    cfg.num_nodes = 3;
    make_and_run(cfg);
  }

  void make_and_run(const BanConfig& cfg) {
    network = std::make_unique<BanNetwork>(cfg);
    sink = std::make_shared<sim::MemorySink>();
    network->tracer().attach(sink, {sim::TraceCategory::kMac});
    network->start();
    ASSERT_TRUE(network->run_until_joined(500_ms, TimePoint::zero() + 30_s));
    t0 = network->simulator().now();
    network->run_until(t0 + 10_s);
  }
};

TEST_F(AnalyzerFixture, DutyCyclesAreInPhysicalRange) {
  make_and_run();
  const MacAnalysis analysis = analyze_mac(*network, sink->records(), t0);

  ASSERT_EQ(analysis.nodes.size(), 3u);
  for (const NodeMacReport& r : analysis.nodes) {
    // Beacon listen ~3.3 ms per 60 ms cycle -> ~5-7 % RX duty.
    EXPECT_GT(r.radio_rx_duty, 0.02) << r.node;
    EXPECT_LT(r.radio_rx_duty, 0.12) << r.node;
    // TX: one 26 B burst per cycle -> ~1 %.
    EXPECT_GT(r.radio_tx_duty, 0.002) << r.node;
    EXPECT_LT(r.radio_tx_duty, 0.05) << r.node;
    EXPECT_GT(r.mcu_active_duty, 0.05) << r.node;
    EXPECT_LT(r.mcu_active_duty, 0.6) << r.node;
  }
}

TEST_F(AnalyzerFixture, ListenWindowStatisticsMatchProtocol) {
  make_and_run();
  const MacAnalysis analysis = analyze_mac(*network, sink->records(), t0);
  for (const NodeMacReport& r : analysis.nodes) {
    // One listen window per 60 ms cycle.
    EXPECT_NEAR(r.listen_windows_per_s, 1000.0 / 60.0, 2.0) << r.node;
    // Window = guard(2.5 + 0.3 ms) + beacon air + clockout: ~3-5 ms.
    EXPECT_GT(r.avg_listen_window_ms, 2.5) << r.node;
    EXPECT_LT(r.avg_listen_window_ms, 6.0) << r.node;
  }
}

TEST_F(AnalyzerFixture, BeaconCadenceTracksCycle) {
  make_and_run();
  const MacAnalysis analysis = analyze_mac(*network, sink->records(), t0);
  EXPECT_GT(analysis.beacon_interval_ms.count(), 100u);
  EXPECT_NEAR(analysis.beacon_interval_ms.mean(), 60.0, 0.5);
  // Jitter: BS clock skew and scheduler latencies, well under a guard.
  EXPECT_LT(analysis.beacon_interval_ms.stddev(), 1.0);
}

// Both beaconed base stations write the same beacon trace line, so the
// cadence is found on a CSMA/CA cell too.
TEST_F(AnalyzerFixture, BeaconCadenceTracksCsmaSuperframe) {
  BanConfig cfg;
  cfg.num_nodes = 3;
  cfg.protocol = mac::Protocol::kCsmaCa;
  cfg.csma.cycle = 50_ms;
  make_and_run(cfg);
  const MacAnalysis analysis = analyze_mac(*network, sink->records(), t0);
  EXPECT_GT(analysis.beacon_interval_ms.count(), 100u);
  EXPECT_NEAR(analysis.beacon_interval_ms.mean(), 50.0, 0.5);
}

TEST_F(AnalyzerFixture, RenderContainsEveryNode) {
  make_and_run();
  const MacAnalysis analysis = analyze_mac(*network, sink->records(), t0);
  const std::string out = analysis.render();
  EXPECT_NE(out.find("node1"), std::string::npos);
  EXPECT_NE(out.find("node3"), std::string::npos);
  EXPECT_NE(out.find("beacon cadence"), std::string::npos);
}

}  // namespace
}  // namespace bansim::core
