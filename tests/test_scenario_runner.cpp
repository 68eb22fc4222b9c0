// ScenarioRunner: parallel sweep execution must be indistinguishable from
// serial execution except for wall-clock time — per-scenario isolation means
// bit-identical results, index-ordered.
#include "sim/scenario_runner.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/bansim.hpp"

namespace bansim {
namespace {

using sim::Duration;
using sim::ScenarioRunner;

TEST(ScenarioRunner, ResolveJobs) {
  EXPECT_GE(sim::resolve_jobs(0), 1u);
  EXPECT_EQ(sim::resolve_jobs(3), 3u);
}

TEST(ScenarioRunner, ResultsOrderedByIndex) {
  std::vector<std::function<int()>> scenarios;
  for (int i = 0; i < 64; ++i) {
    scenarios.push_back([i] { return i * i; });
  }
  ScenarioRunner runner{4};
  const std::vector<int> results = runner.run(scenarios);
  ASSERT_EQ(results.size(), scenarios.size());
  for (int i = 0; i < 64; ++i) EXPECT_EQ(results[static_cast<std::size_t>(i)], i * i);
  EXPECT_GE(runner.last_wall_seconds(), 0.0);
}

TEST(ScenarioRunner, EmptyAndSingle) {
  ScenarioRunner runner{8};
  EXPECT_TRUE(runner.run(std::vector<std::function<int()>>{}).empty());
  std::vector<std::function<int()>> one{[] { return 41; }};
  EXPECT_EQ(runner.run(one), std::vector<int>{41});
}

TEST(ScenarioRunner, FirstExceptionByIndexPropagates) {
  std::vector<std::function<int()>> scenarios;
  for (int i = 0; i < 8; ++i) {
    scenarios.push_back([i]() -> int {
      if (i == 2 || i == 5) throw std::runtime_error("scenario " + std::to_string(i));
      return i;
    });
  }
  ScenarioRunner runner{4};
  try {
    (void)runner.run(scenarios);
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "scenario 2");
  }
}

// The tentpole guarantee: running full BAN simulations in parallel yields
// bit-identical energy results to serial execution, because every scenario
// owns its entire Simulator + node stack.
TEST(ScenarioRunner, ParallelBanScenariosBitIdenticalToSerial) {
  auto make_scenarios = [] {
    std::vector<std::function<core::ScenarioResult()>> scenarios;
    for (const std::uint64_t seed : {3ull, 17ull, 101ull, 2024ull}) {
      scenarios.push_back([seed] {
        core::PaperSetup setup;
        setup.seed = seed;
        setup.measure = Duration::seconds(3);
        core::BanConfig cfg =
            core::streaming_static_config(setup, Duration::milliseconds(30));
        core::MeasurementProtocol protocol;
        protocol.measure = setup.measure;
        return core::run_scenario(cfg, protocol);
      });
    }
    return scenarios;
  };

  ScenarioRunner serial{1};
  ScenarioRunner parallel{4};
  const auto a = serial.run(make_scenarios());
  const auto b = parallel.run(make_scenarios());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(a[i].joined);
    // Exact floating-point equality on purpose: not "close", identical.
    EXPECT_EQ(a[i].radio_mj, b[i].radio_mj) << "scenario " << i;
    EXPECT_EQ(a[i].mcu_mj, b[i].mcu_mj) << "scenario " << i;
    EXPECT_EQ(a[i].asic_mj, b[i].asic_mj) << "scenario " << i;
    EXPECT_EQ(a[i].total_mj, b[i].total_mj) << "scenario " << i;
    EXPECT_EQ(a[i].data_packets, b[i].data_packets) << "scenario " << i;
    EXPECT_EQ(a[i].events, b[i].events) << "scenario " << i;
  }
}

}  // namespace
}  // namespace bansim
