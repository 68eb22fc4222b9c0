// energy::LifetimeReport math/formatting plus the lifetime campaign
// end-to-end, including the golden Table-1 pin: the paper's 5-node ECG
// static-TDMA cell on the default 160 mAh patch cell projects a fixed,
// exactly reproducible deployment lifetime.
#include <gtest/gtest.h>

#include <cmath>

#include "check/fault_campaign.hpp"
#include "core/bansim.hpp"
#include "core/paper_experiments.hpp"
#include "energy/lifetime.hpp"

namespace bansim {
namespace {

using sim::Duration;
using sim::TimePoint;

energy::LifetimeReport sample_report() {
  energy::LifetimeReport report;
  report.window_seconds = 10.0;
  energy::LifetimeRow a;
  a.node = "node1";
  a.average_watts = 0.020;
  a.projected_hours = 16.0;
  energy::LifetimeRow b;
  b.node = "node2";
  b.average_watts = 0.022;
  b.died = true;
  b.died_at_hours = 2.0;
  b.projected_hours = 14.0;  // superseded by the observed death
  energy::LifetimeRow c;
  c.node = "node3";
  c.average_watts = 0.004;
  c.projected_hours = std::numeric_limits<double>::infinity();
  report.rows = {a, b, c};
  return report;
}

TEST(LifetimeReport, ObservedDeathTrumpsProjection) {
  const energy::LifetimeReport report = sample_report();
  EXPECT_DOUBLE_EQ(report.rows[1].lifetime_hours(), 2.0);
  EXPECT_DOUBLE_EQ(report.rows[0].lifetime_hours(), 16.0);
  EXPECT_DOUBLE_EQ(report.first_death_hours(), 2.0);
}

TEST(LifetimeReport, PercentilesAreNearestRank) {
  const energy::LifetimeReport report = sample_report();
  EXPECT_DOUBLE_EQ(report.percentile_hours(0.0), 2.0);
  EXPECT_DOUBLE_EQ(report.percentile_hours(0.5), 16.0);
  EXPECT_TRUE(std::isinf(report.percentile_hours(1.0)));
}

TEST(LifetimeReport, EmptyReportIsImmortal) {
  const energy::LifetimeReport report;
  EXPECT_TRUE(std::isinf(report.first_death_hours()));
}

TEST(LifetimeReport, RenderAndCsvCarryEveryRow) {
  const energy::LifetimeReport report = sample_report();
  const std::string table = report.render();
  EXPECT_NE(table.find("node1"), std::string::npos);
  EXPECT_NE(table.find("node3"), std::string::npos);
  EXPECT_NE(table.find("inf"), std::string::npos);
  const std::string csv = report.render_csv();
  EXPECT_NE(csv.find("node,avg_mw,harvest_mw,soc,lifetime_h,died,died_at_h"),
            std::string::npos);
  EXPECT_NE(csv.find("node2"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Campaigns
// ---------------------------------------------------------------------------

TEST(LifetimeCampaign, StopsAtFirstDeathAndReportsIt) {
  core::BanConfig config;
  config.num_nodes = 2;
  config.tdma = mac::TdmaConfig::static_plan(Duration::milliseconds(30), 5);
  config.app = core::AppKind::kEcgStreaming;
  config.streaming.sample_rate_hz = 205;
  config.storage.enabled = true;
  config.storage.battery.capacity_mah = 0.01;  // dies within seconds

  check::LifetimeCampaignOptions options;
  options.horizon = Duration::seconds(60);
  const check::LifetimeOutcome outcome =
      check::run_lifetime_campaign(config, options);

  EXPECT_TRUE(outcome.death_observed);
  EXPECT_LT(outcome.simulated, Duration::seconds(60));
  EXPECT_EQ(outcome.violations, 0u) << outcome.violation_report;
  ASSERT_EQ(outcome.report.rows.size(), 2u);
  bool any_died = false;
  for (const auto& row : outcome.report.rows) any_died |= row.died;
  EXPECT_TRUE(any_died);
  EXPECT_LE(outcome.report.first_death_hours(),
            outcome.simulated.to_seconds() / 3600.0 + 1e-12);
}

TEST(LifetimeCampaign, DeathFreeRunProjectsFromMeasuredPower) {
  core::BanConfig config;
  config.num_nodes = 2;
  config.tdma = mac::TdmaConfig::static_plan(Duration::milliseconds(30), 5);
  config.app = core::AppKind::kEcgStreaming;
  config.streaming.sample_rate_hz = 205;
  config.storage.enabled = true;  // default 160 mAh: outlives any test run

  check::LifetimeCampaignOptions options;
  options.horizon = Duration::seconds(5);
  const check::LifetimeOutcome outcome =
      check::run_lifetime_campaign(config, options);

  EXPECT_FALSE(outcome.death_observed);
  EXPECT_EQ(outcome.simulated, Duration::seconds(5));
  EXPECT_EQ(outcome.violations, 0u) << outcome.violation_report;
  for (const auto& row : outcome.report.rows) {
    EXPECT_FALSE(row.died);
    EXPECT_GT(row.average_watts, 0.0);
    EXPECT_GT(row.projected_hours, 1.0) << row.node;
    EXPECT_TRUE(std::isfinite(row.projected_hours)) << row.node;
    EXPECT_NEAR(row.state_of_charge, 1.0, 1e-3) << row.node;
  }
}

/// Golden Table-1 lifetime pin: the paper's 5-node ECG streaming cell,
/// static 30 ms TDMA, each node on the default 160 mAh / 3.0 V patch cell.
/// The measured draw and hence the projection are deterministic, so the
/// hours are pinned exactly; any drift in the MAC, the meters or the
/// battery model shows up here.
TEST(LifetimeCampaign, GoldenTable1EcgStaticLifetime) {
  core::PaperSetup setup;
  core::BanConfig config =
      core::streaming_static_config(setup, Duration::milliseconds(30));
  config.storage.enabled = true;  // default BatteryParams: 160 mAh cell

  check::LifetimeCampaignOptions options;
  options.horizon = Duration::seconds(10);
  const check::LifetimeOutcome outcome =
      check::run_lifetime_campaign(config, options);

  EXPECT_FALSE(outcome.death_observed);
  EXPECT_EQ(outcome.violations, 0u) << outcome.violation_report;
  ASSERT_EQ(outcome.report.rows.size(), 5u);

  // Usable charge of the default cell: 12/17 of 1728 J.
  const double usable = 1728.0 * 12.0 / 17.0;
  for (const auto& row : outcome.report.rows) {
    // The draw is ~20 mW, well under 1 C, so no Peukert derate applies and
    // the projection is exactly usable / load.
    EXPECT_DOUBLE_EQ(row.projected_hours,
                     usable / row.average_watts / 3600.0)
        << row.node;
    // Table-1 scale check: an ECG streamer at ~20 mW lasts 13-19 h on the
    // 160 mAh patch cell.
    EXPECT_GT(row.projected_hours, 13.0) << row.node;
    EXPECT_LT(row.projected_hours, 19.0) << row.node;
  }
}

}  // namespace
}  // namespace bansim
