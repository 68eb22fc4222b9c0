// Direct unit tests for the campaign metrics: MetricCdf's percentiles and
// CampaignColumns' exact row round trip and PDR column.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "energy/campaign_columns.hpp"

namespace {

using bansim::energy::CampaignColumns;
using bansim::energy::CampaignRunRow;
using bansim::energy::MetricCdf;

constexpr double kInf = std::numeric_limits<double>::infinity();

CampaignRunRow make_row(std::uint64_t i) {
  CampaignRunRow row;
  row.seed = 1000 + i;
  row.total_mj = 30.0 + 0.17 * static_cast<double>(i);
  row.radio_mj = 11.0 + 0.05 * static_cast<double>(i);
  row.mcu_mj = 15.0 + 0.07 * static_cast<double>(i);
  row.asic_mj = row.total_mj - row.radio_mj - row.mcu_mj;
  row.lifetime_hours = (i % 5 == 0) ? kInf : 40.0 + static_cast<double>(i);
  row.join_ms = 80.0 + static_cast<double>(i % 7);
  row.data_packets = 200 + i;
  row.delivered_packets = 190 + i;
  row.joined = true;
  return row;
}

TEST(MetricCdfMerge, GoldenPercentiles) {
  // 0..99 into 10 equal bins of [0, 99]: percentile(q) interpolates within
  // the bin that crosses q — golden values computed by hand.
  std::vector<double> column;
  for (int i = 0; i < 100; ++i) column.push_back(static_cast<double>(i));
  const MetricCdf cdf = MetricCdf::build(column, 10);
  ASSERT_EQ(cdf.count, 100U);
  ASSERT_EQ(cdf.bin_count.size(), 10U);
  EXPECT_EQ(cdf.bin_count[0], 10U);  // 0..9 land in the first bin
  EXPECT_DOUBLE_EQ(cdf.percentile(0.0), 0.0);
  // q=0.5: cum hits 0.5 exactly at the end of bin 4 -> edge 49.5... the
  // bin spanning (39.6, 49.5] accumulates 0.4 -> 0.5, interpolating to its
  // upper edge.
  EXPECT_NEAR(cdf.percentile(0.5), 49.5, 1e-12);
  EXPECT_NEAR(cdf.percentile(1.0), 99.0, 1e-12);
}

TEST(MetricCdf, UnboundedColumnGetsUnitBinsEmptyGetsNone) {
  // A storage-less campaign projects +inf for every patient: the CDF keeps
  // its bins (unit width from 0) and puts every entry in the tail.
  const std::vector<double> immortal{kInf, kInf, kInf};
  const MetricCdf cdf = MetricCdf::build(immortal, 4);
  EXPECT_EQ(cdf.count, 0U);
  EXPECT_EQ(cdf.unbounded, 3U);
  EXPECT_EQ(cdf.upper_edge, (std::vector<double>{1.0, 2.0, 3.0, 4.0}));
  EXPECT_EQ(cdf.cum_fraction, (std::vector<double>{0.0, 0.0, 0.0, 0.0}));

  EXPECT_EQ(MetricCdf::build({}, 4).render_csv(), "value,cum_fraction\n");
}

TEST(CampaignColumns, RowRoundTripIsExact) {
  CampaignColumns columns;
  CampaignRunRow row = make_row(17);
  row.total_mj = 0.1 + 0.2;  // a value with no short decimal form
  row.lifetime_hours = kInf;
  row.joined = false;
  columns.append_run(row);
  const CampaignRunRow back = columns.row(0);
  EXPECT_EQ(back.seed, row.seed);
  EXPECT_EQ(back.total_mj, row.total_mj);  // bit-exact, not approx
  EXPECT_EQ(back.radio_mj, row.radio_mj);
  EXPECT_EQ(back.mcu_mj, row.mcu_mj);
  EXPECT_EQ(back.asic_mj, row.asic_mj);
  EXPECT_TRUE(std::isinf(back.lifetime_hours));
  EXPECT_EQ(back.join_ms, row.join_ms);
  EXPECT_EQ(back.data_packets, row.data_packets);
  EXPECT_EQ(back.delivered_packets, row.delivered_packets);
  EXPECT_FALSE(back.joined);
}

TEST(CampaignColumns, PdrColumnAndGoldenPercentiles) {
  CampaignColumns columns;
  for (std::uint64_t i = 0; i < 10; ++i) {
    CampaignRunRow row = make_row(i);
    row.data_packets = 100;
    row.delivered_packets = 90 + i;  // PDR 0.90 .. 0.99
    columns.append_run(row);
  }
  const std::vector<double> pdr = columns.pdr_column();
  ASSERT_EQ(pdr.size(), 10U);
  std::vector<double> scratch;
  // Nearest-rank: p50 of 10 entries is the 5th smallest = 0.94.
  EXPECT_DOUBLE_EQ(bansim::energy::column_percentile(pdr, 0.50, scratch),
                   0.94);
  EXPECT_DOUBLE_EQ(bansim::energy::column_percentile(pdr, 1.00, scratch),
                   0.99);

  // An idle run (nothing sent) counts as perfect delivery.
  CampaignRunRow idle;
  idle.data_packets = 0;
  idle.delivered_packets = 0;
  EXPECT_DOUBLE_EQ(idle.pdr(), 1.0);
}

}  // namespace
