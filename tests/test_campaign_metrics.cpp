// Direct unit tests for the campaign metrics: MetricCdf's percentiles and
// the PDR column a report projects from CampaignRunRows.
#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "energy/campaign_columns.hpp"

namespace {

using bansim::energy::CampaignRunRow;
using bansim::energy::MetricCdf;

constexpr double kInf = std::numeric_limits<double>::infinity();

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

TEST(CampaignColumns, PdrColumnAndGoldenPercentiles) {
  std::vector<double> pdr;
  for (std::uint64_t i = 0; i < 10; ++i) {
    CampaignRunRow row;
    row.data_packets = 100;
    row.delivered_packets = 90 + i;  // PDR 0.90 .. 0.99
    pdr.push_back(row.pdr());
  }
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
