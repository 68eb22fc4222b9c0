#include "energy/campaign_columns.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

namespace bansim::energy {

void CampaignColumns::reserve(std::size_t runs) {
  seed.reserve(runs);
  total_mj.reserve(runs);
  radio_mj.reserve(runs);
  mcu_mj.reserve(runs);
  asic_mj.reserve(runs);
  lifetime_hours.reserve(runs);
  join_ms.reserve(runs);
  data_packets.reserve(runs);
  delivered_packets.reserve(runs);
  joined.reserve(runs);
}

void CampaignColumns::append_run(const CampaignRunRow& row) {
  seed.push_back(row.seed);
  total_mj.push_back(row.total_mj);
  radio_mj.push_back(row.radio_mj);
  mcu_mj.push_back(row.mcu_mj);
  asic_mj.push_back(row.asic_mj);
  lifetime_hours.push_back(row.lifetime_hours);
  join_ms.push_back(row.join_ms);
  data_packets.push_back(row.data_packets);
  delivered_packets.push_back(row.delivered_packets);
  joined.push_back(row.joined ? 1 : 0);
}

CampaignRunRow CampaignColumns::row(std::size_t i) const {
  CampaignRunRow r;
  r.seed = seed.at(i);
  r.total_mj = total_mj.at(i);
  r.radio_mj = radio_mj.at(i);
  r.mcu_mj = mcu_mj.at(i);
  r.asic_mj = asic_mj.at(i);
  r.lifetime_hours = lifetime_hours.at(i);
  r.join_ms = join_ms.at(i);
  r.data_packets = data_packets.at(i);
  r.delivered_packets = delivered_packets.at(i);
  r.joined = joined.at(i) != 0;
  return r;
}

std::vector<double> CampaignColumns::pdr_column() const {
  std::vector<double> out;
  out.reserve(runs());
  for (std::size_t i = 0; i < runs(); ++i) {
    out.push_back(data_packets[i] == 0
                      ? 1.0
                      : static_cast<double>(delivered_packets[i]) /
                            static_cast<double>(data_packets[i]));
  }
  return out;
}

double column_mean(std::span<const double> column) {
  double sum = 0;
  std::size_t n = 0;
  for (double v : column) {
    if (!std::isfinite(v)) continue;
    sum += v;
    ++n;
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

double column_percentile(std::span<const double> column, double q,
                         std::vector<double>& scratch) {
  if (column.empty()) return 0.0;
  scratch.assign(column.begin(), column.end());
  q = std::clamp(q, 0.0, 1.0);
  // Nearest-rank: the ceil(q*n)-th smallest value (1-based).
  const std::size_t n = scratch.size();
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n)));
  if (rank > 0) --rank;
  std::nth_element(scratch.begin(),
                   scratch.begin() + static_cast<std::ptrdiff_t>(rank),
                   scratch.end());
  return scratch[rank];
}

MetricCdf MetricCdf::build(std::span<const double> column, std::size_t bins) {
  MetricCdf cdf;
  if (column.empty()) return cdf;
  if (bins == 0) bins = 1;
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  for (double v : column) {
    if (!std::isfinite(v)) {
      ++cdf.unbounded;
      continue;
    }
    lo = std::min(lo, v);
    hi = std::max(hi, v);
    ++cdf.count;
  }
  if (cdf.count > 0) {
    cdf.lo = lo;
    cdf.hi = hi;
  }

  const double width =
      cdf.hi > cdf.lo ? (cdf.hi - cdf.lo) / static_cast<double>(bins) : 1.0;
  cdf.bin_count.assign(bins, 0);
  for (double v : column) {
    if (!std::isfinite(v)) continue;
    auto bin = static_cast<std::size_t>((v - cdf.lo) / width);
    if (bin >= bins) bin = bins - 1;  // v == hi lands past the last edge
    ++cdf.bin_count[bin];
  }

  const auto total = static_cast<double>(cdf.count + cdf.unbounded);
  cdf.upper_edge.reserve(bins);
  cdf.cum_fraction.reserve(bins);
  std::uint64_t running = 0;
  for (std::size_t b = 0; b < bins; ++b) {
    running += cdf.bin_count[b];
    cdf.upper_edge.push_back(cdf.lo + width * static_cast<double>(b + 1));
    cdf.cum_fraction.push_back(static_cast<double>(running) / total);
  }
  return cdf;
}

double MetricCdf::percentile(double q) const {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double bounded_fraction =
      static_cast<double>(count) / static_cast<double>(count + unbounded);
  if (q > bounded_fraction) return std::numeric_limits<double>::infinity();
  double below = 0;
  double lower = lo;
  for (std::size_t b = 0; b < cum_fraction.size(); ++b) {
    if (cum_fraction[b] >= q) {
      const double span = cum_fraction[b] - below;
      const double t = span > 0 ? (q - below) / span : 1.0;
      return lower + t * (upper_edge[b] - lower);
    }
    below = cum_fraction[b];
    lower = upper_edge[b];
  }
  return hi;
}

std::string MetricCdf::render_csv() const {
  std::string csv = "value,cum_fraction\n";
  char row[64];
  for (std::size_t b = 0; b < upper_edge.size(); ++b) {
    std::snprintf(row, sizeof(row), "%.6g,%.6g\n", upper_edge[b],
                  cum_fraction[b]);
    csv += row;
  }
  return csv;
}

}  // namespace bansim::energy
