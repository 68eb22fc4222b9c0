#include "energy/campaign_columns.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

namespace bansim::energy {

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
