#include "energy/lifetime.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <limits>
#include <sstream>

namespace bansim::energy {

namespace {

std::vector<double> sorted_lifetimes(const LifetimeReport& report) {
  std::vector<double> hours;
  hours.reserve(report.rows.size());
  for (const LifetimeRow& row : report.rows) {
    hours.push_back(row.lifetime_hours());
  }
  std::sort(hours.begin(), hours.end());
  return hours;
}

std::string hours_cell(double h) {
  std::ostringstream out;
  if (std::isinf(h)) {
    out << "inf";
  } else {
    out << std::fixed << std::setprecision(2) << h;
  }
  return out.str();
}

}  // namespace

double LifetimeReport::first_death_hours() const {
  double first = std::numeric_limits<double>::infinity();
  for (const LifetimeRow& row : rows) {
    first = std::min(first, row.lifetime_hours());
  }
  return first;
}

double LifetimeReport::percentile_hours(double q) const {
  if (rows.empty()) return std::numeric_limits<double>::infinity();
  const std::vector<double> hours = sorted_lifetimes(*this);
  const double clamped = std::clamp(q, 0.0, 1.0);
  const auto rank = static_cast<std::size_t>(
      std::min(static_cast<double>(hours.size() - 1),
               std::floor(clamped * static_cast<double>(hours.size()))));
  return hours[rank];
}

std::string LifetimeReport::render() const {
  std::ostringstream out;
  out << "Lifetime (window " << std::fixed << std::setprecision(1)
      << window_seconds << " s)\n";
  out << std::left << std::setw(10) << "node" << std::right << std::setw(10)
      << "avg mW" << std::setw(12) << "harvest mW" << std::setw(8) << "SoC %"
      << std::setw(12) << "lifetime h" << std::setw(7) << "died" << "\n";
  for (const LifetimeRow& row : rows) {
    out << std::left << std::setw(10) << row.node << std::right
        << std::setw(10) << std::fixed << std::setprecision(3)
        << row.average_watts * 1e3 << std::setw(12) << std::setprecision(3)
        << row.harvest_watts * 1e3 << std::setw(8) << std::setprecision(1)
        << row.state_of_charge * 100.0 << std::setw(12)
        << hours_cell(row.lifetime_hours()) << std::setw(7)
        << (row.died ? "yes" : "no") << "\n";
  }
  if (!rows.empty()) {
    out << "first death " << hours_cell(first_death_hours()) << " h, median "
        << hours_cell(percentile_hours(0.5)) << " h, last "
        << hours_cell(percentile_hours(1.0)) << " h\n";
  }
  return out.str();
}

std::string LifetimeReport::render_csv() const {
  std::ostringstream out;
  out << "node,avg_mw,harvest_mw,soc,lifetime_h,died,died_at_h\n";
  for (const LifetimeRow& row : rows) {
    out << row.node << "," << row.average_watts * 1e3 << ","
        << row.harvest_watts * 1e3 << "," << row.state_of_charge << ","
        << row.lifetime_hours() << "," << (row.died ? 1 : 0) << ","
        << row.died_at_hours << "\n";
  }
  return out.str();
}

}  // namespace bansim::energy
