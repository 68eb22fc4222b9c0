#include "energy/power_trace.hpp"

#include <algorithm>
#include <stdexcept>

namespace bansim::energy {

void PowerTrace::step(sim::TimePoint when, double watts) {
  if (!points_.empty() && when < points_.back().when) {
    // A step before the last one would silently corrupt energy()'s
    // segments; report it as the caller bug it is (in every build type — a
    // debug assert would let release figure generators integrate garbage).
    throw std::invalid_argument("PowerTrace::step: time moved backwards (" +
                                when.to_string() + " < " +
                                points_.back().when.to_string() + ")");
  }
  if (!points_.empty() && points_.back().when == when) {
    points_.back().watts = watts;  // coalesce same-instant steps
    return;
  }
  points_.push_back({when, watts});
}

double PowerTrace::energy(sim::TimePoint t0, sim::TimePoint t1) const {
  if (points_.empty() || t1 <= t0) return 0.0;
  double joules = 0.0;
  for (std::size_t i = 0; i < points_.size(); ++i) {
    const sim::TimePoint seg_start = points_[i].when;
    const sim::TimePoint seg_end =
        (i + 1 < points_.size()) ? points_[i + 1].when : t1;
    const sim::TimePoint lo = std::max(seg_start, t0);
    const sim::TimePoint hi = std::min(seg_end, t1);
    if (hi > lo) joules += points_[i].watts * (hi - lo).to_seconds();
  }
  return joules;
}

double PowerTrace::peak() const {
  double p = 0.0;
  for (const auto& pt : points_) p = std::max(p, pt.watts);
  return p;
}

}  // namespace bansim::energy
