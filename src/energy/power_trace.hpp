// Instantaneous-power time series built from meter transitions; feeds the
// figure generators and lets tests assert on the *shape* of a node's power
// profile (beacon spikes, TX bursts, sleep floor).
#pragma once

#include <vector>

#include "sim/time.hpp"

namespace bansim::energy {

/// Step-wise power waveform: power is `watts[i]` on [at[i], at[i+1]).
class PowerTrace {
 public:
  /// Appends a step; `when` must be monotonically non-decreasing (throws
  /// std::invalid_argument on a time regression).  Same-instant steps
  /// coalesce: the later power value wins.
  void step(sim::TimePoint when, double watts);

  [[nodiscard]] std::size_t size() const { return points_.size(); }
  [[nodiscard]] double watts_at(std::size_t i) const { return points_[i].watts; }

  /// Integrated energy over [t0, t1], joules.
  [[nodiscard]] double energy(sim::TimePoint t0, sim::TimePoint t1) const;

  /// Peak power over the whole trace.
  [[nodiscard]] double peak() const;

 private:
  struct Point {
    sim::TimePoint when;
    double watts;
  };
  std::vector<Point> points_;
};

}  // namespace bansim::energy
