// Lightweight statistics primitives used across the models and the
// experiment harness: running scalar summaries and time-weighted
// state-residency accumulators (the workhorse behind all the energy
// accounting).
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "sim/time.hpp"

namespace bansim::sim {

/// Running summary of a scalar sample stream: n, mean, min, max, variance
/// (Welford's algorithm, numerically stable).
class Summary {
 public:
  void add(double x);

  [[nodiscard]] std::uint64_t count() const { return n_; }
  [[nodiscard]] double mean() const { return n_ ? mean_ : 0.0; }
  [[nodiscard]] double min() const { return n_ ? min_ : 0.0; }
  [[nodiscard]] double max() const { return n_ ? max_ : 0.0; }
  [[nodiscard]] double variance() const { return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0; }
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double sum() const { return sum_; }

  void reset() { *this = Summary{}; }

 private:
  std::uint64_t n_{0};
  double mean_{0.0};
  double m2_{0.0};
  double sum_{0.0};
  double min_{std::numeric_limits<double>::infinity()};
  double max_{-std::numeric_limits<double>::infinity()};
};

/// Accumulates how long an integer-labelled state machine spent in each
/// state.  The caller reports transitions; residency in the current state is
/// counted up to the query time.  This is the primitive both fidelity levels
/// use to integrate I*V*t energy.
class StateResidency {
 public:
  explicit StateResidency(std::size_t num_states, int initial_state = 0,
                          TimePoint start = TimePoint::zero());

  /// Records a transition at time `when` (must be >= the previous event).
  void transition(int new_state, TimePoint when);

  /// Run-reset: identical to constructing StateResidency{num_states,
  /// initial_state, start} but in place, reusing the accumulator storage.
  void reset(int initial_state = 0, TimePoint start = TimePoint::zero());

  [[nodiscard]] int current_state() const { return state_; }

  /// Total time spent in `state`, counting the in-progress stretch up to `now`.
  [[nodiscard]] Duration time_in(int state, TimePoint now) const;

  /// Number of entries into `state`.
  [[nodiscard]] std::uint64_t entries(int state) const {
    return entries_[static_cast<std::size_t>(state)];
  }

  [[nodiscard]] std::size_t num_states() const { return acc_.size(); }

 private:
  std::vector<Duration> acc_;
  std::vector<std::uint64_t> entries_;
  int state_;
  TimePoint since_;
};

}  // namespace bansim::sim
