#include "sim/stats.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace bansim::sim {

void Summary::add(double x) {
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double Summary::stddev() const { return std::sqrt(variance()); }

StateResidency::StateResidency(std::size_t num_states, int initial_state,
                               TimePoint start)
    : acc_(num_states, Duration::zero()), entries_(num_states, 0),
      state_{initial_state}, since_{start} {
  assert(static_cast<std::size_t>(initial_state) < num_states);
  ++entries_[static_cast<std::size_t>(initial_state)];
}

void StateResidency::transition(int new_state, TimePoint when) {
  assert(when >= since_ && "transitions must be time-ordered");
  assert(static_cast<std::size_t>(new_state) < acc_.size());
  acc_[static_cast<std::size_t>(state_)] += when - since_;
  state_ = new_state;
  since_ = when;
  ++entries_[static_cast<std::size_t>(new_state)];
}

void StateResidency::reset(int initial_state, TimePoint start) {
  assert(static_cast<std::size_t>(initial_state) < acc_.size());
  std::fill(acc_.begin(), acc_.end(), Duration::zero());
  std::fill(entries_.begin(), entries_.end(), std::uint64_t{0});
  state_ = initial_state;
  since_ = start;
  ++entries_[static_cast<std::size_t>(initial_state)];
}

Duration StateResidency::time_in(int state, TimePoint now) const {
  Duration t = acc_[static_cast<std::size_t>(state)];
  if (state == state_ && now > since_) t += now - since_;
  return t;
}

}  // namespace bansim::sim
