#include "sim/simulator.hpp"

namespace bansim::sim {

void Simulator::run_until(TimePoint until) {
  while (!queue_.empty() && queue_.next_time() <= until) {
    auto [when, action] = queue_.pop();
    now_ = when;
    ++executed_;
    action();
  }
  if (now_ < until) now_ = until;
}

void Simulator::run() {
  while (!queue_.empty()) {
    auto [when, action] = queue_.pop();
    now_ = when;
    ++executed_;
    action();
  }
}

void Simulator::reset() {
  queue_.clear();
  now_ = TimePoint::zero();
  executed_ = 0;
}

}  // namespace bansim::sim
