#include "sim/simulator.hpp"

namespace bansim::sim {

void Simulator::execute_until(TimePoint until) {
  EventAction action;
  while (queue_.pop_until(until, now_, action)) {
    ++executed_;
    action();
    action.reset();  // the closure dies right after it returns
  }
}

void Simulator::run_until(TimePoint until) {
  execute_until(until);
  if (now_ < until) now_ = until;
}

void Simulator::run() { execute_until(TimePoint::max()); }

void Simulator::reset() {
  queue_.clear();
  now_ = TimePoint::zero();
  executed_ = 0;
}

}  // namespace bansim::sim
