#include "energy/energy_meter.hpp"

#include <cassert>
#include <stdexcept>
#include <string>

#include "sim/check_hooks.hpp"

namespace bansim::energy {

EnergyMeter::EnergyMeter(std::string component, double supply_volts,
                         std::vector<PowerState> states, sim::TimePoint start)
    : component_{std::move(component)}, supply_volts_{supply_volts},
      states_{std::move(states)}, residency_{states_.size(), 0, start},
      start_{start} {
  assert(!states_.empty());
  assert(supply_volts_ > 0.0);
}

std::size_t EnergyMeter::checked_state(int state, const char* what) const {
  if (state < 0 || static_cast<std::size_t>(state) >= states_.size()) {
    throw std::out_of_range("EnergyMeter(" + component_ + ")::" + what +
                            ": state " + std::to_string(state) +
                            " outside [0, " + std::to_string(states_.size()) +
                            ")");
  }
  return static_cast<std::size_t>(state);
}

void EnergyMeter::transition(int state, sim::TimePoint when) {
  checked_state(state, "transition");
  residency_.transition(state, when);
  if (check_hooks_) check_hooks_->on_meter_transition(this, state, when);
}

void EnergyMeter::reset(sim::TimePoint start) {
  residency_.reset(0, start);
  start_ = start;
}

double EnergyMeter::energy_in(int state, sim::TimePoint now) const {
  const std::size_t i = checked_state(state, "energy_in");
  const double t = residency_.time_in(state, now).to_seconds();
  return states_[i].current_amps * supply_volts_ * t;
}

double EnergyMeter::total_energy(sim::TimePoint now) const {
  double e = 0.0;
  for (std::size_t i = 0; i < states_.size(); ++i) {
    e += energy_in(static_cast<int>(i), now);
  }
  return e;
}

}  // namespace bansim::energy
