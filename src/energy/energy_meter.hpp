// State-residency energy metering.
//
// The paper's estimation model computes E = I * Vdd * t_state for every
// power state of every component (Section 4).  EnergyMeter is that formula
// as a reusable object: a component registers its states with measured
// currents, reports transitions, and the meter integrates charge over time.
// Both the high-fidelity reference stack and the OS-level estimator are
// built on this primitive; they differ only in *when* they report
// transitions and how many states they distinguish.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/stats.hpp"
#include "sim/time.hpp"

namespace bansim::sim {
class CheckHooks;
}

namespace bansim::energy {

/// Static description of one power state of a component.
struct PowerState {
  std::string name;       ///< e.g. "rx", "tx", "active", "lpm1"
  double current_amps{0};  ///< measured supply current while in this state
};

/// Integrates I*V*t across the declared power states of one component.
class EnergyMeter {
 public:
  /// `states` must be non-empty; the component starts in state 0 at `start`.
  EnergyMeter(std::string component, double supply_volts,
              std::vector<PowerState> states,
              sim::TimePoint start = sim::TimePoint::zero());

  /// Reports that the component entered `state` at time `when`.
  /// Throws std::out_of_range for a state outside [0, num_states()), as do
  /// all other state-addressed accessors — a silent out-of-bounds write
  /// here would skew every validation table downstream.
  void transition(int state, sim::TimePoint when);

  /// Run-reset: restores the meter to its just-constructed accounting —
  /// state 0 entered at `start`, zero residency — while the component
  /// name, supply voltage, state table and any attached check hooks
  /// survive.  Works regardless of what state a crashed or mid-run
  /// component left the meter in.
  void reset(sim::TimePoint start = sim::TimePoint::zero());

  [[nodiscard]] int current_state() const { return residency_.current_state(); }
  [[nodiscard]] const std::string& component() const { return component_; }
  [[nodiscard]] double supply_volts() const { return supply_volts_; }
  [[nodiscard]] std::size_t num_states() const { return states_.size(); }
  [[nodiscard]] const PowerState& state(std::size_t i) const { return states_[i]; }

  /// Time spent in `state` up to `now` (includes the in-progress stretch).
  [[nodiscard]] sim::Duration time_in(int state, sim::TimePoint now) const {
    checked_state(state, "time_in");
    return residency_.time_in(state, now);
  }

  /// Number of entries into `state` (diagnostics: wakeups, TX bursts, ...).
  [[nodiscard]] std::uint64_t entries(int state) const {
    checked_state(state, "entries");
    return residency_.entries(state);
  }

  /// Energy consumed in `state` up to `now`, in joules.
  [[nodiscard]] double energy_in(int state, sim::TimePoint now) const;

  /// Total energy across all states up to `now`, in joules.
  [[nodiscard]] double total_energy(sim::TimePoint now) const;

  /// Metering start instant (residency baseline for conservation checks).
  [[nodiscard]] sim::TimePoint start() const { return start_; }

  /// Attaches a checking-layer observer notified of every transition
  /// (nullptr detaches).  Observers are pure readers; attaching one never
  /// changes metered energies.
  void set_check_hooks(sim::CheckHooks* hooks) { check_hooks_ = hooks; }

 private:
  /// Validates a caller-supplied state index; returns it widened.  Throws
  /// std::out_of_range naming the component and call site.
  std::size_t checked_state(int state, const char* what) const;

  std::string component_;
  double supply_volts_;
  std::vector<PowerState> states_;
  sim::StateResidency residency_;
  sim::TimePoint start_;
  sim::CheckHooks* check_hooks_{nullptr};
};

/// Per-component breakdown row extracted from a meter.
struct ComponentEnergy {
  std::string component;
  double joules{0};
  std::vector<std::pair<std::string, double>> per_state;  ///< (state, joules)
};

}  // namespace bansim::energy
