// Per-node energy storage: the live store every running node draws from.
//
// The paper's platforms run "on very limited resources, such as batteries
// or energy scavengers" (Section 1).  An EnergyStore models either side of
// that "or": a battery cell (Peukert-derated, voltage-cutoff depletion,
// permanent death) or a capacitor-backed battery-less node (E = C*V^2/2,
// turnoff/turnon voltage hysteresis, reboots when harvest refills it).  A
// HarvestParams profile describes the scavenged income analytically —
// constant, sinusoidal or duty-cycled square — so the store integrates it
// in closed form without drawing randomness.
//
// The store itself is passive arithmetic: fault::StorageDriver samples each
// node's EnergyMeter residency into draw(), integrates the harvest profile
// into charge(), and routes depletion through the MAC's crash()/reboot()
// fault interface.  Every joule is accounted: the cumulative counters close
// as  drawn == requested (while charge remains)  and
// income == stored + overflow, which check::InvariantMonitor audits.
#pragma once

#include <cstdint>
#include <string>

#include "sim/time.hpp"

namespace bansim::hw {

enum class StorageKind : std::uint8_t { kBattery, kCapacitor };

[[nodiscard]] constexpr const char* to_string(StorageKind k) {
  return k == StorageKind::kBattery ? "battery" : "capacitor";
}

/// Battery cell: linear open-circuit-voltage sag from full_volts to
/// dead_volts, depletion at the empty_volts cutoff, Peukert derate of the
/// projected lifetime above the rated discharge rate.
struct BatteryParams {
  double capacity_mah{160.0};     ///< typical body-worn patch cell
  double nominal_volts{3.0};
  double full_volts{4.2};         ///< Li-polymer open-circuit, full
  /// Usable-charge cutoff: the node's regulator drops out at this
  /// open-circuit voltage, so the cell is "depleted" here — well above the
  /// chemistry floor — even though charge remains below it.
  double empty_volts{3.0};
  /// Chemistry floor of the linear OCV sag (fully discharged cell).  Must
  /// be below empty_volts; the stretch between the two is the unusable
  /// tail of the discharge curve.
  double dead_volts{2.5};
  /// Rated discharge rate in C.  Peukert derating applies only above this
  /// rate: a cell delivers its rated capacity at (or below) the rate it
  /// was specified at, and progressively less above it.
  double rated_c{1.0};
  /// Peukert-like derating exponent: effective capacity shrinks as the
  /// average discharge rate (in C) rises past rated_c; 1.0 disables the
  /// effect.
  double peukert_exponent{1.05};
};

/// Capacitor-backed battery-less node: the store is E = C * V^2 / 2.  The
/// node browns out when the voltage sags to `turnoff_volts` and may power
/// back on once harvest income lifts it to `turnon_volts` — the gap is the
/// start-up hysteresis that keeps a trickle-charged node from boot-looping.
struct CapacitorParams {
  double capacitance_farads{0.1};  ///< small supercapacitor
  double full_volts{5.0};
  double turnoff_volts{2.0};
  double turnon_volts{3.0};
};

/// Analytic scavenged-power profile (thermoelectric / solar / kinetic).
/// Closed-form integrable, so income over a window is exact and
/// deterministic; power_at() is clamped at zero (a profile whose swing
/// crosses zero simply contributes nothing over the negative stretch).
struct HarvestParams {
  enum class Profile : std::uint8_t { kConstant, kSine, kSquare };

  bool enabled{false};
  Profile profile{Profile::kConstant};
  /// kConstant: the harvested power.  kSine: peak of the positive half
  /// swing around `floor_watts`.  kSquare: plateau while the burst is on.
  double watts{0.001};
  /// Baseline offset: kSine swings around it (negative dips clamp to 0),
  /// kSquare emits it between bursts, kConstant ignores it.
  double floor_watts{0.0};
  sim::Duration period{sim::Duration::seconds(60)};
  double duty{0.5};  ///< kSquare: on-fraction of each period
  sim::Duration phase{};

  /// Instantaneous harvested power at t, clamped >= 0.
  [[nodiscard]] double power_at(sim::TimePoint t) const;
  /// Exact integral of power_at over [t0, t1] in joules (0 when t1 <= t0).
  [[nodiscard]] double energy_between(sim::TimePoint t0,
                                      sim::TimePoint t1) const;
  /// Long-run mean of power_at (for lifetime projection).
  [[nodiscard]] double average_watts() const;
};

[[nodiscard]] const char* to_string(HarvestParams::Profile p);

/// Full storage description of one node ([storage] / [battery] /
/// [capacitor] / [harvest] INI sections; NodeSpec may override per node).
struct StorageParams {
  /// Master switch.  Disabled (the default) means the node is powered from
  /// the bench supply: no store, no driver events, runs bit-identical to
  /// builds that predate the storage subsystem.
  bool enabled{false};
  StorageKind kind{StorageKind::kBattery};
  BatteryParams battery{};
  CapacitorParams capacitor{};
  HarvestParams harvest{};
  /// Sampling interval of the storage driver (meter residency -> draw).
  sim::Duration check{sim::Duration::milliseconds(100)};

  /// Empty when well-formed, else the first problem (hard error upstream).
  [[nodiscard]] std::string validate() const;
};

/// One node's live energy store.  Pure arithmetic — no clock, no RNG —
/// driven by fault::StorageDriver.
class EnergyStore {
 public:
  explicit EnergyStore(const StorageParams& params);

  /// Removes up to `joules` (the node's metered consumption over a
  /// sampling window); returns the joules actually removed.  The request
  /// is always accounted in total_draw_requested(), so the books still
  /// close after the store runs dry while leakage keeps metering.
  double draw(double joules);

  /// Adds harvested income (clamped at full); returns the joules stored.
  /// The clamped remainder accumulates in total_overflow().
  double charge(double joules);

  /// True when the store can no longer power the node: battery at the
  /// voltage cutoff, capacitor at/below turnoff_volts.  Exact boundary
  /// depletes (a draw landing the store exactly on the threshold kills).
  [[nodiscard]] bool depleted() const;

  /// True when a dead node may boot again: capacitors recover once the
  /// voltage climbs back to turnon_volts; battery depletion is permanent.
  [[nodiscard]] bool can_power_on() const;

  [[nodiscard]] double capacity_joules() const { return capacity_joules_; }
  [[nodiscard]] double remaining_joules() const { return remaining_joules_; }
  [[nodiscard]] double initial_joules() const { return initial_joules_; }
  [[nodiscard]] double state_of_charge() const {
    return capacity_joules_ > 0.0 ? remaining_joules_ / capacity_joules_ : 0.0;
  }
  /// Deliverable charge: remaining minus what lies below the depletion
  /// threshold (the battery's unusable tail / the capacitor's charge at
  /// turnoff_volts), >= 0.
  [[nodiscard]] double usable_joules() const;
  /// Terminal voltage at the current charge (battery OCV / capacitor V).
  [[nodiscard]] double volts() const;

  // --- Cumulative accounting (audited by check::InvariantMonitor) ----------
  [[nodiscard]] double total_draw_requested() const { return requested_; }
  [[nodiscard]] double total_drawn() const { return drawn_; }
  [[nodiscard]] double total_income() const { return income_; }
  [[nodiscard]] double total_stored() const { return stored_; }
  [[nodiscard]] double total_overflow() const { return overflow_; }

  [[nodiscard]] const StorageParams& params() const { return params_; }

 private:
  [[nodiscard]] double cutoff_joules() const;
  [[nodiscard]] double joules_at_volts(double volts) const;

  StorageParams params_;
  double capacity_joules_{0.0};
  double remaining_joules_{0.0};
  double initial_joules_{0.0};
  double requested_{0.0};
  double drawn_{0.0};
  double income_{0.0};
  double stored_{0.0};
  double overflow_{0.0};
};

/// Lifetime projection from a full store: hours until depletion at a
/// constant net load of `node_watts - harvest_watts`.  The capacitor kind
/// is linear in the usable charge.  The battery kind derates the usable
/// charge by Peukert's law relative to rated_c above that rate only; at or
/// below it the cell delivers its usable charge (effective <= remaining,
/// always).  Infinite when the net load is non-positive.
[[nodiscard]] double projected_hours(const StorageParams& params,
                                     double node_watts, double harvest_watts);

}  // namespace bansim::hw
