#include "hw/energy_store.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace bansim::hw {

const char* to_string(HarvestParams::Profile p) {
  switch (p) {
    case HarvestParams::Profile::kConstant: return "constant";
    case HarvestParams::Profile::kSine: return "sine";
    case HarvestParams::Profile::kSquare: return "square";
  }
  return "?";
}

double HarvestParams::power_at(sim::TimePoint t) const {
  switch (profile) {
    case Profile::kConstant:
      return std::max(0.0, watts);
    case Profile::kSine: {
      const double period_s = period.to_seconds();
      if (period_s <= 0.0) return std::max(0.0, floor_watts);
      const double theta =
          2.0 * M_PI * (t.since_epoch() - phase).to_seconds() / period_s;
      return std::max(0.0, floor_watts + watts * std::sin(theta));
    }
    case Profile::kSquare: {
      const double period_s = period.to_seconds();
      if (period_s <= 0.0) return std::max(0.0, floor_watts);
      double pos = std::fmod((t.since_epoch() - phase).to_seconds(), period_s);
      if (pos < 0.0) pos += period_s;
      const double on_len = std::clamp(duty, 0.0, 1.0) * period_s;
      return std::max(0.0, pos < on_len ? watts : floor_watts);
    }
  }
  return 0.0;
}

double HarvestParams::energy_between(sim::TimePoint t0,
                                     sim::TimePoint t1) const {
  if (t1 <= t0) return 0.0;
  const double span = (t1 - t0).to_seconds();
  switch (profile) {
    case Profile::kConstant:
      return std::max(0.0, watts) * span;
    case Profile::kSquare: {
      // Exact piecewise integral: whole periods in one multiply, then walk
      // the (at most three) partial pieces of the remainder.
      const double period_s = period.to_seconds();
      if (period_s <= 0.0) return std::max(0.0, floor_watts) * span;
      const double on = std::max(0.0, watts);
      const double off = std::max(0.0, floor_watts);
      const double on_len = std::clamp(duty, 0.0, 1.0) * period_s;
      const double per_period = on * on_len + off * (period_s - on_len);
      double pos = std::fmod((t0.since_epoch() - phase).to_seconds(), period_s);
      if (pos < 0.0) pos += period_s;
      double left = span;
      const double full = std::floor(left / period_s);
      double total = full * per_period;
      left -= full * period_s;
      while (left > 0.0) {
        const double edge = pos < on_len ? on_len : period_s;
        const double take = std::min(left, edge - pos);
        total += (pos < on_len ? on : off) * take;
        pos += take;
        left -= take;
        if (pos >= period_s) pos = 0.0;
      }
      return total;
    }
    case Profile::kSine: {
      // Deterministic fixed-segment trapezoid: the clamp at zero makes the
      // closed form piecewise, and the driver's sampling windows are short
      // against the period, so 32 segments is plenty.
      constexpr int kSteps = 32;
      const double dt = span / kSteps;
      double total = 0.0;
      for (int i = 0; i < kSteps; ++i) {
        const sim::TimePoint a = t0 + sim::Duration::from_seconds(dt * i);
        const sim::TimePoint b = t0 + sim::Duration::from_seconds(dt * (i + 1));
        total += 0.5 * (power_at(a) + power_at(b)) * dt;
      }
      return total;
    }
  }
  return 0.0;
}

double HarvestParams::average_watts() const {
  switch (profile) {
    case Profile::kConstant:
      return std::max(0.0, watts);
    case Profile::kSquare: {
      const double d = std::clamp(duty, 0.0, 1.0);
      return d * std::max(0.0, watts) + (1.0 - d) * std::max(0.0, floor_watts);
    }
    case Profile::kSine: {
      if (period.to_seconds() <= 0.0) return std::max(0.0, floor_watts);
      // Mean over one period of the clamped swing (256-segment trapezoid;
      // exact when the swing never dips below zero).
      if (floor_watts - std::fabs(watts) >= 0.0) return floor_watts;
      return energy_between(sim::TimePoint::zero() + phase,
                            sim::TimePoint::zero() + phase + period) /
             period.to_seconds();
    }
  }
  return 0.0;
}

std::string StorageParams::validate() const {
  if (!enabled) return "";
  if (!check.is_positive()) return "storage: check_ms must be > 0";
  if (kind == StorageKind::kBattery) {
    if (battery.capacity_mah <= 0.0) {
      return "battery: capacity_mah must be > 0";
    }
    if (battery.nominal_volts <= 0.0) {
      return "battery: nominal_volts must be > 0";
    }
    if (!(battery.full_volts > battery.empty_volts &&
          battery.empty_volts >= battery.dead_volts &&
          battery.dead_volts >= 0.0)) {
      return "battery: need full_volts > empty_volts >= dead_volts >= 0";
    }
    if (battery.rated_c <= 0.0) return "battery: rated_c must be > 0";
    if (battery.peukert_exponent < 1.0) {
      return "battery: peukert_exponent must be >= 1";
    }
  } else {
    if (capacitor.capacitance_farads < 0.0) {
      return "capacitor: capacitance_f must be >= 0";
    }
    if (!(capacitor.full_volts >= capacitor.turnon_volts &&
          capacitor.turnon_volts >= capacitor.turnoff_volts &&
          capacitor.turnoff_volts >= 0.0)) {
      return "capacitor: need full_volts >= turnon_volts >= turnoff_volts "
             ">= 0";
    }
  }
  if (harvest.enabled) {
    if ((harvest.profile == HarvestParams::Profile::kSine ||
         harvest.profile == HarvestParams::Profile::kSquare) &&
        !harvest.period.is_positive()) {
      return "harvest: period_ms must be > 0 for sine/square profiles";
    }
    if (harvest.profile == HarvestParams::Profile::kSquare &&
        (harvest.duty < 0.0 || harvest.duty > 1.0)) {
      return "harvest: duty must be in [0, 1]";
    }
  }
  return "";
}

EnergyStore::EnergyStore(const StorageParams& params) : params_{params} {
  if (params_.kind == StorageKind::kBattery) {
    capacity_joules_ = params_.battery.capacity_mah * 1e-3 * 3600.0 *
                       params_.battery.nominal_volts;
  } else {
    capacity_joules_ = 0.5 * params_.capacitor.capacitance_farads *
                       params_.capacitor.full_volts *
                       params_.capacitor.full_volts;
  }
  remaining_joules_ = capacity_joules_;
  initial_joules_ = capacity_joules_;
}

double EnergyStore::cutoff_joules() const {
  if (params_.kind == StorageKind::kBattery) {
    const double span = params_.battery.full_volts - params_.battery.dead_volts;
    if (span <= 0.0) return 0.0;
    const double cutoff_soc = std::clamp(
        (params_.battery.empty_volts - params_.battery.dead_volts) / span, 0.0,
        1.0);
    return cutoff_soc * capacity_joules_;
  }
  return joules_at_volts(params_.capacitor.turnoff_volts);
}

double EnergyStore::joules_at_volts(double volts) const {
  if (params_.kind == StorageKind::kBattery) {
    const double span = params_.battery.full_volts - params_.battery.dead_volts;
    if (span <= 0.0) return 0.0;
    const double soc =
        std::clamp((volts - params_.battery.dead_volts) / span, 0.0, 1.0);
    return soc * capacity_joules_;
  }
  return 0.5 * params_.capacitor.capacitance_farads * volts * volts;
}

double EnergyStore::draw(double joules) {
  const double request = std::max(0.0, joules);
  requested_ += request;
  const double removed = std::min(remaining_joules_, request);
  remaining_joules_ -= removed;
  drawn_ += removed;
  return removed;
}

double EnergyStore::charge(double joules) {
  const double offer = std::max(0.0, joules);
  income_ += offer;
  const double stored = std::min(capacity_joules_ - remaining_joules_, offer);
  remaining_joules_ += stored;
  stored_ += stored;
  overflow_ += offer - stored;
  return stored;
}

bool EnergyStore::depleted() const {
  return remaining_joules_ <= cutoff_joules();
}

bool EnergyStore::can_power_on() const {
  if (params_.kind == StorageKind::kBattery) return false;  // permanent death
  // Hysteresis: boot only once the voltage recovers to turnon_volts, and
  // never if the (possibly zero-capacitance) store cannot even clear the
  // turnoff threshold when full.
  return remaining_joules_ >= joules_at_volts(params_.capacitor.turnon_volts) &&
         remaining_joules_ > cutoff_joules();
}

double EnergyStore::usable_joules() const {
  return std::max(0.0, remaining_joules_ - cutoff_joules());
}

double EnergyStore::volts() const {
  if (params_.kind == StorageKind::kBattery) {
    return params_.battery.dead_volts +
           (params_.battery.full_volts - params_.battery.dead_volts) *
               state_of_charge();
  }
  const double c = params_.capacitor.capacitance_farads;
  if (c <= 0.0) return 0.0;
  return std::sqrt(2.0 * remaining_joules_ / c);
}

double projected_hours(const StorageParams& params, double node_watts,
                       double harvest_watts) {
  const double net = node_watts - harvest_watts;
  if (net <= 0.0) return std::numeric_limits<double>::infinity();
  const EnergyStore full{params};
  double effective = full.usable_joules();
  if (params.kind == StorageKind::kBattery) {
    // Discharge rate in C (fraction of capacity per hour), relative to the
    // rate the capacity was rated at.
    const double c_rate = net * 3600.0 / full.capacity_joules();
    const double rated = std::max(params.battery.rated_c, 1e-9);
    // Peukert: usable charge shrinks as rate^(k-1) ABOVE the rated rate
    // only.  Clamping the ratio at 1 keeps derate >= 1, so the effective
    // charge can never exceed what the cell actually holds (the low-rate
    // divergence of the naive formula).
    const double ratio = std::max(c_rate / rated, 1.0);
    effective /= std::pow(ratio, params.battery.peukert_exponent - 1.0);
  }
  return effective / net / 3600.0;
}

}  // namespace bansim::hw
