#include "hw/mcu.hpp"

#include "sim/check_hooks.hpp"

namespace bansim::hw {

const char* to_string(McuMode m) {
  switch (m) {
    case McuMode::kActive: return "active";
    case McuMode::kLpm1: return "lpm1";
    case McuMode::kLpm3: return "lpm3";
    case McuMode::kLpm4: return "lpm4";
  }
  return "?";
}

namespace {

std::vector<energy::PowerState> mcu_states(const McuParams& p) {
  return {
      {"active", p.active_current_amps},
      {"lpm1", p.lpm_current_amps},
      {"lpm3", p.lpm3_current_amps},
      {"lpm4", p.lpm4_current_amps},
  };
}

}  // namespace

Mcu::Mcu(sim::SimContext& context, std::string node_name,
         const McuParams& params, double clock_skew)
    : context_{context}, simulator_{context.simulator},
      tracer_{context.tracer},
      node_{std::move(node_name)}, trace_node_{tracer_.intern(node_)},
      params_{params},
      meter_{"mcu", params.supply_volts, mcu_states(params)} {
  adopt_skew(clock_skew);
}

sim::Duration Mcu::cycles_to_time(std::uint64_t cycles) const {
  const double nominal_s = static_cast<double>(cycles) / params_.cpu_hz;
  return sim::Duration::from_seconds(nominal_s * rate_);
}

sim::Duration Mcu::local_to_true(sim::Duration local) const {
  return local.scaled(rate_);
}

sim::Duration Mcu::true_to_local(sim::Duration true_time) const {
  return true_time.scaled(inverse_rate_);
}

sim::Duration Mcu::local_clock(sim::TimePoint t) const {
  return local_clock_base_ + true_to_local(t - true_base_);
}

void Mcu::set_clock_skew(double skew) {
  const sim::TimePoint now = simulator_.now();
  local_clock_base_ = local_clock(now);
  true_base_ = now;
  adopt_skew(skew);
  tracer_.emit(now, sim::TraceCategory::kMcu, trace_node_,
               [&](sim::TraceMessage& m) { m << "dco skew step -> " << skew; });
}

void Mcu::reset(double clock_skew) {
  adopt_skew(clock_skew);
  local_clock_base_ = sim::Duration::zero();
  true_base_ = sim::TimePoint{};
  mode_ = McuMode::kActive;
  wakeups_ = 0;
  meter_.reset();
}

sim::Duration Mcu::enter(McuMode mode) {
  if (mode == mode_) return sim::Duration::zero();
  const bool waking = mode == McuMode::kActive;
  if (auto* hooks = context_.check_hooks()) {
    hooks->on_mcu_mode(this, static_cast<int>(mode_), static_cast<int>(mode),
                       simulator_.now());
  }
  meter_.transition(static_cast<int>(mode), simulator_.now());
  tracer_.emit(simulator_.now(), sim::TraceCategory::kMcu, trace_node_,
               [&](sim::TraceMessage& m) { m << "mcu -> " << to_string(mode); });
  mode_ = mode;
  if (waking) {
    ++wakeups_;
    return params_.wakeup_latency;
  }
  return sim::Duration::zero();
}

}  // namespace bansim::hw
