#include "core/power_profile.hpp"

namespace bansim::core {

energy::PowerTrace capture_power_profile(BanNetwork& network,
                                         std::size_t index,
                                         const PowerProfileOptions& options) {
  energy::PowerTrace trace;
  auto& board = network.node(index).board();

  auto total_energy = [&](sim::TimePoint at) {
    const hw::Joules joules = board.joules(at);
    return options.include_asic ? joules.total() : joules.mcu + joules.radio;
  };

  sim::TimePoint t = network.simulator().now();
  const sim::TimePoint end = t + options.window;
  double previous = total_energy(t);
  while (t < end) {
    const sim::TimePoint next = t + options.step;
    network.run_until(next);
    const double now_joules = total_energy(next);
    trace.step(t, (now_joules - previous) / options.step.to_seconds());
    previous = now_joules;
    t = next;
  }
  return trace;
}

}  // namespace bansim::core
