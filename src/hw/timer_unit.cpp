#include "hw/timer_unit.hpp"

namespace bansim::hw {

TimerUnit::TimerUnit(sim::Simulator& simulator, Mcu& mcu)
    : simulator_{simulator}, mcu_{mcu} {}

void TimerUnit::set_alarm(sim::Duration local_delay) {
  cancel();
  const sim::Duration true_delay = mcu_.local_to_true(local_delay);
  handle_ = simulator_.schedule_in(true_delay, [this] {
    ++fired_;
    if (isr_) isr_();
  });
}

void TimerUnit::cancel() {
  if (handle_.pending()) handle_.cancel();
}

}  // namespace bansim::hw
