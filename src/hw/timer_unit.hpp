// Hardware compare timer (Timer_A-style).
//
// The OS timer service virtualizes many software timers over this single
// compare unit.  Crucially, the unit counts the node's *local* clock: the
// MCU's DCO skew stretches or shrinks every programmed interval, which is
// the physical source of beacon drift between BAN nodes and the reason the
// TDMA MAC needs guard times.
#pragma once

#include <cstdint>

#include "hw/mcu.hpp"
#include "sim/inline_callback.hpp"
#include "sim/simulator.hpp"

namespace bansim::hw {

class TimerUnit {
 public:
  TimerUnit(sim::Simulator& simulator, Mcu& mcu);

  /// Wires the compare interrupt to its service routine.  Done once, by
  /// the OS timer service; the wiring survives reset().
  void set_isr(sim::InlineCallback isr) { isr_ = std::move(isr); }

  /// Programs the compare register to interrupt after `local_delay`
  /// measured on this node's clock.  Re-arming replaces any pending alarm.
  void set_alarm(sim::Duration local_delay);

  /// Clears the pending alarm, if any.
  void cancel();

  [[nodiscard]] bool armed() const { return handle_.pending(); }
  [[nodiscard]] std::uint64_t fired() const { return fired_; }

  /// Run-reset: forgets the pending alarm (the caller cleared the event
  /// queue, so the handle is stale anyway) and zeroes the fire count.
  void reset() {
    handle_ = sim::EventHandle{};
    fired_ = 0;
  }

 private:
  sim::Simulator& simulator_;
  Mcu& mcu_;
  sim::InlineCallback isr_;
  sim::EventHandle handle_;
  std::uint64_t fired_{0};
};

}  // namespace bansim::hw
