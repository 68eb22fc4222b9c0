// Discrete-event simulator core.
//
// A Simulator owns the clock and the pending-event set, and advances time by
// executing the earliest event.  Every model in the stack (radio state
// machines, TinyOS task scheduler, TDMA slot timers, ECG sample sources)
// drives itself by scheduling closures here, mirroring how TOSSIM advances a
// network of TinyOS nodes event by event.
#pragma once

#include <cstdint>

#include "sim/event_queue.hpp"
#include "sim/time.hpp"

namespace bansim::sim {

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time.  Monotonically non-decreasing.
  [[nodiscard]] TimePoint now() const { return now_; }

  /// Schedules `action` to run after `delay` from now.  Negative delays are
  /// clamped to zero (runs after already-pending same-time events).
  EventHandle schedule_in(Duration delay, EventAction&& action) {
    if (delay.is_negative()) delay = Duration::zero();
    return queue_.schedule(now_ + delay, std::move(action));
  }

  /// Schedules `action` at absolute time `when` (clamped to now()).
  EventHandle schedule_at(TimePoint when, EventAction&& action) {
    if (when < now_) when = now_;
    return queue_.schedule(when, std::move(action));
  }

  /// Runs until the event set drains or `until` is reached, whichever comes
  /// first.  The clock finishes exactly at `until` if the horizon was hit.
  void run_until(TimePoint until);

  /// Runs until the event set drains completely.
  void run();

  [[nodiscard]] std::uint64_t events_executed() const { return executed_; }
  [[nodiscard]] std::size_t events_pending() const { return queue_.size(); }

  /// Pre-sizes the pending-event set for `events` concurrent events (see
  /// EventQueue::reserve); called by network builders before cell warm-up.
  void reserve_events(std::size_t events) { queue_.reserve(events); }

  /// Capacity of the pending-event arena (diagnostics; lets tests assert
  /// that reserve_events() actually pre-sized the kernel).
  [[nodiscard]] std::size_t event_capacity() const {
    return queue_.slot_capacity();
  }

  /// Discards all pending events and resets the clock to zero.
  void reset();

 private:
  /// Runs every event due at or before `until`, one pop_until() each; the
  /// clock stays at the last event run.
  void execute_until(TimePoint until);

  EventQueue queue_;
  TimePoint now_{TimePoint::zero()};
  std::uint64_t executed_{0};
};

}  // namespace bansim::sim
