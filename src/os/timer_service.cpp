#include "os/timer_service.hpp"

#include <algorithm>
#include <limits>

namespace bansim::os {

TimerService::TimerService(sim::Simulator& simulator, hw::Mcu& mcu,
                           hw::TimerUnit& unit, TaskScheduler& scheduler,
                           PowerManager& power)
    : simulator_{simulator}, mcu_{mcu}, unit_{unit}, scheduler_{scheduler},
      power_handle_{power.register_peripheral("timer_a", ClockConstraint::kNone)},
      power_{power} {
  unit_.set_isr([this] { on_compare(); });
}

std::int64_t TimerService::local_now_ns() const {
  // Piecewise-affine read: survives fault-injected skew steps without
  // rescaling deadlines that are already armed in absolute local time.
  return mcu_.local_clock(simulator_.now()).ticks();
}

TimerService::TimerId TimerService::insert(Entry entry) {
  // Reuse a dead slot so per-cycle one-shots don't grow the table without
  // bound; ids of stopped timers are therefore recycled.
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (!entries_[i].active) {
      entries_[i] = std::move(entry);
      return i;
    }
  }
  entries_.push_back(std::move(entry));
  return entries_.size() - 1;
}

TimerService::TimerId TimerService::start_periodic(
    TaskId name, sim::Duration period, sim::InlineCallback handler) {
  Entry e;
  e.name = name;
  e.period_local_ns = period.ticks();
  e.deadline_local_ns = local_now_ns() + period.ticks();
  e.periodic = std::make_shared<sim::InlineCallback>(std::move(handler));
  e.active = true;
  const TimerId id = insert(std::move(e));
  power_.update(power_handle_, ClockConstraint::kSmclk);
  rearm();
  return id;
}

TimerService::TimerId TimerService::start_oneshot(
    TaskId name, sim::Duration delay, sim::InlineCallback handler) {
  Entry e;
  e.name = name;
  e.period_local_ns = 0;
  e.deadline_local_ns = local_now_ns() + delay.ticks();
  e.handler = std::move(handler);
  e.active = true;
  const TimerId id = insert(std::move(e));
  power_.update(power_handle_, ClockConstraint::kSmclk);
  rearm();
  return id;
}

void TimerService::reset() {
  entries_.clear();
  power_.update(power_handle_, ClockConstraint::kNone);
}

void TimerService::stop(TimerId id) {
  if (id >= entries_.size()) return;
  entries_[id].active = false;
  if (!rearm()) unit_.cancel();
}

bool TimerService::active(TimerId id) const {
  return id < entries_.size() && entries_[id].active;
}

std::size_t TimerService::active_count() const {
  return static_cast<std::size_t>(
      std::count_if(entries_.begin(), entries_.end(),
                    [](const Entry& e) { return e.active; }));
}

bool TimerService::rearm() {
  bool any = false;
  std::int64_t earliest = std::numeric_limits<std::int64_t>::max();
  for (const Entry& e : entries_) {
    if (!e.active) continue;
    any = true;
    earliest = std::min(earliest, e.deadline_local_ns);
  }
  if (!any) {
    power_.update(power_handle_, ClockConstraint::kNone);
    return false;
  }
  if (earliest == std::numeric_limits<std::int64_t>::max()) return true;
  const std::int64_t delay = std::max<std::int64_t>(0, earliest - local_now_ns());
  unit_.set_alarm(sim::Duration::nanoseconds(delay));
  return true;
}

void TimerService::on_compare() {
  const std::int64_t now_local = local_now_ns();
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    Entry& e = entries_[i];
    if (!e.active || e.deadline_local_ns > now_local) continue;
    // Deliver the expiry as an interrupt: wake-up + ISR overhead + the
    // virtualization bookkeeping, then the handler body.  The interrupt
    // owns what it runs — a one-shot's handler moves into it, a periodic
    // handler is shared — so stopping the timer or reusing its id before
    // dispatch does not change what an expiry already raised runs.
    if (e.period_local_ns > 0) {
      e.deadline_local_ns += e.period_local_ns;
      scheduler_.raise_interrupt(e.name, kServiceCycles,
                                 [handler = e.periodic] {
                                   if (*handler) (*handler)();
                                 });
    } else {
      e.active = false;
      scheduler_.raise_interrupt(e.name, kServiceCycles, std::move(e.handler));
    }
  }
  rearm();
}

}  // namespace bansim::os
