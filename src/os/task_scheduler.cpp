#include "os/task_scheduler.hpp"

namespace bansim::os {

TaskScheduler::TaskScheduler(sim::SimContext& context, hw::Mcu& mcu,
                             PowerManager& power, std::string node_name,
                             ModelProbe& probe,
                             const CycleCostModel* nominal_costs)
    : simulator_{context.simulator}, tracer_{context.tracer}, mcu_{mcu},
      power_{power}, node_{std::move(node_name)},
      trace_node_{tracer_.intern(node_)}, probe_{probe},
      nominal_costs_{nominal_costs} {}

void TaskScheduler::post(TaskId name, std::uint64_t cycles,
                         sim::InlineCallback body) {
  submit(name, cycles, std::move(body), /*is_interrupt=*/false);
}

void TaskScheduler::raise_interrupt(TaskId name, std::uint64_t cycles,
                                    sim::InlineCallback handler) {
  // Interrupts pre-empt the queue order but not a task already in flight
  // (run-to-completion): the handler is dispatched before any queued task.
  submit(name, cycles, std::move(handler), /*is_interrupt=*/true);
}

void TaskScheduler::submit(TaskId name, std::uint64_t cycles,
                           sim::InlineCallback&& body, bool is_interrupt) {
  if (size_ == ring_.size()) {
    std::vector<Entry> grown(ring_.empty() ? 8 : 2 * ring_.size());
    for (std::size_t i = 0; i < size_; ++i) {
      grown[i] = std::move(ring_[(head_ + i) & (ring_.size() - 1)]);
    }
    ring_ = std::move(grown);
    head_ = 0;
  }
  const std::size_t mask = ring_.size() - 1;
  if (is_interrupt) head_ = (head_ + mask) & mask;
  Entry& entry = ring_[is_interrupt ? head_ : (head_ + size_) & mask];
  ++size_;
  entry.body = std::move(body);
  entry.cycles = cycles;
  entry.name = name;
  entry.is_interrupt = is_interrupt;
  if (!running_) dispatch_next();
}

void TaskScheduler::reset() {
  for (std::size_t i = 0; i < size_; ++i) {
    ring_[(head_ + i) & (ring_.size() - 1)].body.reset();
  }
  head_ = 0;
  size_ = 0;
  in_flight_.reset();
  running_ = false;
  tasks_run_ = 0;
  interrupts_run_ = 0;
}

void TaskScheduler::dispatch_next() {
  if (size_ == 0) {
    // Nothing to do: the OS drops the MCU into the deepest legal LPM.
    if (mcu_.mode() == hw::McuMode::kActive) {
      mcu_.enter(power_.idle_mode());
    }
    return;
  }

  running_ = true;
  Entry& entry = ring_[head_];
  head_ = (head_ + 1) & (ring_.size() - 1);
  --size_;
  in_flight_ = std::move(entry.body);
  const TaskId name = entry.name;
  const bool is_interrupt = entry.is_interrupt;
  std::uint64_t cycles = entry.cycles;

  // Waking from an LPM stalls execution while clocks restart; the MCU draws
  // active current for that stretch but does no useful work.
  sim::Duration latency = sim::Duration::zero();
  if (mcu_.mode() != hw::McuMode::kActive) {
    latency = mcu_.enter(hw::McuMode::kActive);
  }

  if (nominal_costs_) {
    // Estimation-model mode: charge the calibrated average for this code
    // path instead of the data-dependent actual count.
    cycles = nominal_costs_->lookup(name, cycles);
  }
  if (is_interrupt) {
    cycles += mcu_.isr_overhead_cycles();
    ++interrupts_run_;
  } else {
    ++tasks_run_;
  }

  probe_.on_task(node_, name.name(), simulator_.now());
  tracer_.emit(simulator_.now(), sim::TraceCategory::kOs, trace_node_,
               [&](sim::TraceMessage& m) {
                 m << (is_interrupt ? "isr " : "task ") << name.name()
                   << " (" << cycles << " cyc)";
               });

  const sim::Duration busy = latency + mcu_.cycles_to_time(cycles);
  simulator_.schedule_in(busy, [this] { complete(); });
}

void TaskScheduler::complete() {
  // The body runs at completion time: side effects (radio commands,
  // posting follow-up tasks) happen after the computation they model.
  // running_ stays set while the body executes, so anything it posts or
  // raises is enqueued — interrupts at the front — and dispatched next.
  // The body runs in its slot: only the next dispatch refills it, after the
  // body has returned and died.
  if (in_flight_) in_flight_();
  in_flight_.reset();
  running_ = false;
  dispatch_next();
}

}  // namespace bansim::os
