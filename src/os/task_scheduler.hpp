// TinyOS-style task scheduler.
//
// TinyOS executes posted tasks from a FIFO queue, run-to-completion, and
// drops the MCU into a low-power mode when the queue drains.  Interrupts
// (radio data-ready, timer compare, ADC done) wake the MCU, run their
// handler, and usually post tasks.  This scheduler reproduces that
// behaviour on the event kernel and is the single place where MCU power
// states are switched, so the Board's MCU meter sees exactly the residency
// a real node would have:
//   * every LPM exit costs the 6 us wake-up latency in active mode,
//   * every interrupt pays the hardware entry/RETI overhead cycles,
//   * task bodies cost their *actual*, data-dependent cycle counts,
// while the ModelProbe only learns "task X ran", which is all the paper's
// estimator gets from TOSSIM.
//
// Bodies are sim::InlineCallback, like every per-event closure from the
// kernel up, and names are interned TaskIds: posting allocates nothing once
// the queue has grown to its working size.
#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <type_traits>
#include <vector>

#include "hw/mcu.hpp"
#include "os/cycle_cost_model.hpp"
#include "os/power_manager.hpp"
#include "os/probe.hpp"
#include "os/task_id.hpp"
#include "sim/context.hpp"
#include "sim/inline_callback.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"

namespace bansim::os {

/// A std::function, the wiring type, offered where a per-event body is
/// expected (see TaskScheduler::post).
template <typename F>
concept StdFunction =
    std::same_as<std::remove_cvref_t<F>, std::function<void()>>;

class TaskScheduler {
 public:
  /// `nominal_costs` switches the scheduler into estimation-model mode:
  /// when non-null, every task is charged the table's nominal cycles
  /// instead of the caller-supplied actual count (PowerTOSSIM-style
  /// basic-block accounting).  Pass nullptr for the reference platform.
  TaskScheduler(sim::SimContext& context, hw::Mcu& mcu, PowerManager& power,
                std::string node_name, ModelProbe& probe,
                const CycleCostModel* nominal_costs = nullptr);

  /// Posts a task.  `cycles` is the actual cost of this execution (may be
  /// data dependent); `body` runs when the task completes.  A task without
  /// a body (`{}` or nullptr) still costs its cycles.
  void post(TaskId name, std::uint64_t cycles, sim::InlineCallback body = {});
  void post(TaskId name, std::uint64_t cycles, std::nullptr_t) {
    post(name, cycles);
  }

  /// Raises a hardware interrupt: jumps the queue, pays the ISR
  /// entry/exit overhead on top of `cycles`, wakes the MCU if asleep.
  void raise_interrupt(TaskId name, std::uint64_t cycles,
                       sim::InlineCallback handler = {});

  /// A std::function body is rejected at the call: it may be empty (and
  /// would throw at dispatch) and it allocates for any real capture.  Pass
  /// the lambda itself, or wrap the function: [&fn] { fn(); }.
  template <StdFunction F>
  void post(TaskId, std::uint64_t, F&&) = delete;
  template <StdFunction F>
  void raise_interrupt(TaskId, std::uint64_t, F&&) = delete;

  [[nodiscard]] bool idle() const { return !running_ && size_ == 0; }
  [[nodiscard]] std::uint64_t tasks_run() const { return tasks_run_; }
  [[nodiscard]] std::uint64_t interrupts_run() const { return interrupts_run_; }

  /// Run-reset: drops queued work and zeroes the dispatch counters; the
  /// queue keeps its capacity.  The in-flight completion event (if any)
  /// died with the event queue.
  void reset();

 private:
  struct Entry {
    sim::InlineCallback body;
    std::uint64_t cycles{0};
    TaskId name;
    bool is_interrupt{false};
  };

  /// Builds the entry in its ring slot, at the back for tasks and at the
  /// front for interrupts, and dispatches it if idle.
  void submit(TaskId name, std::uint64_t cycles, sim::InlineCallback&& body,
              bool is_interrupt);
  void dispatch_next();
  /// Completion event of the task in flight.
  void complete();

  sim::Simulator& simulator_;
  sim::Tracer& tracer_;
  hw::Mcu& mcu_;
  PowerManager& power_;
  std::string node_;
  sim::TraceNodeId trace_node_;
  ModelProbe& probe_;
  const CycleCostModel* nominal_costs_;
  /// Pending work: a ring over ring_, whose size is zero or a power of two
  /// and only grows, so a warmed scheduler queues without allocating.
  std::vector<Entry> ring_;
  std::size_t head_{0};
  std::size_t size_{0};
  /// Body of the one task in flight, so its completion event captures only
  /// `this` (a callback does not fit inside another callback).
  sim::InlineCallback in_flight_;
  bool running_{false};
  std::uint64_t tasks_run_{0};
  std::uint64_t interrupts_run_{0};
};

}  // namespace bansim::os
