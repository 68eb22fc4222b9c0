#include "os/cycle_cost_model.hpp"

namespace bansim::os {

void CycleCostModel::set(TaskId task, std::uint64_t cycles) {
  if (task.index() >= costs_.size()) costs_.resize(task.index() + 1);
  costs_[task.index()] = cycles;
}

CycleCostModel CycleCostModel::platform_defaults() {
  // Calibrated averages, in the spirit of PowerTOSSIM's basic-block map:
  // each entry is the mean cost observed on the bench for that code path,
  // rounded up a little for safety margin.  The real executions are data
  // dependent, which is precisely why the estimates are not exact.  Built
  // once per process; every network copies it.
  static const CycleCostModel defaults = [] {
    CycleCostModel m;
    m.set("radio.clockin"_task, 1600);
    m.set("radio.clockout"_task, 1750);
    m.set("radio.rx_dispatch"_task, 300);
    m.set("mac.beacon_proc"_task, 430);
    m.set("mac.prepare_tx"_task, 350);
    m.set("mac.join"_task, 500);
    m.set("app.acq_frame"_task, 8450);
    m.set("app.rpeak_step"_task, 460);
    m.set("app.pack_payload"_task, 260);
    m.set("bs.handle_rx"_task, 420);
    m.set("bs.emit_beacon"_task, 380);
    return m;
  }();
  return defaults;
}

}  // namespace bansim::os
