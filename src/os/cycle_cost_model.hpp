// Task-name -> nominal-cycle-count mapping.
//
// PowerTOSSIM estimates CPU time by mapping basic blocks to fixed cycle
// counts; the paper reuses that idea (Section 4.1) and inherits its main
// weakness: the mapping is a calibrated average, while the silicon executes
// data-dependent paths.  In this reproduction the *reference* ("Real")
// scheduler charges each task its actual, data-dependent cycles, while the
// *model* ("Sim") scheduler consults this table — so the µC estimation
// error has the same structural cause as in the paper.
//
// The table is indexed by TaskId, so the model scheduler's lookup on every
// dispatch is an array index.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "os/task_id.hpp"

namespace bansim::os {

class CycleCostModel {
 public:
  /// Registers (or overwrites) the nominal cost of `task`.
  void set(TaskId task, std::uint64_t cycles);

  /// Nominal cost of `task`; falls back to `actual` when the task was never
  /// calibrated (the mapping tool saw no such block).
  [[nodiscard]] std::uint64_t lookup(TaskId task, std::uint64_t actual) const {
    const std::uint32_t i = task.index();
    return i < costs_.size() && costs_[i] ? *costs_[i] : actual;
  }

  [[nodiscard]] bool has(TaskId task) const {
    return task.index() < costs_.size() && costs_[task.index()].has_value();
  }
  [[nodiscard]] std::size_t size() const {
    return static_cast<std::size_t>(
        std::count_if(costs_.begin(), costs_.end(),
                      [](const auto& cost) { return cost.has_value(); }));
  }

  /// The calibration table shipped with the simulator: averages measured on
  /// the reference platform for every task the BAN software posts.
  [[nodiscard]] static CycleCostModel platform_defaults();

 private:
  std::vector<std::optional<std::uint64_t>> costs_;  ///< by TaskId::index()
};

}  // namespace bansim::os
