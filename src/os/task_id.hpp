// Interned task names.
//
// Every posted task, raised interrupt and software timer carries a name:
// the estimation model charges calibrated cycles by it (CycleCostModel),
// the ModelProbe reports it and the trace prints it.  Names are interned
// once per process into a small integer TaskId, so the per-event paths
// carry four bytes instead of building a std::string, and the nominal-cost
// lookup is an array index.
//
// The stack names its tasks with the _task literal: "radio.clockin"_task
// interns the name the first time that literal is evaluated and afterwards
// costs one load of a function-local static, so neither a call site nor a
// network build ever looks a name up again.  TaskId also converts
// implicitly from a C string, for tests and tools that post by name; that
// path checks a one-entry per-thread cache, then scans the table.
//
// The table is process-wide and append-only.  Interning is thread-safe
// (ScenarioRunner builds networks on a thread pool), reading a name back
// is lock-free, and an id stays valid for the life of the process.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace bansim::os {

class TaskId {
 public:
  /// The empty name "" (index 0).
  constexpr TaskId() noexcept = default;

  /// Interns `name`; the same name always yields the same id.
  TaskId(const char* name)  // NOLINT(google-explicit-constructor)
      : TaskId{std::string_view{name}} {}
  explicit TaskId(std::string_view name);

  /// The interned name; valid for the life of the process.
  [[nodiscard]] std::string_view name() const;

  /// Dense index: 0 .. number of names interned so far - 1.
  [[nodiscard]] constexpr std::uint32_t index() const noexcept {
    return index_;
  }

  friend constexpr bool operator==(TaskId, TaskId) noexcept = default;

 private:
  std::uint32_t index_{0};
};

namespace detail {

/// A string literal as a template argument (see operator""_task).
template <std::size_t N>
struct TaskLiteral {
  constexpr TaskLiteral(const char (&text)[N]) {  // NOLINT
    std::copy_n(text, N, chars);
  }
  [[nodiscard]] constexpr std::string_view view() const {
    return {chars, N - 1};
  }
  char chars[N]{};
};

}  // namespace detail

inline namespace literals {

/// "mac.join"_task: one instantiation per distinct name, interned on first
/// use (thread-safe static initialisation), a static load afterwards.
template <detail::TaskLiteral kName>
[[nodiscard]] TaskId operator""_task() {
  static const TaskId id{kName.view()};
  return id;
}

}  // namespace literals

}  // namespace bansim::os
