#include "os/task_id.hpp"

#include <array>
#include <atomic>
#include <deque>
#include <mutex>
#include <stdexcept>
#include <string>

namespace bansim::os {

namespace {

/// Most distinct names one process may intern.
constexpr std::size_t kCapacity = 4096;

// names[0, count) are published and never written again, so readers need
// no lock: every id was obtained after its slot was written, through the
// release store of `count` or the magic-static guard of a _task literal.
constinit std::array<std::string_view, kCapacity> names{};
constinit std::atomic<std::uint32_t> count{1};  // index 0 is ""
constinit std::mutex append_mutex;

/// Index of `name` in names[from, to), or `to`.
std::uint32_t find(std::string_view name, std::uint32_t from,
                   std::uint32_t to) {
  for (std::uint32_t i = from; i < to; ++i) {
    if (names[i] == name) return i;
  }
  return to;
}

std::uint32_t intern(std::string_view name) {
  const std::uint32_t published = count.load(std::memory_order_acquire);
  if (const std::uint32_t i = find(name, 0, published); i < published) return i;

  const std::lock_guard lock{append_mutex};
  const std::uint32_t size = count.load(std::memory_order_relaxed);
  if (const std::uint32_t i = find(name, published, size); i < size) return i;
  if (size == kCapacity) {
    throw std::length_error{"TaskId: too many distinct task names"};
  }
  // Never destroyed, so names stay readable during static destruction.
  static auto* const storage = new std::deque<std::string>;
  names[size] = storage->emplace_back(name);
  count.store(size + 1, std::memory_order_release);
  return size;
}

}  // namespace

TaskId::TaskId(std::string_view name) {
  // Callers that post by name tend to repeat the last one.
  thread_local std::uint32_t last = 0;
  if (names[last] != name) last = intern(name);
  index_ = last;
}

std::string_view TaskId::name() const { return names[index_]; }

}  // namespace bansim::os
