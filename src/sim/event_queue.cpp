#include "sim/event_queue.hpp"

namespace bansim::sim {

// schedule/pop_until/prune are defined inline in the header (hot path);
// only the cold setup/teardown members live here.

void EventQueue::reserve(std::size_t events) {
  heap_.reserve(events);
  free_slots_.reserve(events);
  if (slots_.size() < events) {
    // Grow the arena eagerly and free-list the new slots (in reverse, so
    // lower-numbered slots are claimed first, matching on-demand growth).
    slots_.reserve(events);
    const auto first = static_cast<std::uint32_t>(slots_.size());
    slots_.resize(events);
    for (auto slot = static_cast<std::uint32_t>(events); slot-- > first;) {
      free_slots_.push_back(slot);
    }
  }
}

void EventQueue::clear() {
  held_ = false;
  heap_.clear();
  for (std::uint32_t slot = 0; slot < slots_.size(); ++slot) {
    if (slots_[slot].alive) release_slot(slot);
  }
  live_ = 0;
}

}  // namespace bansim::sim
