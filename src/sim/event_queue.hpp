// Pending-event set of the discrete-event kernel.
//
// Events are closures scheduled for an absolute TimePoint.  Ties are broken
// by insertion order (FIFO among same-time events), which the TinyOS-style
// layers above rely on for deterministic task/interrupt interleaving.
// Cancellation is supported through EventHandle without removing entries
// from the heap (lazy deletion).
//
// The hot path is allocation-free in steady state.  Closures are
// sim::InlineCallback values (fixed inline capture buffer, no heap), stored
// in a pooled slot arena; the binary heap itself orders only trivially
// copyable 24-byte keys {when, seq, slot}, so every sift during push/pop
// moves three words instead of dragging a closure through each swap.
// Scheduling claims a slot from a free list and stamps it with the event's
// globally unique sequence number; a handle (or a stale key) refers to the
// event only while the slot's stamp still matches, so recycled slots never
// alias old handles.  Firing or cancelling releases the slot (and destroys
// the closure) eagerly, while the key is pruned lazily.
//
// In front of the heap sits a one-key register.  A new key that orders
// before the held one takes the register (the held key moves into the
// heap); with nothing held, so does a key that orders before the heap's
// top.  The held key therefore always orders before every heap key, and
// the common "schedule the next thing to run" (a task completion, an ISR
// chain) costs no sift at all.  Pop order, seq stamps and handles are
// exactly those of the bare heap: the queue still yields the earliest live
// (when, seq) key.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/inline_callback.hpp"
#include "sim/time.hpp"

namespace bansim::sim {

using EventAction = InlineCallback;

class EventQueue;

/// Identifies a scheduled event so it can be cancelled.  Handles are cheap
/// to copy; a default-constructed handle refers to nothing.  A handle must
/// not outlive the EventQueue that issued it (it holds a non-owning pointer
/// back to the queue), but it may freely outlive the event itself: once the
/// event fires, is cancelled, or the queue is cleared, the handle simply
/// reports !pending().
class EventHandle {
 public:
  EventHandle() = default;

  /// True while the event is scheduled and not yet fired or cancelled.
  [[nodiscard]] bool pending() const;

  /// Cancels the event if still pending.  Safe to call repeatedly.
  void cancel();

 private:
  friend class EventQueue;
  EventHandle(EventQueue* queue, std::uint32_t slot, std::uint64_t seq)
      : queue_{queue}, slot_{slot}, seq_{seq} {}

  EventQueue* queue_{nullptr};
  std::uint32_t slot_{0};
  std::uint64_t seq_{0};
};

/// Min-heap of (time, sequence)-ordered events with lazy cancellation.
class EventQueue {
 public:
  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Schedules `action` to run at absolute time `when`; the closure is
  /// moved into the slot arena once.  Defined inline below: schedule and
  /// pop_until run once per simulated event, and keeping them visible to
  /// callers is worth measurable wall-clock on kernel-bound sweeps.
  EventHandle schedule(TimePoint when, EventAction&& action);

  [[nodiscard]] bool empty() const;

  /// Time of the earliest live event.  Precondition: !empty().
  [[nodiscard]] TimePoint next_time() const;

  /// Takes the earliest live event if it is due at or before `until`: sets
  /// `now` to its time, moves its closure into `action` and returns true.
  /// Returns false, touching neither, when the queue is empty or its
  /// earliest event lies after `until`.
  bool pop_until(TimePoint until, TimePoint& now, EventAction& action);

  /// Number of scheduled events not yet fired or cancelled.  Exact:
  /// cancellation releases its slot eagerly even though the heap entry is
  /// pruned lazily.
  [[nodiscard]] std::size_t size() const {
    prune();
    return live_;
  }

  /// Total events ever scheduled (diagnostics).
  [[nodiscard]] std::uint64_t scheduled_total() const { return seq_; }

  /// Capacity of the liveness arena (diagnostics: peak concurrent events).
  [[nodiscard]] std::size_t slot_capacity() const { return slots_.size(); }

  /// Pre-sizes the slot arena and heap for `events` concurrent events, so
  /// construction-time warm-up (network building, boot staggering) doesn't
  /// grow them incrementally.  Never shrinks.
  void reserve(std::size_t events);

  /// Drops every pending event.  Outstanding handles become !pending().
  /// The slot arena, free list and heap keep their capacity (a cleared
  /// queue is "warm": the next run schedules without allocating), and seq_
  /// keeps counting — rebasing it would let a handle from a previous run
  /// alias an event of the next run that landed in the same slot.
  void clear();

  /// Test seam for the seq wraparound path: forces the next stamp so a
  /// test can park seq_ near 2^64 and drive schedule/pop across the wrap
  /// without actually scheduling 2^64 events.  Precondition: the queue is
  /// empty (live entries stamped before the jump would order incorrectly).
  void set_next_seq_for_test(std::uint64_t seq) {
    assert(live_ == 0 && "seq jump with live events would corrupt ordering");
    seq_ = seq;
  }

 private:
  friend class EventHandle;

  struct Slot {
    std::uint64_t seq{0};  ///< stamp of the current/last occupant
    EventAction action;
    bool alive{false};
  };

  /// What the binary heap orders: a trivially copyable key.  `seq` both
  /// breaks same-time ties FIFO and doubles as the slot-liveness stamp.
  struct HeapEntry {
    TimePoint when;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  static_assert(std::is_trivially_copyable_v<HeapEntry>,
                "heap sifts must stay trivial copies");

  /// std::push_heap/pop_heap comparator: max-heap on "later", so the
  /// earliest (when, seq) is at the front.  The tie-break compares sequence
  /// numbers with serial-number arithmetic (RFC 1982 style): seq_ is never
  /// rebased by clear(), so a long-lived queue that is reset between runs
  /// for years of campaigns may eventually wrap, and pending events then
  /// straddle the wrap point.  As long as fewer than 2^63 events are live
  /// at once — guaranteed, seq is also the liveness stamp — the signed
  /// difference still orders FIFO across the wrap.
  struct Later {
    bool operator()(const HeapEntry& a, const HeapEntry& b) const {
      if (a.when != b.when) return a.when > b.when;
      return static_cast<std::int64_t>(a.seq - b.seq) > 0;
    }
  };

  [[nodiscard]] bool slot_pending(std::uint32_t slot, std::uint64_t seq) const {
    return slot < slots_.size() && slots_[slot].seq == seq &&
           slots_[slot].alive;
  }

  /// Marks the slot dead, destroys its closure, and recycles it.  The next
  /// occupant stamps a fresh (strictly larger) seq, so stale heap entries
  /// and handles both see a mismatch.
  void release_slot(std::uint32_t slot) {
    slots_[slot].alive = false;
    slots_[slot].action.reset();
    free_slots_.push_back(slot);
  }

  void cancel_slot(std::uint32_t slot, std::uint64_t seq) {
    if (!slot_pending(slot, seq)) return;
    release_slot(slot);
    --live_;
  }

  [[nodiscard]] bool live(const HeapEntry& key) const {
    const Slot& s = slots_[key.slot];
    return s.seq == key.seq && s.alive;
  }

  void push(const HeapEntry& key) {
    heap_.push_back(key);
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }

  /// Drops dead keys until the earliest remaining one is live: the held
  /// key if it is live, else the heap's top.  Keys whose slot stamp moved
  /// on were cancelled (their slot was released eagerly, so live_ is
  /// already adjusted); they are just dropped.
  void prune() const {
    if (held_) {
      if (live(front_)) return;
      held_ = false;
    }
    while (!heap_.empty() && !live(heap_.front())) {
      std::pop_heap(heap_.begin(), heap_.end(), Later{});
      heap_.pop_back();
    }
  }

  /// The front register: when `held_`, `front_` orders before every key in
  /// `heap_`.
  mutable HeapEntry front_{};
  mutable bool held_{false};
  mutable std::vector<HeapEntry> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::size_t live_{0};
  std::uint64_t seq_{0};
};

inline bool EventHandle::pending() const {
  return queue_ != nullptr && queue_->slot_pending(slot_, seq_);
}

inline void EventHandle::cancel() {
  if (queue_ != nullptr) queue_->cancel_slot(slot_, seq_);
}

inline EventHandle EventQueue::schedule(TimePoint when,
                                        EventAction&& action) {
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& s = slots_[slot];
  s.seq = seq_;
  s.alive = true;
  s.action = std::move(action);
  const HeapEntry key{when, seq_, slot};
  if (held_) {
    if (Later{}(front_, key)) {
      push(front_);
      front_ = key;
    } else {
      push(key);
    }
  } else if (heap_.empty() || Later{}(heap_.front(), key)) {
    front_ = key;
    held_ = true;
  } else {
    push(key);
  }
  ++live_;
  return EventHandle{this, slot, seq_++};
}

inline bool EventQueue::empty() const {
  prune();
  return !held_ && heap_.empty();
}

inline TimePoint EventQueue::next_time() const {
  prune();
  assert((held_ || !heap_.empty()) && "next_time() on empty queue");
  return held_ ? front_.when : heap_.front().when;
}

inline bool EventQueue::pop_until(TimePoint until, TimePoint& now,
                                  EventAction& action) {
  prune();
  HeapEntry top{};
  if (held_) {
    if (front_.when > until) return false;
    top = front_;
    held_ = false;
  } else {
    if (heap_.empty() || heap_.front().when > until) return false;
    top = heap_.front();
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
  }
  now = top.when;
  // The closure lives in the slot arena, not the key: move it out before
  // recycling the slot.
  action = std::move(slots_[top.slot].action);
  release_slot(top.slot);
  --live_;
  return true;
}

}  // namespace bansim::sim
