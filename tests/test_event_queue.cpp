#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

namespace bansim::sim {
namespace {

using namespace bansim::sim::literals;

TimePoint at(std::int64_t ms) { return TimePoint::zero() + Duration::milliseconds(ms); }

/// Pops and runs the earliest event; false when the queue is empty.
bool run_next(EventQueue& q) {
  TimePoint when;
  EventAction action;
  if (!q.pop_until(TimePoint::max(), when, action)) return false;
  action();
  return true;
}

/// Runs every pending event in (time, seq) order.
void drain(EventQueue& q) {
  while (run_next(q)) {
  }
}

TEST(EventQueue, StartsEmpty) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(at(30), [&] { order.push_back(3); });
  q.schedule(at(10), [&] { order.push_back(1); });
  q.schedule(at(20), [&] { order.push_back(2); });
  drain(q);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SameTimeIsFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule(at(5), [&order, i] { order.push_back(i); });
  }
  drain(q);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, NextTimeReportsEarliestLive) {
  EventQueue q;
  q.schedule(at(20), [] {});
  EventHandle early = q.schedule(at(10), [] {});
  EXPECT_EQ(q.next_time(), at(10));
  early.cancel();
  EXPECT_EQ(q.next_time(), at(20));
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  bool ran = false;
  EventHandle h = q.schedule(at(1), [&] { ran = true; });
  EXPECT_TRUE(h.pending());
  h.cancel();
  EXPECT_FALSE(h.pending());
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(ran);
}

TEST(EventQueue, CancelIsIdempotent) {
  EventQueue q;
  EventHandle h = q.schedule(at(1), [] {});
  h.cancel();
  h.cancel();
  EXPECT_FALSE(h.pending());
}

TEST(EventQueue, DefaultHandleIsNotPending) {
  EventHandle h;
  EXPECT_FALSE(h.pending());
  h.cancel();  // must be a harmless no-op
}

TEST(EventQueue, HandleNotPendingAfterPop) {
  EventQueue q;
  EventHandle h = q.schedule(at(1), [] {});
  TimePoint when;
  EventAction action;
  ASSERT_TRUE(q.pop_until(TimePoint::max(), when, action));
  EXPECT_EQ(when, at(1));
  EXPECT_FALSE(h.pending());
}

TEST(EventQueue, SizeTracksLiveEvents) {
  EventQueue q;
  EventHandle a = q.schedule(at(1), [] {});
  q.schedule(at(2), [] {});
  EXPECT_EQ(q.size(), 2u);
  a.cancel();
  EXPECT_EQ(q.size(), 1u);  // the cancelled head is pruned on observation
  EXPECT_TRUE(run_next(q));
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueue, ClearDropsEverything) {
  EventQueue q;
  for (int i = 0; i < 5; ++i) q.schedule(at(i), [] {});
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueue, ScheduledTotalCounts) {
  EventQueue q;
  for (int i = 0; i < 7; ++i) q.schedule(at(i), [] {});
  EXPECT_EQ(q.scheduled_total(), 7u);
}

TEST(EventQueue, CancelThenRescheduleReusesSlotWithoutAliasing) {
  EventQueue q;
  bool stale_ran = false;
  bool fresh_ran = false;
  EventHandle stale = q.schedule(at(1), [&] { stale_ran = true; });
  stale.cancel();
  // The replacement recycles the freed slot; the stale handle must not be
  // able to see or cancel it.
  EventHandle fresh = q.schedule(at(2), [&] { fresh_ran = true; });
  EXPECT_FALSE(stale.pending());
  EXPECT_TRUE(fresh.pending());
  stale.cancel();  // must be a no-op against the recycled slot
  EXPECT_TRUE(fresh.pending());
  drain(q);
  EXPECT_FALSE(stale_ran);
  EXPECT_TRUE(fresh_ran);
}

TEST(EventQueue, SizeIsExactAfterMassCancellation) {
  EventQueue q;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 100; ++i) handles.push_back(q.schedule(at(i), [] {}));
  for (auto& h : handles) h.cancel();
  EXPECT_EQ(q.size(), 0u);
  EXPECT_TRUE(q.empty());
  // A survivor in the middle of the cancelled mass is still found.
  EventHandle live = q.schedule(at(50), [] {});
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.next_time(), at(50));
  EXPECT_TRUE(live.pending());
}

TEST(EventQueue, HandleOutlivesClear) {
  EventQueue q;
  EventHandle h = q.schedule(at(1), [] {});
  q.clear();
  EXPECT_FALSE(h.pending());
  h.cancel();  // must be a harmless no-op
  // New work scheduled after the clear is unaffected by the old handle.
  EventHandle fresh = q.schedule(at(2), [] {});
  EXPECT_FALSE(h.pending());
  EXPECT_TRUE(fresh.pending());
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, SlotArenaRecyclesInsteadOfGrowing) {
  EventQueue q;
  for (int i = 0; i < 1000; ++i) {
    EventHandle h = q.schedule(at(i), [] {});
    if (i % 2 == 0) {
      h.cancel();
    } else {
      run_next(q);
    }
  }
  // Every schedule released its slot before the next one; the arena should
  // stay at its peak concurrency (1), not grow with the schedule count.
  EXPECT_EQ(q.slot_capacity(), 1u);
  EXPECT_EQ(q.scheduled_total(), 1000u);
  EXPECT_TRUE(q.empty());
}

// Counts live instances of a captured object so tests can assert exactly
// when the kernel constructs and destroys closure state.
struct LifeProbe {
  int* constructed;
  int* destroyed;

  LifeProbe(int* c, int* d) : constructed{c}, destroyed{d} { ++*constructed; }
  LifeProbe(const LifeProbe& o) noexcept
      : constructed{o.constructed}, destroyed{o.destroyed} {
    ++*constructed;
  }
  LifeProbe(LifeProbe&& o) noexcept
      : constructed{o.constructed}, destroyed{o.destroyed} {
    ++*constructed;
  }
  LifeProbe& operator=(const LifeProbe&) = delete;
  LifeProbe& operator=(LifeProbe&&) = delete;
  ~LifeProbe() { ++*destroyed; }
};

// A callable too large for the inline buffer: must be rejected at compile
// time on the implicit path and accepted through the boxed() escape hatch.
struct OversizedCallable {
  std::array<std::byte, InlineCallback::kInlineBytes + 64> blob{};
  int* hits{nullptr};
  void operator()() const { ++*hits; }
};

struct SmallCallable {
  void operator()() const {}
};

struct OveralignedCallable {
  alignas(2 * InlineCallback::kInlineAlign) std::byte data[8]{};
  void operator()() const {}
};

static_assert(std::is_constructible_v<InlineCallback, SmallCallable>,
              "small callables must convert implicitly");
static_assert(!std::is_constructible_v<InlineCallback, OversizedCallable>,
              "captures larger than the inline buffer must not compile");
static_assert(!std::is_constructible_v<InlineCallback, OveralignedCallable>,
              "captures over-aligned beyond max_align_t must not compile");
static_assert(!std::is_copy_constructible_v<InlineCallback> &&
                  !std::is_copy_assignable_v<InlineCallback>,
              "InlineCallback is move-only");

TEST(InlineCallback, EmptyByDefaultAndAfterReset) {
  InlineCallback cb;
  EXPECT_FALSE(static_cast<bool>(cb));
  int hits = 0;
  cb = InlineCallback{[&hits] { ++hits; }};
  EXPECT_TRUE(static_cast<bool>(cb));
  cb.reset();
  EXPECT_FALSE(static_cast<bool>(cb));
  EXPECT_EQ(hits, 0);
}

TEST(InlineCallback, MoveTransfersTheClosure) {
  int hits = 0;
  InlineCallback a{[&hits] { ++hits; }};
  InlineCallback b{std::move(a)};
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  ASSERT_TRUE(static_cast<bool>(b));
  b();
  EXPECT_EQ(hits, 1);
}

TEST(InlineCallback, HoldsMoveOnlyCaptures) {
  auto value = std::make_unique<int>(41);
  int result = 0;
  InlineCallback cb{[value = std::move(value), &result] { result = *value + 1; }};
  cb();
  EXPECT_EQ(result, 42);
}

TEST(InlineCallback, DestroysCaptureExactlyOnce) {
  int constructed = 0;
  int destroyed = 0;
  {
    InlineCallback cb{[probe = LifeProbe{&constructed, &destroyed}] {
      (void)probe;
    }};
    InlineCallback moved{std::move(cb)};
    moved = InlineCallback{};  // move-assign over: destroys the closure
    EXPECT_EQ(constructed, destroyed);
  }
  EXPECT_GT(constructed, 0);
  EXPECT_EQ(constructed, destroyed);
}

TEST(InlineCallback, BoxedEscapeHatchForLargeClosures) {
  int hits = 0;
  OversizedCallable big;
  big.hits = &hits;
  InlineCallback cb = InlineCallback::boxed(big);
  ASSERT_TRUE(static_cast<bool>(cb));
  cb();
  cb();
  EXPECT_EQ(hits, 2);
}

TEST(EventQueue, MoveOnlyCaptureRunsThroughTheArena) {
  EventQueue q;
  auto payload = std::make_unique<int>(7);
  int seen = 0;
  q.schedule(at(1), [payload = std::move(payload), &seen] { seen = *payload; });
  run_next(q);
  EXPECT_EQ(seen, 7);
}

TEST(EventQueue, CancelDestroysCapturedStateEagerly) {
  int constructed = 0;
  int destroyed = 0;
  EventQueue q;
  EventHandle h = q.schedule(
      at(1), [probe = LifeProbe{&constructed, &destroyed}] { (void)probe; });
  EXPECT_LT(destroyed, constructed);  // the scheduled copy is alive
  h.cancel();
  // Cancellation must free the capture immediately (lazy pruning only
  // applies to the heap key), so resources pinned by closures don't linger.
  EXPECT_EQ(constructed, destroyed);
}

TEST(EventQueue, ClearDestroysCapturedState) {
  int constructed = 0;
  int destroyed = 0;
  EventQueue q;
  for (int i = 0; i < 4; ++i) {
    q.schedule(at(i), [probe = LifeProbe{&constructed, &destroyed}] {
      (void)probe;
    });
  }
  q.clear();
  EXPECT_EQ(constructed, destroyed);
}

TEST(EventQueue, PopBalancesConstructionAndDestruction) {
  int constructed = 0;
  int destroyed = 0;
  EventQueue q;
  q.schedule(at(1), [probe = LifeProbe{&constructed, &destroyed}] {
    (void)probe;
  });
  {
    TimePoint when;
    EventAction action;
    ASSERT_TRUE(q.pop_until(TimePoint::max(), when, action));
    EXPECT_EQ(when, at(1));
    action();
    EXPECT_LT(destroyed, constructed);  // closure alive while invocable
  }
  EXPECT_EQ(constructed, destroyed);
}

TEST(EventQueue, SelfRescheduleFromInsideInvocation) {
  // The closure is moved out of the arena before it runs, so an event may
  // schedule (even into its own recycled slot) from inside its invocation.
  EventQueue q;
  int fired = 0;
  struct Rearm {
    EventQueue* q;
    int* fired;
    TimePoint when;
    void operator()() const {
      if (++*fired < 5) {
        q->schedule(when + Duration::milliseconds(1), Rearm{q, fired, when});
      }
    }
  };
  q.schedule(at(1), Rearm{&q, &fired, at(1)});
  drain(q);
  EXPECT_EQ(fired, 5);
  EXPECT_EQ(q.slot_capacity(), 1u);  // the chain reused one slot
}

TEST(EventQueue, ClearThenRescheduleDoesNotAliasRecycledSlots) {
  EventQueue q;
  bool stale_ran = false;
  std::vector<EventHandle> stale;
  for (int i = 0; i < 3; ++i) {
    stale.push_back(q.schedule(at(i), [&stale_ran] { stale_ran = true; }));
  }
  q.clear();
  // The replacements recycle the cleared slots; stale handles must neither
  // report pending nor cancel the new occupants.
  int fresh_ran = 0;
  for (int i = 0; i < 3; ++i) {
    q.schedule(at(10 + i), [&fresh_ran] { ++fresh_ran; });
  }
  for (auto& h : stale) {
    EXPECT_FALSE(h.pending());
    h.cancel();
  }
  EXPECT_EQ(q.size(), 3u);
  drain(q);
  EXPECT_FALSE(stale_ran);
  EXPECT_EQ(fresh_ran, 3);
  EXPECT_EQ(q.slot_capacity(), 3u);
}

TEST(EventQueue, ReservePresizesArenaWithoutChangingBehaviour) {
  EventQueue q;
  q.reserve(32);
  EXPECT_EQ(q.slot_capacity(), 32u);
  EXPECT_TRUE(q.empty());
  std::vector<int> order;
  for (int i = 9; i >= 0; --i) {
    q.schedule(at(i), [&order, i] { order.push_back(i); });
  }
  EXPECT_EQ(q.slot_capacity(), 32u);  // no growth past the reservation
  drain(q);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  q.reserve(8);  // never shrinks
  EXPECT_EQ(q.slot_capacity(), 32u);
}

TEST(EventQueue, InterleavedCancelAndPopKeepsOrder) {
  EventQueue q;
  std::vector<int> order;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 20; ++i) {
    handles.push_back(q.schedule(at(i), [&order, i] { order.push_back(i); }));
  }
  for (int i = 0; i < 20; i += 2) handles[static_cast<std::size_t>(i)].cancel();
  drain(q);
  ASSERT_EQ(order.size(), 10u);
  for (std::size_t i = 0; i + 1 < order.size(); ++i) {
    EXPECT_LT(order[i], order[i + 1]);
    EXPECT_EQ(order[i] % 2, 1);
  }
}

}  // namespace
}  // namespace bansim::sim
