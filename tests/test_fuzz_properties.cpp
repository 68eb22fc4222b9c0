// Property and fuzz tests: random-but-legal workloads hammering the
// kernel, the radio state machine and the OS scheduler, checking the
// invariants that every higher layer silently relies on.
#include <gtest/gtest.h>

#include "sim/context.hpp"

#include <map>
#include <vector>

#include "hw/radio_nrf2401.hpp"
#include "os/task_scheduler.hpp"
#include "os/timer_service.hpp"
#include "phy/channel.hpp"
#include "sim/event_queue.hpp"
#include "sim/rng.hpp"

namespace bansim {
namespace {

using namespace bansim::sim::literals;
using sim::Duration;
using sim::Rng;
using sim::TimePoint;

// --- Event-queue model check ------------------------------------------------

struct QueueCase {
  std::uint64_t seed;
  std::uint64_t first_seq;  ///< where the seq stamps start
};

// Names a case by its seed, as ctest prints it; the wrap cases say so.
void PrintTo(const QueueCase& c, std::ostream* os) {
  *os << c.seed << (c.first_seq == 0 ? "" : "_wrap");
}

class EventQueueModelCheck : public ::testing::TestWithParam<QueueCase> {};

TEST_P(EventQueueModelCheck, MatchesReferenceModel) {
  // Random schedule/cancel/pop/clear against a multimap reference.  Part of
  // the schedules land at the last popped instant or just after it, ahead of
  // every pending key, which is what the front register holds; size(),
  // empty() and next_time() must match the model after every step.
  Rng rng{GetParam().seed};
  sim::EventQueue queue;
  queue.set_next_seq_for_test(GetParam().first_seq);
  std::multimap<std::int64_t, int> model;  // time -> tag (FIFO by emplace)
  std::vector<std::pair<sim::EventHandle, std::pair<std::int64_t, int>>> live;
  std::vector<int> popped_tags;
  int next_tag = 0;
  std::int64_t last_popped = 0;
  const auto at = [](std::int64_t ms) {
    return TimePoint::zero() + Duration::milliseconds(ms);
  };
  const auto model_erase = [&model](std::int64_t when, int tag) {
    auto [lo, hi] = model.equal_range(when);
    for (auto it = lo; it != hi; ++it) {
      if (it->second == tag) {
        model.erase(it);
        return;
      }
    }
  };

  for (int step = 0; step < 3000; ++step) {
    SCOPED_TRACE(step);
    const double dice = rng.next_double();
    if (dice < 0.5) {
      const double bias = rng.next_double();
      const std::int64_t when = bias < 0.2   ? last_popped
                                : bias < 0.3 ? last_popped + 1
                                             : rng.uniform_int(0, 1000);
      const int tag = next_tag++;
      auto handle = queue.schedule(
          at(when), [tag, &popped_tags] { popped_tags.push_back(tag); });
      model.emplace(when, tag);
      live.emplace_back(std::move(handle), std::make_pair(when, tag));
    } else if (dice < 0.6 && !live.empty()) {
      const auto victim = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
      if (live[victim].first.pending()) {
        live[victim].first.cancel();
        model_erase(live[victim].second.first, live[victim].second.second);
      }
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
    } else if (dice < 0.65 && !model.empty()) {
      // Cancel the current earliest event, wherever the queue keeps it.
      const int tag = model.begin()->second;
      for (auto& [handle, key] : live) {
        if (key.second != tag) continue;
        ASSERT_TRUE(handle.pending());
        handle.cancel();
        break;
      }
      model.erase(model.begin());
    } else if (dice < 0.655) {
      queue.clear();
      model.clear();
      for (const auto& [handle, key] : live) ASSERT_FALSE(handle.pending());
      live.clear();
    } else {
      // Pop against a horizon: either unbounded or a random instant, which
      // the earliest event may lie after.
      const bool bounded = rng.next_double() < 0.3;
      const std::int64_t until_ms = rng.uniform_int(0, 1000);
      const TimePoint until = bounded ? at(until_ms) : TimePoint::max();
      const bool due = !model.empty() &&
                       (!bounded || model.begin()->first <= until_ms);
      TimePoint when = at(-1);
      sim::EventAction action;
      ASSERT_EQ(queue.pop_until(until, when, action), due);
      if (due) {
        action();
        // FIFO among equal times is guaranteed by the queue and the
        // multimap preserves insertion order for equal keys too, so the
        // tags must agree.
        ASSERT_EQ(when, at(model.begin()->first));
        ASSERT_EQ(model.begin()->second, popped_tags.back());
        last_popped = model.begin()->first;
        model.erase(model.begin());
      } else {
        ASSERT_EQ(when, at(-1));
        ASSERT_FALSE(static_cast<bool>(action));
      }
    }
    ASSERT_EQ(queue.size(), model.size());
    ASSERT_EQ(queue.empty(), model.empty());
    if (!model.empty()) {
      ASSERT_EQ(queue.next_time(), at(model.begin()->first));
    }
  }

  // Drain both completely: every remaining event must match in order.
  TimePoint when;
  sim::EventAction action;
  while (queue.pop_until(TimePoint::max(), when, action)) {
    action();
    ASSERT_FALSE(model.empty());
    EXPECT_EQ(when, at(model.begin()->first));
    EXPECT_EQ(model.begin()->second, popped_tags.back());
    model.erase(model.begin());
  }
  EXPECT_TRUE(model.empty());
  EXPECT_EQ(queue.size(), 0u);
}

// The last two start 1000 stamps below 2^64, so the seq wrap falls inside
// the run (about 1500 events are scheduled).
INSTANTIATE_TEST_SUITE_P(
    Seeds, EventQueueModelCheck,
    ::testing::Values(QueueCase{1, 0}, QueueCase{22, 0}, QueueCase{333, 0},
                      QueueCase{4444, 0}, QueueCase{55, ~std::uint64_t{0} - 999},
                      QueueCase{666, ~std::uint64_t{0} - 999}));

// --- Radio state-machine fuzz -------------------------------------------------

class RadioFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RadioFuzz, LegalCommandStormKeepsInvariants) {
  Rng rng{GetParam()};
  sim::SimContext context;
  sim::Simulator& simulator = context.simulator;
  phy::Channel channel{context};
  hw::RadioParams params;
  phy::PhyConfig phy_config;
  hw::RadioNrf2401 a{context, channel, "a", params, phy_config};
  hw::RadioNrf2401 b{context, channel, "b", params, phy_config};
  a.set_local_address(1);
  b.set_local_address(2);

  std::uint64_t delivered = 0;
  hw::RadioNrf2401::Callbacks cb;
  cb.on_receive = [&](const net::Packet&) { ++delivered; };
  b.set_callbacks(cb);

  a.power_up();
  b.power_up();
  simulator.run_until(simulator.now() + 4_ms);

  for (int step = 0; step < 2000; ++step) {
    // Issue a random *legal* command on each radio, advance random time.
    for (hw::RadioNrf2401* radio : {&a, &b}) {
      const double dice = rng.next_double();
      switch (radio->state()) {
        case hw::RadioState::kStandby:
          if (dice < 0.3) {
            net::Packet p;
            p.header.dest = radio == &a ? 2 : 1;
            p.header.src = radio->local_address();
            p.payload.assign(
                static_cast<std::size_t>(rng.uniform_int(0, 18)), 0x77);
            radio->send(p);
          } else if (dice < 0.6) {
            radio->start_rx();
          } else if (dice < 0.65) {
            radio->power_down();
          }
          break;
        case hw::RadioState::kRxListen:
        case hw::RadioState::kRxSettle:
          if (dice < 0.4) radio->stop_rx();
          break;
        case hw::RadioState::kPowerDown:
          if (dice < 0.8) radio->power_up();
          break;
        default:
          break;  // mid-transaction: hands off
      }
    }
    simulator.run_until(simulator.now() +
                        Duration::microseconds(rng.uniform_int(50, 4000)));
  }
  simulator.run();

  const TimePoint now = simulator.now();
  for (const hw::RadioNrf2401* radio : {&a, &b}) {
    // Energy conservation: per-state energies sum to the total and all
    // residencies sum to elapsed time.
    double sum = 0.0;
    Duration time_sum = Duration::zero();
    for (std::size_t s = 0; s < radio->meter().num_states(); ++s) {
      sum += radio->meter().energy_in(static_cast<int>(s), now);
      time_sum += radio->meter().time_in(static_cast<int>(s), now);
    }
    EXPECT_NEAR(sum, radio->meter().total_energy(now), 1e-12);
    EXPECT_EQ(time_sum, now - TimePoint::zero());
    // No stuck transaction.
    EXPECT_TRUE(radio->state() == hw::RadioState::kStandby ||
                radio->state() == hw::RadioState::kPowerDown ||
                radio->state() == hw::RadioState::kRxListen ||
                radio->state() == hw::RadioState::kRxSettle)
        << to_string(radio->state());
  }
  // Traffic flowed and the books balance.
  EXPECT_EQ(b.stats().rx_delivered, delivered);
  EXPECT_LE(b.stats().rx_delivered + b.stats().rx_crc_dropped +
                b.stats().rx_addr_filtered,
            a.stats().tx_frames + b.stats().tx_frames);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RadioFuzz,
                         ::testing::Values(5ull, 55ull, 555ull));

// --- Scheduler fuzz -----------------------------------------------------------

class SchedulerFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SchedulerFuzz, RandomPostingPreservesAccounting) {
  Rng rng{GetParam()};
  sim::SimContext context;
  sim::Simulator& simulator = context.simulator;
  hw::McuParams params;
  hw::Mcu mcu{context, "n", params, 0.0};
  os::PowerManager power;
  power.register_peripheral("timer", os::ClockConstraint::kSmclk);
  os::NullProbe probe;
  os::TaskScheduler scheduler{context, mcu, power, "n", probe};

  std::uint64_t expected_cycles = 0;
  std::uint64_t posted = 0;
  // Drain the boot stretch: the MCU is active from t=0 until the first
  // dispatch puts it to sleep, which must be accounted like any task.
  scheduler.post("boot", 1, nullptr);
  expected_cycles += 1;
  ++posted;
  std::function<void()> maybe_post = [&] {
    while (rng.chance(0.4) && posted < 2000) {
      const auto cycles = static_cast<std::uint64_t>(rng.uniform_int(1, 4000));
      expected_cycles += cycles;
      ++posted;
      if (rng.chance(0.3)) {
        expected_cycles += params.isr_overhead_cycles;
        scheduler.raise_interrupt("fuzz_isr", cycles,
                                  [&maybe_post] { maybe_post(); });
      } else {
        scheduler.post("fuzz_task", cycles, [&maybe_post] { maybe_post(); });
      }
    }
  };
  // Seed the cascade from a few timer-like external events.
  for (int i = 0; i < 50; ++i) {
    simulator.schedule_in(Duration::microseconds(rng.uniform_int(0, 100000)),
                          [&] {
                            const auto cycles = static_cast<std::uint64_t>(
                                rng.uniform_int(1, 4000));
                            expected_cycles += cycles;
                            ++posted;
                            scheduler.post("fuzz_task", cycles,
                                           [&maybe_post] { maybe_post(); });
                          });
  }
  simulator.run();

  EXPECT_TRUE(scheduler.idle());
  EXPECT_EQ(scheduler.tasks_run() + scheduler.interrupts_run(), posted);
  // Active time == executed cycles / f + wakeup stalls.
  const double active_s =
      mcu.meter()
          .time_in(static_cast<int>(hw::McuMode::kActive), simulator.now())
          .to_seconds();
  const double work_s = static_cast<double>(expected_cycles) / params.cpu_hz;
  const double stall_s = static_cast<double>(mcu.wakeups()) *
                         params.wakeup_latency.to_seconds();
  EXPECT_NEAR(active_s, work_s + stall_s, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerFuzz,
                         ::testing::Values(9ull, 99ull, 999ull));

}  // namespace
}  // namespace bansim
