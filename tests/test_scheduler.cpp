#include "os/task_scheduler.hpp"

#include <gtest/gtest.h>

#include "sim/context.hpp"

#include <deque>
#include <functional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "os/cycle_cost_model.hpp"
#include "os/power_manager.hpp"
#include "sim/rng.hpp"

namespace bansim::os {
namespace {

using namespace bansim::sim::literals;
using hw::McuMode;
using sim::Duration;
using sim::TimePoint;

struct SchedulerFixture : ::testing::Test {
  sim::SimContext context;
  sim::Simulator& simulator = context.simulator;
  sim::Tracer& tracer = context.tracer;
  hw::McuParams params;
  hw::Mcu mcu{context, "n", params, 0.0};
  PowerManager power;
  NullProbe probe;
  TaskScheduler scheduler{context, mcu, power, "n", probe};

  SchedulerFixture() {
    // Keep the idle mode at LPM1 like the BAN firmware (timer running).
    power.register_peripheral("timer", ClockConstraint::kSmclk);
  }
};

TEST_F(SchedulerFixture, RunsPostedTaskAfterItsCycles) {
  TimePoint done;
  scheduler.post("t", 8000, [&] { done = simulator.now(); });  // 1 ms at 8 MHz
  simulator.run();
  EXPECT_EQ(done, TimePoint::zero() + 1_ms);
  EXPECT_EQ(scheduler.tasks_run(), 1u);
}

TEST_F(SchedulerFixture, FifoOrderAmongTasks) {
  std::vector<int> order;
  scheduler.post("a", 100, [&] { order.push_back(1); });
  scheduler.post("b", 100, [&] { order.push_back(2); });
  scheduler.post("c", 100, [&] { order.push_back(3); });
  simulator.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST_F(SchedulerFixture, InterruptJumpsQueue) {
  std::vector<int> order;
  scheduler.post("a", 800, [&] {
    // While "a" runs, queue a task and raise an interrupt: the ISR must
    // dispatch before the queued task.
    scheduler.post("b", 100, [&] { order.push_back(2); });
    scheduler.raise_interrupt("isr", 100, [&] { order.push_back(1); });
  });
  simulator.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(scheduler.interrupts_run(), 1u);
}

TEST_F(SchedulerFixture, SleepsWhenQueueEmpty) {
  scheduler.post("t", 100, nullptr);
  simulator.run();
  EXPECT_EQ(mcu.mode(), McuMode::kLpm1);
  EXPECT_TRUE(scheduler.idle());
}

TEST_F(SchedulerFixture, WakeupLatencyDelaysFirstTask) {
  scheduler.post("sleepmaker", 100, nullptr);
  simulator.run();
  ASSERT_EQ(mcu.mode(), McuMode::kLpm1);

  const TimePoint t0 = simulator.now();
  TimePoint done;
  scheduler.post("t", 8000, [&] { done = simulator.now(); });
  simulator.run();
  // 6 us wake-up + 1 ms task.
  EXPECT_EQ(done, t0 + params.wakeup_latency + 1_ms);
  EXPECT_EQ(mcu.wakeups(), 1u);
}

TEST_F(SchedulerFixture, InterruptPaysOverheadCycles) {
  TimePoint done;
  scheduler.raise_interrupt("isr", 8000, [&] { done = simulator.now(); });
  simulator.run();
  // 8000 + 11 overhead cycles at 8 MHz (MCU already active at t=0).
  const Duration expect = mcu.cycles_to_time(8000 + params.isr_overhead_cycles);
  EXPECT_EQ(done, TimePoint::zero() + expect);
}

TEST_F(SchedulerFixture, BodyPostingKeepsRunning) {
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 5) scheduler.post("chain", 100, [&chain] { chain(); });
  };
  scheduler.post("chain", 100, [&chain] { chain(); });
  simulator.run();
  EXPECT_EQ(count, 5);
  EXPECT_EQ(scheduler.tasks_run(), 5u);
}

TEST_F(SchedulerFixture, EmptyBodiesCostTheirCyclesAndRunNothing) {
  TimePoint done;
  scheduler.post("null_body", 8000, nullptr);  // in flight at once
  scheduler.post("no_body", 8000);
  scheduler.raise_interrupt("bare_isr", 8000);
  scheduler.post("t", 8000, [&] { done = simulator.now(); });
  simulator.run();
  EXPECT_EQ(done, TimePoint::zero() + 3 * mcu.cycles_to_time(8000) +
                      mcu.cycles_to_time(8000 + params.isr_overhead_cycles));
  EXPECT_EQ(scheduler.tasks_run(), 3u);
  EXPECT_EQ(scheduler.interrupts_run(), 1u);
}

/// True when `Body` is accepted as a task body / interrupt handler.
template <typename Body>
concept Postable = requires(TaskScheduler& s, Body body) {
  s.post("t", 1, std::move(body));
};
template <typename Body>
concept Raisable = requires(TaskScheduler& s, Body body) {
  s.raise_interrupt("t", 1, std::move(body));
};

TEST(TaskSchedulerApi, StdFunctionBodiesAreRejectedAtTheCall) {
  // An empty std::function would throw at dispatch; a per-event body is an
  // inline callback, nullptr, or nothing.
  static_assert(Postable<sim::InlineCallback>);
  static_assert(Postable<std::nullptr_t>);
  static_assert(!Postable<std::function<void()>>);
  static_assert(!Postable<std::function<void()>&>);
  static_assert(Raisable<sim::InlineCallback>);
  static_assert(!Raisable<std::function<void()>>);
  SUCCEED();
}

TEST_F(SchedulerFixture, SameInstantInterruptsRunBeforeTasksNewestFirst) {
  std::vector<std::string> order;
  auto record = [&](const char* what) {
    return [&order, what] { order.emplace_back(what); };
  };
  scheduler.post("busy", 8000, nullptr);  // in flight until 1 ms
  simulator.schedule_in(500_us, [&] {
    scheduler.post("task_a", 100, record("task_a"));
    scheduler.raise_interrupt("isr_1", 100, record("isr_1"));
    scheduler.post("task_b", 100, record("task_b"));
    scheduler.raise_interrupt("isr_2", 100, record("isr_2"));
  });
  simulator.run();
  EXPECT_EQ(order, (std::vector<std::string>{"isr_2", "isr_1", "task_a",
                                             "task_b"}));
}

TEST_F(SchedulerFixture, QueueOrderMatchesDequeModelThroughGrowth) {
  // Interrupts at the front, tasks at the back, enough of both to grow and
  // wrap the ring several times; the dispatch order must be the deque's.
  sim::Rng rng{17};
  std::deque<int> model;
  std::vector<int> ran;
  scheduler.post("busy", 8000, nullptr);
  simulator.schedule_in(500_us, [&] {
    for (int i = 0; i < 300; ++i) {
      auto body = [&ran, i] { ran.push_back(i); };
      if (rng.chance(0.3)) {
        model.push_front(i);
        scheduler.raise_interrupt("isr", 10, body);
      } else {
        model.push_back(i);
        scheduler.post("task", 10, body);
      }
    }
  });
  simulator.run();
  EXPECT_EQ(ran, std::vector<int>(model.begin(), model.end()));
}

TEST_F(SchedulerFixture, NominalCostModeChargesTableValue) {
  CycleCostModel table;
  table.set("calibrated", 16000);  // 2 ms at 8 MHz
  TaskScheduler model_sched{context, mcu,  power,
                            "n",       probe,  &table};
  TimePoint done;
  model_sched.post("calibrated", 4000 /*actual, ignored*/, [&] {
    done = simulator.now();
  });
  simulator.run();
  EXPECT_EQ(done, TimePoint::zero() + 2_ms);
}

TEST_F(SchedulerFixture, NominalCostModeFallsBackForUnknownTasks) {
  CycleCostModel table;
  TaskScheduler model_sched{context, mcu,  power,
                            "n",       probe,  &table};
  TimePoint done;
  model_sched.post("unknown", 8000, [&] { done = simulator.now(); });
  simulator.run();
  EXPECT_EQ(done, TimePoint::zero() + 1_ms);
}

TEST_F(SchedulerFixture, EnergySplitsActiveAndSleep) {
  scheduler.post("t", 80000, nullptr);  // 10 ms active
  simulator.schedule_in(30_ms, [] {});
  simulator.run();
  const auto now = simulator.now();
  EXPECT_NEAR(
      mcu.meter().energy_in(static_cast<int>(McuMode::kActive), now),
      2e-3 * 2.8 * 0.010, 1e-9);
  EXPECT_NEAR(mcu.meter().energy_in(static_cast<int>(McuMode::kLpm1), now),
              0.66e-3 * 2.8 * 0.020, 1e-9);
}

/// A probe that records task names.
class RecordingProbe final : public ModelProbe {
 public:
  void on_task(std::string_view, std::string_view task,
               sim::TimePoint) override {
    names.emplace_back(task);
  }
  void on_radio_rx_on(std::string_view, sim::TimePoint) override {}
  void on_radio_rx_off(std::string_view, sim::TimePoint) override {}
  void on_radio_tx(std::string_view, std::size_t, sim::TimePoint) override {}
  void on_packet(std::string_view, net::PacketType, bool,
                 sim::TimePoint) override {}
  std::vector<std::string> names;
};

TEST_F(SchedulerFixture, ProbeSeesTaskNames) {
  RecordingProbe recorder;
  TaskScheduler sched{context, mcu, power, "n", recorder};
  sched.post("alpha", 10, nullptr);
  sched.post("beta", 10, nullptr);
  simulator.run();
  EXPECT_EQ(recorder.names, (std::vector<std::string>{"alpha", "beta"}));
}

TEST(TaskIdTest, InterningIsStableAndNamesRoundTrip) {
  using namespace os::literals;
  const TaskId a{"taskid.alpha"};
  EXPECT_EQ(a, TaskId{std::string_view{"taskid.alpha"}});
  EXPECT_EQ(a, "taskid.alpha"_task);
  EXPECT_NE(a, TaskId{"taskid.beta"});
  EXPECT_EQ(a.name(), "taskid.alpha");
  EXPECT_EQ(TaskId{}.index(), 0u);
  EXPECT_EQ(TaskId{""}, TaskId{});
  EXPECT_EQ(TaskId{}.name(), "");
}

TEST(TaskIdTest, ConcurrentInterningAgrees) {
  // Networks are built on a thread pool, so threads intern the same names
  // concurrently, each in its own order; every thread must see one id per
  // name.
  constexpr int kThreads = 4;
  constexpr int kNames = 300;
  std::vector<std::string> names;
  for (int i = 0; i < kNames; ++i) {
    names.push_back("taskid.concurrent." + std::to_string(i));
  }
  std::vector<std::vector<TaskId>> seen(kThreads,
                                        std::vector<TaskId>(kNames));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int k = 0; k < kNames; ++k) {
        // A rotation, reversed for odd threads: each thread its own order.
        const int i = ((t % 2 == 0 ? k : kNames - 1 - k) + t * 75) % kNames;
        seen[t][i] = TaskId{names[i]};
        EXPECT_EQ(seen[t][i].name(), names[i]);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(seen[t], seen[0]);
}

TEST(PowerManagerTest, DeepestModeRespectsConstraints) {
  PowerManager pm;
  EXPECT_EQ(pm.idle_mode(), hw::McuMode::kLpm4);  // nothing registered
  const auto timer = pm.register_peripheral("timer", ClockConstraint::kSmclk);
  EXPECT_EQ(pm.idle_mode(), hw::McuMode::kLpm1);
  pm.update(timer, ClockConstraint::kAclk);
  EXPECT_EQ(pm.idle_mode(), hw::McuMode::kLpm3);
  pm.update(timer, ClockConstraint::kNone);
  EXPECT_EQ(pm.idle_mode(), hw::McuMode::kLpm4);
}

TEST(PowerManagerTest, StrictestConstraintWins) {
  PowerManager pm;
  pm.register_peripheral("rtc", ClockConstraint::kAclk);
  pm.register_peripheral("timer", ClockConstraint::kSmclk);
  EXPECT_EQ(pm.idle_mode(), hw::McuMode::kLpm1);
}

TEST(CycleCostModelTest, SetLookupHas) {
  CycleCostModel m;
  EXPECT_FALSE(m.has("x"));
  EXPECT_EQ(m.lookup("x", 77), 77u);  // fallback
  m.set("x", 1000);
  EXPECT_TRUE(m.has("x"));
  EXPECT_EQ(m.lookup("x", 77), 1000u);
  m.set("x", 2000);  // overwrite
  EXPECT_EQ(m.lookup("x", 77), 2000u);
  EXPECT_EQ(m.size(), 1u);
}

TEST(CycleCostModelTest, PlatformDefaultsCoverBanTasks) {
  const CycleCostModel m = CycleCostModel::platform_defaults();
  for (const char* task :
       {"radio.clockin", "radio.clockout", "mac.beacon_proc", "app.acq_frame",
        "app.rpeak_step", "app.pack_payload", "mac.prepare_tx"}) {
    EXPECT_TRUE(m.has(task)) << task;
  }
}

}  // namespace
}  // namespace bansim::os
