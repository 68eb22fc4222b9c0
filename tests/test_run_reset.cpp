// Edge cases of the run-reset protocol (DESIGN.md): arena reuse in the
// event queue across seq wraparound, interned trace names surviving reset,
// meters and stores after a mid-run crash, the shape changes a reset
// rejects, and the population generator's same-shape sampling contract.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/bansim.hpp"
#include "energy/campaign_columns.hpp"
#include "sim/event_queue.hpp"

namespace bansim {
namespace {

using core::BanConfig;
using core::BanNetwork;
using sim::Duration;
using sim::EventQueue;
using sim::TimePoint;

std::vector<double> flatten(const std::vector<energy::NodeEnergy>& nodes) {
  std::vector<double> flat;
  for (const auto& n : nodes) {
    for (const auto& c : n.components) {
      flat.push_back(c.joules);
      for (const auto& [state, joules] : c.per_state) flat.push_back(joules);
    }
  }
  return flat;
}

// --- EventQueue arena across resets and seq wraparound ---------------------

/// Runs every pending event in (time, seq) order.
void drain(EventQueue& queue) {
  TimePoint when;
  sim::EventAction action;
  while (queue.pop_until(TimePoint::max(), when, action)) {
    action();
    action.reset();
  }
}

TEST(RunReset, EventQueueOrdersFifoAcrossSeqWraparound) {
  EventQueue queue;
  // Park the stamp so the next six events straddle 2^64.
  queue.set_next_seq_for_test(std::numeric_limits<std::uint64_t>::max() - 2);

  std::vector<int> fired;
  const TimePoint when = TimePoint::zero() + Duration::milliseconds(1);
  for (int i = 0; i < 6; ++i) {
    queue.schedule(when, [i, &fired] { fired.push_back(i); });
  }
  drain(queue);

  // Same-time ties must stay FIFO even though the stamps wrapped.
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

TEST(RunReset, EventQueueClearKeepsArenaAndNeverRebasesSeq) {
  EventQueue queue;
  queue.reserve(32);
  const std::size_t warmed = queue.slot_capacity();

  auto handle = queue.schedule(TimePoint::zero() + Duration::seconds(1), [] {});
  const std::uint64_t scheduled = queue.scheduled_total();
  queue.clear();

  EXPECT_FALSE(handle.pending());
  EXPECT_TRUE(queue.empty());
  // Warm arena: capacity survives, the stamp counter does not rewind (a
  // rebased stamp would let this stale handle alias the next run's event).
  EXPECT_EQ(queue.slot_capacity(), warmed);
  EXPECT_EQ(queue.scheduled_total(), scheduled);

  for (int run = 0; run < 50; ++run) {
    for (int i = 0; i < 20; ++i) {
      queue.schedule(TimePoint::zero() + Duration::milliseconds(i), [] {});
    }
    queue.clear();
  }
  EXPECT_FALSE(handle.pending());
  EXPECT_EQ(queue.slot_capacity(), warmed);
}

TEST(RunReset, EventQueueWrapsAcrossManyClearedRuns) {
  EventQueue queue;
  // A campaign that parked the counter just below the wrap: every
  // schedule/clear cycle keeps counting through 2^64 without disturbing
  // FIFO order inside any single run.
  queue.set_next_seq_for_test(std::numeric_limits<std::uint64_t>::max() - 40);
  for (int run = 0; run < 20; ++run) {
    std::vector<int> fired;
    const TimePoint when = TimePoint::zero() + Duration::milliseconds(1);
    for (int i = 0; i < 4; ++i) {
      queue.schedule(when, [i, &fired] { fired.push_back(i); });
    }
    drain(queue);
    EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3})) << "run " << run;
    queue.clear();
  }
}

// --- Tracer interned names across reset ------------------------------------

TEST(RunReset, TracerInternTableSurvivesReset) {
  sim::SimContext context{7};
  const auto id1 = context.tracer.intern("node1");
  const auto id2 = context.tracer.intern("node2");

  context.reset(99);

  // Re-interning after reset returns the same stable ids (components keep
  // their handles across runs) and the reverse mapping is intact.
  EXPECT_EQ(context.tracer.intern("node1"), id1);
  EXPECT_EQ(context.tracer.intern("node2"), id2);
  EXPECT_EQ(context.tracer.node_name(id2), "node2");
  EXPECT_EQ(context.seed(), 99u);
}

// --- Meter + store after a mid-run crash, then reset -----------------------

BanConfig crashy_storage_config(std::uint64_t seed) {
  BanConfig config;
  config.num_nodes = 3;
  config.seed = seed;
  config.storage.enabled = true;
  config.storage.battery.capacity_mah = 0.05;
  config.fault_plan.enabled = true;
  fault::FaultEvent crash;
  crash.kind = fault::FaultKind::kCrash;
  crash.node = 1;
  crash.at = TimePoint::zero() + Duration::milliseconds(600);
  crash.down = Duration::milliseconds(300);
  config.fault_plan.events.push_back(crash);
  return config;
}

TEST(RunReset, MeterAndStoreRewindAfterMidRunCrash) {
  const BanConfig config = crashy_storage_config(21);
  BanNetwork network{config};
  network.start();
  // Stop mid-run with the crash in full swing: node 1 is down, its meters
  // hold a partial stretch, its store has drained.
  network.run_until(TimePoint::zero() + Duration::milliseconds(700));
  ASSERT_GT(flatten(network.energy_snapshot())[0], 0.0);
  const hw::EnergyStore* store = network.node(0).energy_store();
  ASSERT_NE(store, nullptr);
  EXPECT_LT(store->remaining_joules(), store->initial_joules());

  network.reset(config);

  // Clock rewound, books zeroed, store refilled — regardless of the state
  // the crash left everything in.
  EXPECT_EQ(network.simulator().now(), TimePoint::zero());
  for (double joules : flatten(network.energy_snapshot())) {
    EXPECT_EQ(joules, 0.0);
  }
  store = network.node(0).energy_store();
  ASSERT_NE(store, nullptr);
  EXPECT_EQ(store->remaining_joules(), store->initial_joules());
  EXPECT_EQ(store->total_draw_requested(), 0.0);

  // And the rewound cell replays the run bit-identically.
  network.start();
  network.run_until(TimePoint::zero() + Duration::seconds(2));
  BanNetwork fresh{config};
  fresh.start();
  fresh.run_until(TimePoint::zero() + Duration::seconds(2));
  EXPECT_EQ(flatten(network.energy_snapshot()),
            flatten(fresh.energy_snapshot()));
}

// --- Same-shape contract: what only a rebuild may change -----------------

/// What BanNetwork::reset's std::invalid_argument says, or "" on success.
std::string reset_error(BanNetwork& network, const BanConfig& config) {
  try {
    network.reset(config);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(RunReset, ResetRejectsAppKindAndStorageChanges) {
  BanConfig config;
  config.num_nodes = 3;
  BanNetwork network{config};
  network.start();
  network.run_until(TimePoint::zero() + Duration::seconds(1));

  // Accepted, node 2 would keep streaming ECG through its built app.
  BanConfig rpeak = config;
  rpeak.roster.resize(3);
  rpeak.roster[1].app = core::AppKind::kRpeak;
  EXPECT_EQ(reset_error(network, rpeak),
            "reset_cell: roster entry 1 runs rpeak but the built node runs "
            "ecg_streaming; a reset must keep the cell's shape");

  // Accepted, node 3 would stay on the bench supply with no store to drain.
  BanConfig stored = config;
  stored.roster.resize(3);
  stored.roster[2].storage = hw::StorageParams{};
  stored.roster[2].storage->enabled = true;
  EXPECT_EQ(reset_error(network, stored),
            "reset_cell: roster entry 2 enables storage; a reset must keep "
            "the cell's shape");

  // A same-shape reset after the rejections still replays a fresh build.
  ASSERT_EQ(reset_error(network, config), "");
  network.start();
  network.run_until(TimePoint::zero() + Duration::seconds(2));
  BanNetwork fresh{config};
  fresh.start();
  fresh.run_until(TimePoint::zero() + Duration::seconds(2));
  EXPECT_EQ(flatten(network.energy_snapshot()),
            flatten(fresh.energy_snapshot()));
}

TEST(RunReset, ResetRejectsProtocolAndMacParameterChanges) {
  const core::PaperSetup setup;
  const BanConfig config =
      core::streaming_static_config(setup, Duration::milliseconds(60));
  BanNetwork network{config};
  network.start();
  network.run_until(TimePoint::zero() + Duration::seconds(1));

  // Accepted, both would keep running the MACs the cell was built with: a
  // static cell reset to dynamic TDMA still ran static_tdma, and one reset
  // to a 120 ms plan still beaconed every 60 ms.
  EXPECT_EQ(reset_error(network, core::streaming_dynamic_config(setup, 5)),
            "reset_cell: protocol dynamic_tdma differs from the built "
            "cell's static_tdma; a reset must keep the cell's shape");
  EXPECT_EQ(reset_error(network, core::streaming_static_config(
                                     setup, Duration::milliseconds(120))),
            "reset_cell: the tdma parameters differ from the built cell's; "
            "a reset must keep the cell's shape");
  // The blocks of the protocols the cell does not run are shape too.
  BanConfig csma = config;
  csma.csma.max_be = 6;
  EXPECT_EQ(reset_error(network, csma),
            "reset_cell: the csma parameters differ from the built cell's; "
            "a reset must keep the cell's shape");

  ASSERT_EQ(reset_error(network, config), "");
  network.start();
  network.run_until(TimePoint::zero() + Duration::seconds(2));
  BanNetwork fresh{config};
  fresh.start();
  fresh.run_until(TimePoint::zero() + Duration::seconds(2));
  EXPECT_EQ(flatten(network.energy_snapshot()),
            flatten(fresh.energy_snapshot()));
}

// --- Population sampling: determinism + same-shape contract ----------------

TEST(RunReset, PopulationGeneratorIsDeterministicAndDistinct) {
  BanConfig base;
  base.num_nodes = 3;
  base.seed = 42;
  core::PopulationConfig population;
  const core::PopulationGenerator generator{base, population};

  const BanConfig a = generator.patient(5);
  const BanConfig b = generator.patient(5);
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.ecg.heart_rate_bpm, b.ecg.heart_rate_bpm);
  EXPECT_EQ(a.ecg.noise_volts, b.ecg.noise_volts);

  const BanConfig other = generator.patient(6);
  EXPECT_NE(a.seed, other.seed);
  EXPECT_NE(a.ecg.heart_rate_bpm, other.ecg.heart_rate_bpm);
  // Shape invariants: same roster size, same fault activeness.
  EXPECT_EQ(a.effective_nodes(), base.effective_nodes());
  EXPECT_EQ(a.fault_plan.any(), base.fault_plan.any());
}

TEST(RunReset, MotionPopulationAlwaysCarriesAnEpisode) {
  BanConfig base;
  base.num_nodes = 2;
  base.seed = 7;
  core::PopulationConfig population;
  population.motion = true;
  const core::PopulationGenerator generator{base, population};
  for (std::size_t i = 0; i < 40; ++i) {
    const BanConfig patient = generator.patient(i);
    EXPECT_TRUE(patient.fault_plan.enabled);
    EXPECT_GE(patient.fault_plan.episodes.size(), 1u) << "patient " << i;
    EXPECT_TRUE(patient.fault_plan.touches_channel());
  }
}

// --- Columnar reductions ---------------------------------------------------

TEST(RunReset, MetricCdfPercentilesAndUnboundedTail) {
  std::vector<double> column;
  for (int i = 1; i <= 90; ++i) column.push_back(static_cast<double>(i));
  for (int i = 0; i < 10; ++i) {
    column.push_back(std::numeric_limits<double>::infinity());
  }
  const auto cdf = energy::MetricCdf::build(column, 90);
  EXPECT_EQ(cdf.count, 90u);
  EXPECT_EQ(cdf.unbounded, 10u);
  EXPECT_NEAR(cdf.percentile(0.5), 50.0, 2.0);
  EXPECT_TRUE(std::isinf(cdf.percentile(0.95)));

  std::vector<double> scratch;
  EXPECT_EQ(energy::column_percentile(column, 0.5, scratch), 50.0);
  EXPECT_NEAR(energy::column_mean(column), 45.5, 1e-12);

  const std::string csv = energy::MetricCdf::build(column, 4).render_csv();
  EXPECT_EQ(csv.substr(0, 19), "value,cum_fraction\n");
}

}  // namespace
}  // namespace bansim
