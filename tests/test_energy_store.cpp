// hw::EnergyStore unit coverage (battery/capacitor arithmetic, harvest
// profiles, depletion edges, lifetime projection with the battery's
// Peukert derate) plus fault::StorageDriver integration: live
// depletion crashing nodes through the MAC, capacitor reboot hysteresis,
// bit-identical energies when the store never depletes, and replay
// determinism of a full storage campaign.
#include <gtest/gtest.h>

#include <cmath>

#include "core/bansim.hpp"
#include "fault/storage_driver.hpp"
#include "hw/energy_store.hpp"

namespace bansim {
namespace {

using sim::Duration;
using sim::TimePoint;

TimePoint at_ms(double ms) {
  return TimePoint::zero() + Duration::from_milliseconds(ms);
}

// ---------------------------------------------------------------------------
// EnergyStore arithmetic
// ---------------------------------------------------------------------------

TEST(EnergyStore, BatteryCapacityAndCutoffMatchTheOcvModel) {
  hw::StorageParams params;
  params.enabled = true;
  const hw::EnergyStore store{params};
  // 160 mAh * 3.0 V nominal = 1728 J.
  EXPECT_DOUBLE_EQ(store.capacity_joules(), 1728.0);
  EXPECT_DOUBLE_EQ(store.remaining_joules(), 1728.0);
  EXPECT_DOUBLE_EQ(store.state_of_charge(), 1.0);
  // Full cell sits at the full-charge OCV.
  EXPECT_DOUBLE_EQ(store.volts(), 4.2);
  EXPECT_FALSE(store.depleted());
}

TEST(EnergyStore, DrawPastDryKeepsTheBooksClosed) {
  hw::StorageParams params;
  params.enabled = true;
  params.battery.capacity_mah = 1.0;
  params.battery.nominal_volts = 2.0;  // capacity = 7.2 J
  hw::EnergyStore store{params};
  EXPECT_DOUBLE_EQ(store.draw(5.0), 5.0);
  // Only 2.2 J physically remain; the request is still fully accounted.
  EXPECT_DOUBLE_EQ(store.draw(5.0), 2.2);
  EXPECT_DOUBLE_EQ(store.total_draw_requested(), 10.0);
  EXPECT_DOUBLE_EQ(store.total_drawn(), 7.2);
  EXPECT_DOUBLE_EQ(store.remaining_joules(), 0.0);
  EXPECT_DOUBLE_EQ(store.initial_joules() + store.total_stored() -
                       store.total_drawn(),
                   store.remaining_joules());
  EXPECT_TRUE(store.depleted());
}

TEST(EnergyStore, ChargeSplitsIncomeIntoStoredAndOverflow) {
  hw::StorageParams params;
  params.enabled = true;
  params.battery.capacity_mah = 1.0;
  params.battery.nominal_volts = 2.0;  // capacity = 7.2 J
  hw::EnergyStore store{params};
  store.draw(3.0);
  EXPECT_DOUBLE_EQ(store.charge(5.0), 3.0);  // returns STORED, not income
  EXPECT_DOUBLE_EQ(store.total_income(), 5.0);
  EXPECT_DOUBLE_EQ(store.total_stored(), 3.0);
  EXPECT_DOUBLE_EQ(store.total_overflow(), 2.0);
  EXPECT_DOUBLE_EQ(store.remaining_joules(), 7.2);
  EXPECT_DOUBLE_EQ(store.total_income(),
                   store.total_stored() + store.total_overflow());
}

TEST(EnergyStore, DrawLandingExactlyOnTheCutoffDepletes) {
  hw::StorageParams params;
  params.enabled = true;
  params.battery.capacity_mah = 1.0;
  params.battery.nominal_volts = 2.0;  // capacity = 7.2 J
  params.battery.full_volts = 4.0;
  params.battery.empty_volts = 3.0;
  params.battery.dead_volts = 2.0;  // cutoff_soc = 1/2 -> cutoff = 3.6 J
  hw::EnergyStore store{params};
  store.draw(3.5);
  EXPECT_FALSE(store.depleted());  // 3.7 J > 3.6 J cutoff
  store.draw(0.1);                 // lands exactly on the cutoff
  EXPECT_DOUBLE_EQ(store.remaining_joules(), 3.6);
  EXPECT_TRUE(store.depleted());
  // Battery depletion is permanent even if income lifts it back up.
  store.charge(2.0);
  EXPECT_FALSE(store.depleted());
  EXPECT_FALSE(store.can_power_on());
}

TEST(EnergyStore, ZeroCapacitanceCapacitorNeverPowersOn) {
  hw::StorageParams params;
  params.enabled = true;
  params.kind = hw::StorageKind::kCapacitor;
  params.capacitor.capacitance_farads = 0.0;
  hw::EnergyStore store{params};
  EXPECT_DOUBLE_EQ(store.capacity_joules(), 0.0);
  EXPECT_TRUE(store.depleted());
  EXPECT_DOUBLE_EQ(store.volts(), 0.0);
  EXPECT_FALSE(store.can_power_on());
  store.charge(1.0);  // all overflow: nothing to store it in
  EXPECT_DOUBLE_EQ(store.total_overflow(), 1.0);
  EXPECT_FALSE(store.can_power_on());
}

TEST(EnergyStore, CapacitorTurnOnHysteresis) {
  hw::StorageParams params;
  params.enabled = true;
  params.kind = hw::StorageKind::kCapacitor;
  params.capacitor.capacitance_farads = 0.1;
  params.capacitor.full_volts = 5.0;    // capacity = 1.25 J
  params.capacitor.turnoff_volts = 2.0; // cutoff   = 0.2 J
  params.capacitor.turnon_volts = 3.0;  // boot     = 0.45 J
  hw::EnergyStore store{params};
  EXPECT_DOUBLE_EQ(store.capacity_joules(), 1.25);
  store.draw(1.25 - 0.2);
  EXPECT_TRUE(store.depleted());
  EXPECT_DOUBLE_EQ(store.volts(), 2.0);
  // Recovered past turnoff but short of turnon: still may not boot.
  store.charge(0.2);  // 0.4 J < 0.45 J turn-on level
  EXPECT_FALSE(store.depleted());
  EXPECT_FALSE(store.can_power_on());
  store.charge(0.06);  // 0.46 J clears turnon
  EXPECT_TRUE(store.can_power_on());
  EXPECT_NEAR(store.volts(), 3.0, 0.05);
}

// ---------------------------------------------------------------------------
// Harvest profiles
// ---------------------------------------------------------------------------

TEST(HarvestProfile, ConstantIsExactAndClampedAtZero) {
  hw::HarvestParams h;
  h.enabled = true;
  h.watts = 0.002;
  EXPECT_DOUBLE_EQ(h.energy_between(at_ms(0), at_ms(2500)), 0.005);
  EXPECT_DOUBLE_EQ(h.energy_between(at_ms(2500), at_ms(0)), 0.0);
  EXPECT_DOUBLE_EQ(h.average_watts(), 0.002);
  h.watts = -1.0;  // a "source" that only sinks contributes nothing
  EXPECT_DOUBLE_EQ(h.power_at(at_ms(10)), 0.0);
  EXPECT_DOUBLE_EQ(h.energy_between(at_ms(0), at_ms(1000)), 0.0);
}

TEST(HarvestProfile, SquareIntegralIsExactPiecewise) {
  hw::HarvestParams h;
  h.enabled = true;
  h.profile = hw::HarvestParams::Profile::kSquare;
  h.watts = 2.0;
  h.floor_watts = 0.5;
  h.period = Duration::seconds(1);
  h.duty = 0.25;  // per period: 2*0.25 + 0.5*0.75 = 0.875 J
  EXPECT_DOUBLE_EQ(h.energy_between(at_ms(0), at_ms(4000)), 3.5);
  EXPECT_DOUBLE_EQ(h.average_watts(), 0.875);
  // Partial pieces: [0.1 s, 0.6 s] = 0.15 s on + 0.35 s floor.
  EXPECT_DOUBLE_EQ(h.energy_between(at_ms(100), at_ms(600)),
                   2.0 * 0.15 + 0.5 * 0.35);
  // A window straddling the on/off edge and a period boundary.
  EXPECT_DOUBLE_EQ(h.energy_between(at_ms(900), at_ms(1100)),
                   0.5 * 0.1 + 2.0 * 0.1);
  // Phase shifts the burst, not the per-period energy.
  h.phase = Duration::from_milliseconds(125);
  EXPECT_DOUBLE_EQ(h.energy_between(at_ms(0), at_ms(4000)), 3.5);
}

TEST(HarvestProfile, SineSwingCrossingZeroClampsTheNegativeLobe) {
  hw::HarvestParams h;
  h.enabled = true;
  h.profile = hw::HarvestParams::Profile::kSine;
  h.watts = 1.0;
  h.floor_watts = 0.0;  // swing is [-1, 1]: negative half clamps to 0
  h.period = Duration::seconds(1);
  EXPECT_DOUBLE_EQ(h.power_at(at_ms(250)), 1.0);   // positive peak
  EXPECT_DOUBLE_EQ(h.power_at(at_ms(750)), 0.0);   // clamped trough
  // Mean of the clamped half-sine is 1/pi.
  EXPECT_NEAR(h.average_watts(), 1.0 / M_PI, 2e-3);
  // The negative lobe contributes nothing.
  EXPECT_NEAR(h.energy_between(at_ms(500), at_ms(1000)), 0.0, 1e-12);
  EXPECT_NEAR(h.energy_between(at_ms(0), at_ms(500)), 1.0 / M_PI, 2e-3);
  // A floor clear of the swing makes the profile effectively constant.
  h.floor_watts = 2.0;
  EXPECT_DOUBLE_EQ(h.average_watts(), 2.0);
}

TEST(HarvestProfile, IntegralIsAdditiveOverAdjacentWindows) {
  hw::HarvestParams h;
  h.enabled = true;
  h.profile = hw::HarvestParams::Profile::kSquare;
  h.watts = 0.05;
  h.floor_watts = 0.001;
  h.period = Duration::from_milliseconds(700);
  h.duty = 0.3;
  const double whole = h.energy_between(at_ms(0), at_ms(1000));
  const double split = h.energy_between(at_ms(0), at_ms(333)) +
                       h.energy_between(at_ms(333), at_ms(1000));
  EXPECT_NEAR(whole, split, 1e-15);
}

TEST(ProjectedHours, CapacitorIsLinearAndHarvestOffsetsTheLoad) {
  hw::StorageParams params;
  params.enabled = true;
  params.kind = hw::StorageKind::kCapacitor;
  params.capacitor.capacitance_farads = 0.1;
  params.capacitor.full_volts = 5.0;
  params.capacitor.turnoff_volts = 2.0;
  // Usable = 1.25 - 0.2 = 1.05 J; at 1.05 mW net that is 1000 s.
  EXPECT_DOUBLE_EQ(hw::projected_hours(params, 1.05e-3, 0.0),
                   1000.0 / 3600.0);
  EXPECT_DOUBLE_EQ(hw::projected_hours(params, 2.05e-3, 1.0e-3),
                   1000.0 / 3600.0);
  EXPECT_TRUE(std::isinf(hw::projected_hours(params, 1.0e-3, 2.0e-3)));
}

// Battery-kind projection.  A 100 mAh, 3 V ideal cell (1080 J); the
// default OCV window (full 4.2 V, cutoff 3.0 V, dead 2.5 V) leaves the
// 5/17 below the cutoff unusable.
hw::StorageParams small_cell() {
  hw::StorageParams params;
  params.enabled = true;
  params.battery.capacity_mah = 100.0;
  params.battery.nominal_volts = 3.0;
  params.battery.peukert_exponent = 1.0;  // ideal cell unless a test opts in
  return params;
}

constexpr double kUsableSoc = 12.0 / 17.0;

double hours_at(const hw::StorageParams& params, double watts) {
  return hw::projected_hours(params, watts, 0.0);
}

double one_c_watts(const hw::StorageParams& params) {
  return hw::EnergyStore{params}.capacity_joules() / 3600.0;
}

TEST(Battery, HoursAtIdealCell) {
  const hw::StorageParams params = small_cell();
  // Usable 1080 * 12/17 J at 10 mW = 360/17 h (~21.2 h): the unusable
  // tail below the 3.0 V cutoff never counts toward lifetime.
  EXPECT_NEAR(hours_at(params, 0.010), 360.0 / 17.0, 1e-9);
  EXPECT_TRUE(std::isinf(hours_at(params, 0.0)));
  EXPECT_TRUE(std::isinf(hours_at(params, -0.001)));
}

TEST(Battery, PeukertDeratesOnlyAboveTheRatedRate) {
  hw::StorageParams params = small_cell();
  params.battery.peukert_exponent = 1.1;
  const double one_c = one_c_watts(params);
  const double at_rated = hours_at(params, one_c);
  // At the rated 1C the derate is 1: identical to the ideal cell.
  EXPECT_NEAR(at_rated, kUsableSoc, 1e-9);
  // Above rated the usable charge shrinks: strictly worse than linear.
  EXPECT_LT(hours_at(params, 2 * one_c), at_rated / 2);
  // Below rated there is NO stretching: the naive formula would let the
  // effective capacity exceed the remaining charge without bound here.
  EXPECT_NEAR(hours_at(params, 0.5 * one_c), 2 * at_rated, 1e-9);
  EXPECT_NEAR(hours_at(params, 0.01 * one_c), 100 * at_rated, 1e-6);
}

TEST(Battery, EffectiveChargeNeverExceedsRemaining) {
  hw::StorageParams params = small_cell();
  params.battery.peukert_exponent = 1.2;
  const hw::EnergyStore full{params};
  for (const double watts : {1e-6, 1e-4, 1e-2, 0.3, 1.0, 10.0}) {
    const double delivered = hours_at(params, watts) * watts * 3600.0;
    EXPECT_LE(delivered, full.usable_joules() * (1 + 1e-12)) << watts;
  }
  EXPECT_LT(full.usable_joules(), full.remaining_joules());
}

TEST(Battery, RatedRateShiftsTheDeratingKnee) {
  hw::StorageParams params = small_cell();
  params.battery.peukert_exponent = 1.1;
  params.battery.rated_c = 2.0;  // cell rated at a 2C discharge
  const double one_c = one_c_watts(params);
  // 2C is now the rated point: no derating there or below.
  EXPECT_NEAR(hours_at(params, 2 * one_c), kUsableSoc / 2, 1e-9);
  EXPECT_NEAR(hours_at(params, one_c), kUsableSoc, 1e-9);
  EXPECT_LT(hours_at(params, 4 * one_c), kUsableSoc / 4);
}

TEST(Lifetime, HarvestingExtendsLife) {
  const hw::StorageParams params = small_cell();
  const double without = hw::projected_hours(params, 0.010, 0.0);
  const double with = hw::projected_hours(params, 0.010, 0.004);
  EXPECT_GT(with, without);
  EXPECT_TRUE(std::isinf(hw::projected_hours(params, 0.010, 0.010)));
}

TEST(Lifetime, PaperScaleSanity) {
  // The streaming node's validated power (~600 mJ / 60 s + 10.5 mW ASIC)
  // on the default 160 mAh cell: around a day of monitoring.
  hw::StorageParams params;
  params.enabled = true;
  const double hours = hw::projected_hours(params, 0.0100 + 0.0105, 0.0);
  EXPECT_GT(hours, 15.0);
  EXPECT_LT(hours, 40.0);
}

TEST(ProjectedHours, WardCellAtADeratingLoadIsExact) {
  // The perfbench ward cell (0.2 mAh = 2.16 J, Peukert 1.1) under a
  // 20.5 mW node, ~34C: deep in the derated regime, pinned bit for bit.
  hw::StorageParams params;
  params.enabled = true;
  params.battery.capacity_mah = 0.2;
  params.battery.peukert_exponent = 1.1;
  EXPECT_EQ(hw::projected_hours(params, 0.0205, 0.0), 0.014513409625399338);
  EXPECT_EQ(hw::projected_hours(params, 0.0205, 0.004), 0.0184274975213694);
}

TEST(StorageParams, ValidateCatchesIllFormedSections) {
  hw::StorageParams params;  // disabled: anything goes
  params.battery.capacity_mah = -1.0;
  EXPECT_EQ(params.validate(), "");
  params.enabled = true;
  EXPECT_NE(params.validate(), "");
  params.battery.capacity_mah = 160.0;
  EXPECT_EQ(params.validate(), "");
  params.check = Duration::zero();
  EXPECT_NE(params.validate(), "");
  params.check = Duration::milliseconds(100);
  params.kind = hw::StorageKind::kCapacitor;
  params.capacitor.turnon_volts = 1.0;  // below turnoff
  EXPECT_NE(params.validate(), "");
  params.capacitor.turnon_volts = 3.0;
  params.harvest.enabled = true;
  params.harvest.profile = hw::HarvestParams::Profile::kSine;
  params.harvest.period = Duration::zero();
  EXPECT_NE(params.validate(), "");
}

// ---------------------------------------------------------------------------
// StorageDriver integration (live cell)
// ---------------------------------------------------------------------------

core::BanConfig small_ward() {
  core::BanConfig config;
  config.num_nodes = 2;
  config.tdma = mac::TdmaConfig::static_plan(Duration::milliseconds(30), 5);
  config.app = core::AppKind::kEcgStreaming;
  config.streaming.sample_rate_hz = 205;
  config.seed = 7;
  return config;
}

std::vector<energy::NodeEnergy> run_snapshot(const core::BanConfig& config,
                                             int seconds) {
  core::BanNetwork network{config};
  network.start();
  network.run_until(TimePoint::zero() + Duration::seconds(seconds));
  return network.energy_snapshot();
}

TEST(StorageDriver, UndepletedStoreLeavesEnergiesBitIdentical) {
  const core::BanConfig off = small_ward();
  core::BanConfig on = small_ward();
  on.storage.enabled = true;  // default 160 mAh cell: never dents in 5 s
  on.storage.check = Duration::milliseconds(50);

  const auto a = run_snapshot(off, 5);
  const auto b = run_snapshot(on, 5);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].total_joules(), b[i].total_joules()) << a[i].node;
    ASSERT_EQ(a[i].components.size(), b[i].components.size());
    for (std::size_t c = 0; c < a[i].components.size(); ++c) {
      EXPECT_EQ(a[i].components[c].joules, b[i].components[c].joules)
          << a[i].node << "/" << a[i].components[c].component;
    }
  }
}

// The storage driver, the fault injector and the run executor read
// Board::joules; the rendered energy tables read Board::breakdown.  The two
// must agree bit for bit, on every device, at any instant.
TEST(Board, JoulesTotalIsTheBreakdownSumBitForBit) {
  core::BanConfig config = small_ward();
  config.storage.enabled = true;
  config.storage.check = Duration::milliseconds(50);
  core::BanNetwork network{config};
  network.start();
  for (const std::int64_t us : {0, 37'123, 1'000'000, 2'503'001, 5'000'000}) {
    const TimePoint t = TimePoint::zero() + Duration::microseconds(us);
    network.run_until(t);
    for (std::size_t i = 0; i <= network.num_nodes(); ++i) {
      const hw::Board& board = i < network.num_nodes()
                                   ? network.node(i).board()
                                   : network.base_station_board();
      double sum = 0.0;
      for (const auto& row : board.breakdown(t)) sum += row.joules;
      EXPECT_EQ(board.joules(t).total(), sum)
          << board.name() << " at " << us << " us";
    }
  }
}

TEST(StorageDriver, BatteryDepletionCrashesTheNodeForGood) {
  core::BanConfig config = small_ward();
  config.storage.enabled = true;
  // ~0.11 J total, ~76 mJ usable: a streaming node (~20 mW) dies in a few
  // seconds and must stay down.
  config.storage.battery.capacity_mah = 0.01;

  core::BanNetwork network{config};
  network.start();
  network.run_until(TimePoint::zero() + Duration::seconds(15));

  const fault::StorageDriver* driver = network.storage_driver();
  ASSERT_NE(driver, nullptr);
  EXPECT_EQ(driver->node_count(), 2u);
  EXPECT_EQ(driver->stats().depletion_deaths, 2u);
  EXPECT_EQ(driver->stats().recharge_reboots, 0u);
  EXPECT_LT(driver->first_death(), TimePoint::max());

  for (const fault::NodeStorageStatus& s : driver->status()) {
    EXPECT_TRUE(s.dead) << s.node;
    EXPECT_EQ(s.deaths, 1u) << s.node;
    EXPECT_GT(s.died_at, TimePoint::zero()) << s.node;
    // Books close even though leakage keeps metering past dry.
    EXPECT_DOUBLE_EQ(s.requested_joules, s.sampled_joules - s.baseline_joules)
        << s.node;
    EXPECT_LE(s.drawn_joules, s.requested_joules) << s.node;
  }
  for (std::size_t i = 0; i < network.num_nodes(); ++i) {
    EXPECT_EQ(network.node(i).mac().stats().crashes, 1u);
    EXPECT_EQ(network.node(i).mac().stats().reboots, 0u);
  }
}

TEST(StorageDriver, CapacitorNodeRebootsOnceHarvestRefillsIt) {
  core::BanConfig config = small_ward();
  config.storage.enabled = true;
  config.storage.kind = hw::StorageKind::kCapacitor;
  config.storage.capacitor.capacitance_farads = 0.005;  // 62.5 mJ full
  config.storage.harvest.enabled = true;
  // Between the dead draw (~10.5 mW of constant ASIC load keeps metering
  // through a crash) and the ~20 mW running draw: drains while up,
  // refills while dark.
  config.storage.harvest.watts = 0.015;

  core::BanNetwork network{config};
  network.start();
  network.run_until(TimePoint::zero() + Duration::seconds(30));

  const fault::StorageDriver* driver = network.storage_driver();
  ASSERT_NE(driver, nullptr);
  // Net drain while running kills the node; the trickle refills the cap
  // past turn-on while it is dark, so it boots and dies again.
  EXPECT_GE(driver->stats().depletion_deaths, 2u);
  EXPECT_GE(driver->stats().recharge_reboots, 1u);
  bool some_node_cycled = false;
  for (std::size_t i = 0; i < network.num_nodes(); ++i) {
    const mac::NodeMacStats& stats = network.node(i).mac().stats();
    // Every reboot answers a crash; at most one crash is still unanswered.
    EXPECT_GE(stats.crashes, stats.reboots);
    EXPECT_LE(stats.crashes, stats.reboots + 1);
    if (stats.reboots >= 1) some_node_cycled = true;
  }
  EXPECT_TRUE(some_node_cycled);
  for (const fault::NodeStorageStatus& s : driver->status()) {
    EXPECT_DOUBLE_EQ(s.income_joules, s.stored_joules + s.overflow_joules)
        << s.node;
  }
}

TEST(StorageDriver, StorageCampaignReplaysBitIdentically) {
  core::BanConfig config = small_ward();
  config.storage.enabled = true;
  config.storage.battery.capacity_mah = 0.015;
  config.storage.harvest.enabled = true;
  config.storage.harvest.profile = hw::HarvestParams::Profile::kSine;
  config.storage.harvest.watts = 0.003;
  config.storage.harvest.floor_watts = 0.001;
  config.storage.harvest.period = Duration::seconds(2);

  auto run_once = [&config] {
    core::BanNetwork network{config};
    network.start();
    network.run_until(TimePoint::zero() + Duration::seconds(12));
    return network.storage_driver()->status();
  };
  const auto a = run_once();
  const auto b = run_once();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].dead, b[i].dead);
    EXPECT_EQ(a[i].deaths, b[i].deaths);
    EXPECT_EQ(a[i].died_at, b[i].died_at);
    EXPECT_EQ(a[i].requested_joules, b[i].requested_joules);
    EXPECT_EQ(a[i].drawn_joules, b[i].drawn_joules);
    EXPECT_EQ(a[i].income_joules, b[i].income_joules);
    EXPECT_EQ(a[i].remaining_joules, b[i].remaining_joules);
  }
}

TEST(StorageDriver, PerNodeOverrideKeepsBenchNodeAlive) {
  core::BanConfig config = small_ward();
  config.storage.enabled = true;
  config.storage.battery.capacity_mah = 0.01;
  config.roster.resize(2);
  config.roster[1].storage = hw::StorageParams{};  // node2 on the bench

  core::BanNetwork network{config};
  network.start();
  network.run_until(TimePoint::zero() + Duration::seconds(15));

  const fault::StorageDriver* driver = network.storage_driver();
  ASSERT_NE(driver, nullptr);
  EXPECT_EQ(driver->node_count(), 1u);  // only node1 registered
  EXPECT_EQ(driver->stats().depletion_deaths, 1u);
  EXPECT_EQ(network.node(0).mac().stats().crashes, 1u);
  EXPECT_EQ(network.node(1).mac().stats().crashes, 0u);
  EXPECT_EQ(network.node(1).energy_store(), nullptr);
}

}  // namespace
}  // namespace bansim
