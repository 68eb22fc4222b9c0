#include "energy/energy_meter.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "energy/energy_report.hpp"
#include "energy/power_trace.hpp"
#include "sim/rng.hpp"

namespace bansim::energy {
namespace {

using namespace bansim::sim::literals;
using sim::Duration;
using sim::TimePoint;

TimePoint at(std::int64_t ms) {
  return TimePoint::zero() + Duration::milliseconds(ms);
}

EnergyMeter radio_meter() {
  return EnergyMeter{"radio",
                     2.8,
                     {{"off", 1e-6}, {"rx", 24.82e-3}, {"tx", 17.54e-3}}};
}

TEST(EnergyMeter, IntegratesIVT) {
  EnergyMeter m = radio_meter();
  m.transition(1, at(0));   // rx from t=0
  m.transition(0, at(10));  // off at 10 ms
  // E = 24.82 mA * 2.8 V * 10 ms = 0.694960 mJ in rx.
  EXPECT_NEAR(m.energy_in(1, at(10)), 24.82e-3 * 2.8 * 0.010, 1e-12);
  EXPECT_NEAR(m.total_energy(at(10)), m.energy_in(0, at(10)) + m.energy_in(1, at(10)) ,
              1e-15);
}

TEST(EnergyMeter, InProgressStateCountsUpToNow) {
  EnergyMeter m = radio_meter();
  m.transition(2, at(0));
  EXPECT_NEAR(m.energy_in(2, at(5)), 17.54e-3 * 2.8 * 0.005, 1e-12);
  EXPECT_NEAR(m.energy_in(2, at(50)), 17.54e-3 * 2.8 * 0.050, 1e-12);
}

TEST(EnergyMeter, EntriesAndState) {
  EnergyMeter m = radio_meter();
  EXPECT_EQ(m.current_state(), 0);
  m.transition(1, at(1));
  m.transition(2, at(2));
  m.transition(1, at(3));
  EXPECT_EQ(m.current_state(), 1);
  EXPECT_EQ(m.entries(1), 2u);
  EXPECT_EQ(m.entries(2), 1u);
  EXPECT_EQ(m.time_in(1, at(10)), Duration::milliseconds(1 + 7));
}

TEST(EnergyMeter, EnergyConservationProperty) {
  // Sum over states == total for arbitrary transition sequences.
  sim::Rng rng{33};
  EnergyMeter m = radio_meter();
  TimePoint t = at(0);
  for (int i = 0; i < 500; ++i) {
    t += Duration::microseconds(rng.uniform_int(1, 3000));
    m.transition(static_cast<int>(rng.uniform_int(0, 2)), t);
  }
  const TimePoint end = t + 11_ms;
  double sum = 0.0;
  for (int s = 0; s < 3; ++s) sum += m.energy_in(s, end);
  EXPECT_NEAR(sum, m.total_energy(end), 1e-12);
}

TEST(EnergyMeter, OutOfRangeStateFailsLoudly) {
  // A negative or too-large state used to index states_ unchecked —
  // silent UB that would skew the validation tables.  Every
  // state-addressed entry point must throw instead.
  EnergyMeter m = radio_meter();  // 3 states
  EXPECT_THROW(m.transition(3, at(1)), std::out_of_range);
  EXPECT_THROW(m.transition(-1, at(1)), std::out_of_range);
  EXPECT_THROW((void)m.energy_in(3, at(1)), std::out_of_range);
  EXPECT_THROW((void)m.energy_in(-1, at(1)), std::out_of_range);
  EXPECT_THROW((void)m.time_in(3, at(1)), std::out_of_range);
  EXPECT_THROW((void)m.entries(-1), std::out_of_range);
  // The meter is untouched by the rejected calls.
  EXPECT_EQ(m.current_state(), 0);
  EXPECT_DOUBLE_EQ(m.total_energy(at(0)), 0.0);
  // Legal boundary states still work.
  m.transition(2, at(1));
  EXPECT_EQ(m.current_state(), 2);
}

TEST(NodeEnergy, ComponentLookup) {
  NodeEnergy ne;
  ne.node = "node1";
  ne.components = {{"mcu", 0.001, {}}, {"radio", 0.002, {}}};
  EXPECT_DOUBLE_EQ(ne.component_joules("radio"), 0.002);
  EXPECT_DOUBLE_EQ(ne.component_joules("missing"), 0.0);
  EXPECT_DOUBLE_EQ(ne.total_joules(), 0.003);
}

TEST(EnergyReport, TableAndCsvRender) {
  NodeEnergy ne;
  ne.node = "node1";
  ne.components = {{"mcu", 0.001, {{"active", 0.0004}, {"lpm", 0.0006}}}};
  const std::string table = render_energy_table({ne});
  EXPECT_NE(table.find("node1"), std::string::npos);
  EXPECT_NE(table.find("mcu"), std::string::npos);
  EXPECT_NE(table.find("TOTAL"), std::string::npos);
}

TEST(ValidationRow, ErrorMath) {
  ValidationRow r{"x", 30, 100.0, 90.0, 50.0, 55.0};
  EXPECT_NEAR(r.radio_error(), 0.10, 1e-12);
  EXPECT_NEAR(r.mcu_error(), 0.10, 1e-12);
}

TEST(ValidationTable, AveragesAndRender) {
  ValidationTable t;
  t.title = "T";
  t.parameter_name = "p";
  t.rows = {{"a", 30, 100, 90, 50, 55}, {"b", 60, 200, 200, 100, 100}};
  EXPECT_NEAR(t.avg_radio_error(), 0.05, 1e-12);
  EXPECT_NEAR(t.avg_mcu_error(), 0.05, 1e-12);
  const std::string s = t.render();
  EXPECT_NE(s.find("Avg err radio: 5.0%"), std::string::npos);
  EXPECT_NE(t.render_csv().find("a,30.0,"), std::string::npos);
}

TEST(PowerTrace, EnergyIntegral) {
  PowerTrace trace;
  trace.step(at(0), 2.0);   // 2 W for 10 ms = 20 mJ
  trace.step(at(10), 1.0);  // 1 W for 10 ms = 10 mJ
  EXPECT_NEAR(trace.energy(at(0), at(20)), 0.030, 1e-12);
  EXPECT_NEAR(trace.energy(at(5), at(15)), 0.015, 1e-12);
  EXPECT_DOUBLE_EQ(trace.energy(at(20), at(10)), 0.0);
}

}  // namespace
}  // namespace bansim::energy
