// Sensor-node hardware platform: the composition of MCU, radio, ADC,
// biopotential ASIC and hardware timer described in Section 3.1, with a
// consolidated energy view.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "energy/energy_meter.hpp"
#include "hw/adc12.hpp"
#include "hw/mcu.hpp"
#include "hw/params.hpp"
#include "hw/radio_nrf2401.hpp"
#include "hw/sensor_asic.hpp"
#include "hw/timer_unit.hpp"
#include "phy/channel.hpp"
#include "sim/context.hpp"

namespace bansim::hw {

/// One board's energy since t = 0, by component.
struct Joules {
  double mcu{0};
  double radio{0};
  double asic{0};

  [[nodiscard]] double total() const { return mcu + radio + asic; }
};

/// All component parameter sets of one board.
struct BoardParams {
  McuParams mcu;
  RadioParams radio;
  AsicParams asic;
  AdcParams adc;
  phy::PhyConfig phy;
};

class Board {
 public:
  /// `clock_skew` is this node's DCO frequency error (e.g. +1.3e-4).
  Board(sim::SimContext& context, phy::Channel& channel,
        std::string node_name, const BoardParams& params, double clock_skew);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] Mcu& mcu() { return mcu_; }
  [[nodiscard]] RadioNrf2401& radio() { return radio_; }
  [[nodiscard]] const Adc12& adc() const { return adc_; }
  [[nodiscard]] SensorAsic& asic() { return asic_; }
  [[nodiscard]] TimerUnit& timer() { return timer_; }

  /// Each rail's energy at `now`.  This is the "Real" column of the
  /// validation tables: what a bench ammeter on each rail would have
  /// integrated.
  [[nodiscard]] Joules joules(sim::TimePoint now) const;

  /// joules(now) as named rows (mcu, radio, asic) with per-state splits,
  /// for the rendered energy tables.
  [[nodiscard]] std::vector<energy::ComponentEnergy> breakdown(
      sim::TimePoint now) const;

  /// Run-reset: every component back to its just-constructed state (the
  /// ASIC front-end is stateless — constant power from time zero, which
  /// the clock rewind handles).  `clock_skew` replaces the DCO skew, as
  /// the builder re-draws it per run.
  void reset(double clock_skew);

 private:
  std::string name_;
  Mcu mcu_;
  RadioNrf2401 radio_;
  Adc12 adc_;
  SensorAsic asic_;
  TimerUnit timer_;
};

}  // namespace bansim::hw
