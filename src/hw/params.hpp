// Electrical and timing constants of the platform components.
//
// Values come from the paper's Section 3.1/4 (measured currents at 2.8 V)
// and from the public MSP430F149 / nRF2401 datasheets for the second-order
// timing the paper's estimator abstracts away (settling, wake-up, SPI
// clock-in).  Everything is a plain aggregate so experiments can perturb
// individual parameters.
#pragma once

#include <cstdint>

#include "sim/time.hpp"

namespace bansim::hw {

/// TI MSP430F149 microcontroller.
struct McuParams {
  double supply_volts{2.8};
  double active_current_amps{2.0e-3};   ///< measured: 2 mA active @ 2.8 V
  double lpm_current_amps{0.66e-3};     ///< measured: 0.66 mA in power-saving
  double lpm3_current_amps{2.0e-6};     ///< datasheet LPM3 (unused by the apps)
  double lpm4_current_amps{0.2e-6};     ///< datasheet LPM4 (unused by the apps)
  double cpu_hz{8.0e6};                 ///< "maximum speed" per Section 5.1
  sim::Duration wakeup_latency{sim::Duration::microseconds(6)};  ///< 6 us
  /// Extra cycles a real interrupt costs beyond the handler body
  /// (hardware entry 6 + RETI 5 on MSP430); the estimator ignores these.
  std::uint32_t isr_overhead_cycles{11};
  /// DCO frequency tolerance bound; each node draws its skew uniformly in
  /// [-tolerance, +tolerance].  A calibrated MSP430 DCO holds ~0.2 % over
  /// the operating envelope.  Drives TDMA guard-time requirements.
  double clock_tolerance{2.0e-3};
};

/// Nordic nRF2401 2.4 GHz transceiver, ShockBurst mode.
struct RadioParams {
  double supply_volts{2.8};
  double rx_current_amps{24.82e-3};   ///< measured @ 2.8 V
  double tx_current_amps{17.54e-3};   ///< measured @ 2.8 V (-5 dBm: 10.5 mA typ)
  double standby_current_amps{12e-6}; ///< datasheet; below the paper's meter
  double powerdown_current_amps{1e-6};
  /// Current while the MCU clocks bytes in/out of the ShockBurst FIFO.
  double clockin_current_amps{0.5e-3};
  sim::Duration settle_time{sim::Duration::microseconds(202)};  ///< Tsby->on
  sim::Duration powerup_time{sim::Duration::milliseconds(3)};   ///< Tpd->sby
  double spi_rate_bps{1.0e6};  ///< FIFO clock-in/out rate (<= 1 Mbps)
};

/// 25-channel biopotential ASIC (EEG/ECG front-end).
struct AsicParams {
  double supply_volts{3.0};
  double power_watts{10.5e-3};  ///< constant 10.5 mW @ 3.0 V (Section 5)
  std::uint32_t channels{25};
};

/// On-chip 12-bit SAR ADC of the MSP430.
struct AdcParams {
  std::uint32_t resolution_bits{12};
};

}  // namespace bansim::hw
