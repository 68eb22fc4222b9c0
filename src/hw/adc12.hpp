// On-chip 12-bit SAR ADC of the MSP430 (ADC12 block).
//
// The apps read the ASIC front-end inside their sampling task and quantize
// the voltage here.  The converter is powered from the MCU rail and folded
// into its current, as the paper's model does, so only its transfer
// function is modelled.
#pragma once

#include <cstdint>

#include "hw/params.hpp"

namespace bansim::hw {

class Adc12 {
 public:
  explicit Adc12(const AdcParams& params, double vref = 2.5)
      : params_{params}, vref_{vref} {}

  /// Quantizes `volts` to the ADC's code range (clamping).
  [[nodiscard]] std::uint16_t quantize(double volts) const;

 private:
  AdcParams params_;
  double vref_;
};

}  // namespace bansim::hw
