#include "hw/adc12.hpp"

#include <algorithm>
#include <cmath>

namespace bansim::hw {

std::uint16_t Adc12::quantize(double volts) const {
  const auto full_scale = static_cast<double>((1u << params_.resolution_bits) - 1);
  const double clamped = std::clamp(volts, 0.0, vref_);
  return static_cast<std::uint16_t>(std::lround(clamped / vref_ * full_scale));
}

}  // namespace bansim::hw
