// R-peak detection application (Section 5.2).
//
// Samples every channel at 200 Hz, runs the streaming R-peak detector per
// sample, and transmits a small event packet only when a beat is found —
// trading a little extra MCU work for a large reduction in radio load.
// The event payload carries the paper's "N samples ago" value so the base
// station can reconstruct the beat instant (N * 5 ms before arrival).
#pragma once

#include <cstdint>
#include <vector>

#include "apps/rpeak_detector.hpp"
#include "apps/staged_codes.hpp"
#include "mac/mac_base.hpp"
#include "os/node_os.hpp"
#include "sim/simulator.hpp"

namespace bansim::apps {

struct RpeakConfig {
  double sample_rate_hz{200.0};  ///< fixed by the algorithm (paper: 200 Hz)
  std::uint32_t channels{2};
};

/// Event payload layout of a beat packet.
struct BeatEvent {
  std::uint8_t channel{0};
  std::uint16_t samples_ago{0};
  std::uint16_t beat_number{0};

  [[nodiscard]] std::vector<std::uint8_t> serialize() const;
  [[nodiscard]] static BeatEvent deserialize(
      const std::vector<std::uint8_t>& bytes);
};

class RpeakApp {
 public:
  RpeakApp(sim::Simulator& simulator, os::NodeOs& node_os,
           mac::NodeMacBase& mac, const RpeakConfig& config);

  void start();

  /// Restores freshly-constructed state in place.  Detectors are reset one
  /// by one when the channel count is unchanged (no allocation); a channel
  /// count change rebuilds the vector.
  void reset(const RpeakConfig& config) {
    config_ = config;
    staged_.clear();
    if (detectors_.size() == config.channels) {
      for (RpeakDetector& d : detectors_) d.reset(config.sample_rate_hz);
    } else {
      detectors_.assign(config.channels,
                        RpeakDetector{config.sample_rate_hz});
    }
    samples_ = 0;
    beats_ = 0;
  }

  [[nodiscard]] std::uint64_t samples_acquired() const { return samples_; }
  [[nodiscard]] std::uint64_t beats_reported() const { return beats_; }
  [[nodiscard]] const RpeakConfig& config() const { return config_; }
  [[nodiscard]] const RpeakDetector& detector(std::uint32_t ch) const {
    return detectors_[ch];
  }

 private:
  void on_sample_tick();
  /// The acquisition task one tick posted: one detector step per channel.
  void on_acq_frame();

  sim::Simulator& simulator_;
  os::NodeOs& os_;
  mac::NodeMacBase& mac_;
  RpeakConfig config_;
  StagedCodes staged_;
  std::vector<RpeakDetector> detectors_;
  std::uint64_t samples_{0};
  std::uint64_t beats_{0};
};

}  // namespace bansim::apps
