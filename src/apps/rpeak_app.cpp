#include "apps/rpeak_app.hpp"

#include "apps/ecg_streaming_app.hpp"  // kFrameReadCycles / kKeepChannelCycles

namespace bansim::apps {

using namespace os::literals;

std::vector<std::uint8_t> BeatEvent::serialize() const {
  return {channel,
          static_cast<std::uint8_t>(samples_ago >> 8),
          static_cast<std::uint8_t>(samples_ago & 0xFF),
          static_cast<std::uint8_t>(beat_number >> 8),
          static_cast<std::uint8_t>(beat_number & 0xFF)};
}

BeatEvent BeatEvent::deserialize(const std::vector<std::uint8_t>& bytes) {
  BeatEvent e;
  if (bytes.size() < 5) return e;
  e.channel = bytes[0];
  e.samples_ago = static_cast<std::uint16_t>((bytes[1] << 8) | bytes[2]);
  e.beat_number = static_cast<std::uint16_t>((bytes[3] << 8) | bytes[4]);
  return e;
}

RpeakApp::RpeakApp(sim::Simulator& simulator, os::NodeOs& node_os,
                   mac::NodeMacBase& mac, const RpeakConfig& config)
    : simulator_{simulator}, os_{node_os}, mac_{mac}, config_{config},
      detectors_(config.channels, RpeakDetector{config.sample_rate_hz}) {}

void RpeakApp::start() {
  const auto period =
      sim::Duration::from_seconds(1.0 / config_.sample_rate_hz);
  os_.timers().start_periodic("app.sample"_task, period,
                              [this] { on_sample_tick(); });
}

void RpeakApp::on_sample_tick() {
  auto& board = os_.board();
  std::uint64_t acq_cycles = EcgStreamingApp::kFrameReadCycles;
  for (std::uint32_t ch = 0; ch < config_.channels; ++ch) {
    const std::uint16_t code =
        board.adc().quantize(board.asic().read_channel(ch));
    staged_.push(code);
    acq_cycles += EcgStreamingApp::kKeepChannelCycles + (code & 0x3F);
  }
  ++samples_;
  os_.scheduler().post("app.acq_frame"_task, acq_cycles,
                       [this] { on_acq_frame(); });
}

void RpeakApp::on_acq_frame() {
  const auto codes = staged_.front(config_.channels);
  for (std::uint32_t ch = 0; ch < config_.channels; ++ch) {
    const RpeakResult r = detectors_[ch].step(codes[ch]);
    if (r.beat_samples_ago == 0) {
      os_.scheduler().post("app.rpeak_step"_task, r.work_cycles);
      continue;
    }
    os_.scheduler().post(
        "app.rpeak_step"_task, r.work_cycles,
        [this, ch, ago = r.beat_samples_ago] {
          BeatEvent event;
          event.channel = static_cast<std::uint8_t>(ch);
          event.samples_ago = static_cast<std::uint16_t>(ago);
          event.beat_number = static_cast<std::uint16_t>(++beats_);
          mac_.queue_payload(event.serialize());
        });
  }
  staged_.pop(config_.channels);
}

}  // namespace bansim::apps
