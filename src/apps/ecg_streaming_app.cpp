#include "apps/ecg_streaming_app.hpp"

namespace bansim::apps {

using namespace os::literals;

namespace {

/// Appends two 12-bit codes as three bytes.
void pack12_pair(std::uint16_t a, std::uint16_t b,
                 std::vector<std::uint8_t>& out) {
  a &= 0x0FFF;
  b &= 0x0FFF;
  out.push_back(static_cast<std::uint8_t>(a >> 4));
  out.push_back(static_cast<std::uint8_t>(((a & 0x0F) << 4) | (b >> 8)));
  out.push_back(static_cast<std::uint8_t>(b & 0xFF));
}

}  // namespace

std::vector<std::uint8_t> pack12(const std::vector<std::uint16_t>& codes) {
  std::vector<std::uint8_t> out;
  out.reserve(codes.size() * 3 / 2 + 2);
  for (std::size_t i = 0; i + 1 < codes.size(); i += 2) {
    pack12_pair(codes[i], codes[i + 1], out);
  }
  if (codes.size() % 2 != 0) {
    const std::uint16_t a = codes.back() & 0x0FFF;
    out.push_back(static_cast<std::uint8_t>(a >> 4));
    out.push_back(static_cast<std::uint8_t>((a & 0x0F) << 4));
  }
  return out;
}

std::vector<std::uint16_t> unpack12(const std::vector<std::uint8_t>& bytes) {
  std::vector<std::uint16_t> out;
  out.reserve(bytes.size() * 2 / 3 + 1);
  std::size_t i = 0;
  while (i + 2 < bytes.size() + 1) {
    if (i + 1 >= bytes.size()) break;
    const std::uint16_t a = static_cast<std::uint16_t>(
        (bytes[i] << 4) | (bytes[i + 1] >> 4));
    out.push_back(a);
    if (i + 2 < bytes.size()) {
      const std::uint16_t b = static_cast<std::uint16_t>(
          ((bytes[i + 1] & 0x0F) << 8) | bytes[i + 2]);
      out.push_back(b);
    }
    i += 3;
  }
  return out;
}

EcgStreamingApp::EcgStreamingApp(sim::Simulator& simulator, os::NodeOs& node_os,
                                 mac::NodeMacBase& mac,
                                 const StreamingConfig& config)
    : simulator_{simulator}, os_{node_os}, mac_{mac}, config_{config} {}

void EcgStreamingApp::start() {
  const auto period =
      sim::Duration::from_seconds(1.0 / config_.sample_rate_hz);
  os_.timers().start_periodic("app.sample"_task, period,
                              [this] { on_sample_tick(); });
}

void EcgStreamingApp::on_sample_tick() {
  // Read the ASIC frame now (interrupt context defines the sampling
  // instant), then charge the acquisition cost as a posted task whose
  // cycle count depends on the data, as the real readout loop does.
  auto& board = os_.board();
  std::uint64_t cycles = kFrameReadCycles;
  for (std::uint32_t ch = 0; ch < config_.channels; ++ch) {
    const std::uint16_t code =
        board.adc().quantize(board.asic().read_channel(ch));
    staged_.push(code);
    cycles += kKeepChannelCycles + (code & 0x3F);
  }
  ++samples_;
  os_.scheduler().post("app.acq_frame"_task, cycles,
                       [this] { on_acq_frame(); });
}

void EcgStreamingApp::on_acq_frame() {
  const auto codes = staged_.front(config_.channels);
  pending_codes_.insert(pending_codes_.end(), codes.begin(), codes.end());
  staged_.pop(config_.channels);
  if (pending_codes_.size() >= 2) {
    // Pack in pairs as they become available.
    pack12_pair(pending_codes_[0], pending_codes_[1], buffer_);
    pending_codes_.erase(pending_codes_.begin(), pending_codes_.begin() + 2);
  }
  if (buffer_.size() >= config_.payload_bytes) {
    const auto end =
        buffer_.begin() + static_cast<std::ptrdiff_t>(config_.payload_bytes);
    std::vector<std::uint8_t> payload(buffer_.begin(), end);
    buffer_.erase(buffer_.begin(), end);
    const std::uint64_t pack_cycles = 200 + 4 * payload.size();
    os_.scheduler().post("app.pack_payload"_task, pack_cycles,
                         [this, payload = std::move(payload)]() mutable {
                           mac_.queue_payload(std::move(payload));
                           ++payloads_;
                         });
  }
}

}  // namespace bansim::apps
