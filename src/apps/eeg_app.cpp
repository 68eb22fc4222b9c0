#include "apps/eeg_app.hpp"

#include "apps/ecg_streaming_app.hpp"  // frame-read cycle constants

namespace bansim::apps {

using namespace os::literals;

namespace {

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v & 0xFF));
}

}  // namespace

EegApp::EegApp(sim::Simulator& simulator, os::NodeOs& node_os,
               mac::NodeMacBase& mac, const EegAppConfig& config,
               const EegSynthesizer& source)
    : simulator_{simulator}, os_{node_os}, mac_{mac}, config_{config},
      source_{source}, buffers_(config.channels) {}

void EegApp::start() {
  const auto period =
      sim::Duration::from_seconds(1.0 / config_.sample_rate_hz);
  os_.timers().start_periodic("app.sample"_task, period,
                              [this] { on_sample_tick(); });
}

void EegApp::on_sample_tick() {
  auto& board = os_.board();
  std::uint64_t cycles = EcgStreamingApp::kFrameReadCycles;
  for (std::uint32_t ch = 0; ch < config_.channels; ++ch) {
    const std::uint16_t code =
        board.adc().quantize(source_.sample(ch, simulator_.now()));
    staged_.push(code);
    cycles += EcgStreamingApp::kKeepChannelCycles + (code & 0x1F);
  }
  ++samples_;

  os_.scheduler().post("app.acq_frame"_task, cycles, [this] {
    const auto codes = staged_.front(config_.channels);
    for (std::uint32_t ch = 0; ch < config_.channels; ++ch) {
      buffers_[ch].push_back(codes[ch]);
    }
    staged_.pop(config_.channels);
    if (buffers_[0].size() >= config_.block_samples) emit_block();
  });
}

void EegApp::emit_block() {
  // The delta encode of a full block is a real computation on the node;
  // charge ~14 cycles per sample plus fixed overhead.
  const std::uint64_t cycles =
      600 + 14ull * config_.channels * config_.block_samples;
  os_.scheduler().post("app.encode_block"_task, cycles, [this] {
    std::vector<std::uint8_t> block;
    for (std::uint32_t ch = 0; ch < config_.channels; ++ch) {
      const auto stream = delta_encode(
          std::span<const std::uint16_t>(buffers_[ch].data(),
                                         config_.block_samples));
      put_u16(block, static_cast<std::uint16_t>(stream.size()));
      block.insert(block.end(), stream.begin(), stream.end());
      buffers_[ch].erase(buffers_[ch].begin(),
                         buffers_[ch].begin() +
                             static_cast<std::ptrdiff_t>(config_.block_samples));
    }

    // A block fails to fragment only when it needs more than 255 fragments.
    const auto fragments = net::fragment_block(next_block_id_, block);
    if (!fragments ||
        mac_.queue_depth() + fragments->size() > mac_.queue_capacity()) {
      // Radio budget overcommitted: shed the whole block rather than ship
      // a torso the collector cannot reassemble.
      ++blocks_dropped_;
      ++next_block_id_;
      return;
    }
    for (const auto& fragment : *fragments) {
      mac_.queue_payload(fragment);
    }
    ++next_block_id_;
    ++blocks_sent_;
  });
}

void EegCollector::on_payload(std::span<const std::uint8_t> payload) {
  auto block = reassembler_.feed(payload);
  if (!block) return;

  if (recovered_.empty()) recovered_.resize(channels_);
  std::size_t at = 0;
  std::vector<std::vector<std::uint16_t>> decoded(channels_);
  for (std::uint32_t ch = 0; ch < channels_; ++ch) {
    if (at + 2 > block->data.size()) {
      ++decode_failures_;
      return;
    }
    const std::size_t len =
        static_cast<std::size_t>(block->data[at] << 8) | block->data[at + 1];
    at += 2;
    if (at + len > block->data.size()) {
      ++decode_failures_;
      return;
    }
    auto samples = delta_decode(
        std::span<const std::uint8_t>(block->data.data() + at, len));
    if (!samples) {
      ++decode_failures_;
      return;
    }
    decoded[ch] = std::move(*samples);
    at += len;
  }
  for (std::uint32_t ch = 0; ch < channels_; ++ch) {
    recovered_[ch].insert(recovered_[ch].end(), decoded[ch].begin(),
                          decoded[ch].end());
  }
  ++blocks_decoded_;
}

}  // namespace bansim::apps
