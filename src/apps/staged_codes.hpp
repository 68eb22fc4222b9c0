// ADC codes read at a sample tick, waiting for the acquisition task that
// tick posted.
//
// A sampling app reads the ASIC in interrupt context (the tick defines the
// sampling instant) and posts one acquisition task per tick; tasks run in
// post order, so each task takes the oldest staged frame.  The buffer
// keeps its capacity, so a warmed app stages and consumes frames without
// allocating.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace bansim::apps {

class StagedCodes {
 public:
  /// Appends one code of the frame being read.
  void push(std::uint16_t code) { codes_.push_back(code); }

  /// The oldest staged frame of `channels` codes.
  [[nodiscard]] std::span<const std::uint16_t> front(
      std::size_t channels) const {
    return {codes_.data() + head_, channels};
  }

  /// Drops the oldest frame of `channels` codes.
  void pop(std::size_t channels) {
    head_ += channels;
    if (head_ == codes_.size()) clear();
  }

  void clear() {
    codes_.clear();
    head_ = 0;
  }

 private:
  std::vector<std::uint16_t> codes_;
  std::size_t head_{0};
};

}  // namespace bansim::apps
