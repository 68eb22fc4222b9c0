// Block fragmentation over the small ShockBurst payload.
//
// An EEG sample block (a delta-compressed multi-channel chunk) routinely
// exceeds the radio's 24-byte application payload.  The Fragmenter splits
// a block into numbered fragments with a 3-byte header; the Reassembler at
// the base station rebuilds blocks, tolerating loss (incomplete blocks are
// discarded when a newer block completes) and duplicate delivery (ARQ
// retransmissions).
//
// Fragment layout: | block_id (1B) | frag_index (1B) | frag_count (1B) | data |
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <vector>

#include "net/packet.hpp"

namespace bansim::net {

inline constexpr std::size_t kFragmentHeaderBytes = 3;
static_assert(kMaxPayloadBytes > kFragmentHeaderBytes,
              "a fragment must carry data after its header");

/// Splits `block` into fragments of at most kMaxPayloadBytes (header +
/// chunk), one radio payload each.  A result always holds at least one
/// fragment (an empty block yields one header-only fragment); a block that
/// would need more than 255 fragments returns std::nullopt.
[[nodiscard]] std::optional<std::vector<std::vector<std::uint8_t>>>
fragment_block(std::uint8_t block_id, std::span<const std::uint8_t> block);

/// One reassembled block.
struct ReassembledBlock {
  std::uint8_t block_id{0};
  std::vector<std::uint8_t> data;
};

class Reassembler {
 public:
  /// Feeds one received fragment; returns the completed block when this
  /// fragment was the last missing piece.
  std::optional<ReassembledBlock> feed(std::span<const std::uint8_t> fragment);

  [[nodiscard]] std::uint64_t blocks_completed() const { return completed_; }
  [[nodiscard]] std::uint64_t fragments_accepted() const { return accepted_; }
  [[nodiscard]] std::uint64_t fragments_rejected() const { return rejected_; }
  [[nodiscard]] std::uint64_t duplicates() const { return duplicates_; }
  [[nodiscard]] std::uint64_t blocks_abandoned() const { return abandoned_; }

  /// Stale partials discarded because a recycled block id started a new
  /// cycle on top of them (fragment-count change, conflicting payload for
  /// an already-held index, or age-out).  Each one would previously have
  /// been merged with the new block's fragments and could emit a corrupted
  /// block.
  [[nodiscard]] std::uint64_t stale_discarded() const { return stale_discarded_; }

  /// Blocks currently partially assembled (diagnostics).
  [[nodiscard]] std::size_t pending_blocks() const { return pending_.size(); }

  /// Incomplete blocks older than `keep` completed block ids are dropped;
  /// bounded memory under sustained loss.
  static constexpr std::size_t kMaxPending = 4;

  /// A partial untouched for this many feed() calls is treated as stale
  /// when its block id comes around again: fragments of a live block arrive
  /// within a handful of feeds of each other, while an 8-bit block id only
  /// recycles after ~255 intervening blocks.
  static constexpr std::uint64_t kStaleFeedGap = 64;

 private:
  struct Partial {
    std::vector<std::vector<std::uint8_t>> chunks;  ///< indexed by frag_index
    std::vector<bool> have;                         ///< parallel to chunks
    std::size_t received{0};
    std::uint64_t last_feed{0};  ///< freshness marker (feed sequence number)
  };

  std::map<std::uint8_t, Partial> pending_;
  std::uint64_t completed_{0};
  std::uint64_t accepted_{0};
  std::uint64_t rejected_{0};
  std::uint64_t duplicates_{0};
  std::uint64_t abandoned_{0};
  std::uint64_t stale_discarded_{0};
  std::uint64_t feed_seq_{0};
};

}  // namespace bansim::net
