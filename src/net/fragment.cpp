#include "net/fragment.hpp"

#include <algorithm>

namespace bansim::net {

std::optional<std::vector<std::vector<std::uint8_t>>> fragment_block(
    std::uint8_t block_id, std::span<const std::uint8_t> block) {
  const std::size_t chunk = kMaxPayloadBytes - kFragmentHeaderBytes;
  const std::size_t count =
      block.empty() ? 1 : (block.size() + chunk - 1) / chunk;
  if (count > 255) return std::nullopt;

  std::vector<std::vector<std::uint8_t>> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t begin = i * chunk;
    const std::size_t end = std::min(block.size(), begin + chunk);
    std::vector<std::uint8_t> fragment;
    fragment.reserve(kFragmentHeaderBytes + (end - begin));
    fragment.push_back(block_id);
    fragment.push_back(static_cast<std::uint8_t>(i));
    fragment.push_back(static_cast<std::uint8_t>(count));
    fragment.insert(fragment.end(), block.begin() + static_cast<std::ptrdiff_t>(begin),
                    block.begin() + static_cast<std::ptrdiff_t>(end));
    out.push_back(std::move(fragment));
  }
  return out;
}

std::optional<ReassembledBlock> Reassembler::feed(
    std::span<const std::uint8_t> fragment) {
  if (fragment.size() < kFragmentHeaderBytes) {
    ++rejected_;
    return std::nullopt;
  }
  const std::uint8_t block_id = fragment[0];
  const std::uint8_t index = fragment[1];
  const std::uint8_t count = fragment[2];
  if (count == 0 || index >= count) {
    ++rejected_;
    return std::nullopt;
  }
  const auto payload = fragment.subspan(kFragmentHeaderBytes);

  ++feed_seq_;
  Partial& partial = pending_[block_id];
  bool restart = partial.chunks.size() != count;
  if (!restart) {
    // Same id and same fragment count: this may still be a recycled block
    // id landing on a stale partial, which a bare size check cannot see.
    // Two independent freshness signals catch it: the partial has been idle
    // far longer than any live block's fragments are ever spread apart, or
    // the new fragment disagrees with a chunk we already hold.
    const bool aged = feed_seq_ - partial.last_feed > kStaleFeedGap;
    const bool conflict =
        partial.have[index] &&
        !std::equal(partial.chunks[index].begin(), partial.chunks[index].end(),
                    payload.begin(), payload.end());
    restart = aged || conflict;
  }
  if (restart) {
    if (partial.received > 0) ++stale_discarded_;
    partial = Partial{};
    partial.chunks.resize(count);
    partial.have.assign(count, false);
  }
  partial.last_feed = feed_seq_;
  if (partial.have[index]) {
    ++duplicates_;
    return std::nullopt;
  }
  partial.have[index] = true;
  partial.chunks[index].assign(payload.begin(), payload.end());
  ++partial.received;
  ++accepted_;

  if (partial.received == partial.chunks.size()) {
    ReassembledBlock block;
    block.block_id = block_id;
    for (const auto& piece : partial.chunks) {
      block.data.insert(block.data.end(), piece.begin(), piece.end());
    }
    pending_.erase(block_id);
    ++completed_;
    return block;
  }

  // Bound memory: too many concurrent partials means sustained loss; drop
  // the oldest (smallest id distance heuristics are overkill here).
  while (pending_.size() > kMaxPending) {
    pending_.erase(pending_.begin());
    ++abandoned_;
  }
  return std::nullopt;
}

}  // namespace bansim::net
