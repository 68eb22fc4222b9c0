#include <gtest/gtest.h>

#include <vector>

#include "apps/delta_codec.hpp"
#include "net/fragment.hpp"
#include "sim/rng.hpp"

namespace bansim {
namespace {

using apps::delta_decode;
using apps::delta_encode;

TEST(DeltaCodec, EmptyStream) {
  EXPECT_TRUE(delta_encode({}).empty());
  const auto back = delta_decode({});
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(back->empty());
}

TEST(DeltaCodec, SingleSample) {
  const std::vector<std::uint16_t> codes = {0x0ABC};
  const auto bytes = delta_encode(codes);
  EXPECT_EQ(bytes.size(), 2u);
  EXPECT_EQ(delta_decode(bytes), codes);
}

TEST(DeltaCodec, SmoothSignalCompresses) {
  std::vector<std::uint16_t> codes;
  for (int i = 0; i < 100; ++i) {
    codes.push_back(static_cast<std::uint16_t>(2000 + 3 * i));
  }
  const auto bytes = delta_encode(codes);
  EXPECT_EQ(bytes.size(), 2u + 99u);  // 1 byte per delta
  EXPECT_LT(static_cast<double>(bytes.size()),
            0.75 * static_cast<double>(codes.size()) * 1.5);  // vs pack12
  EXPECT_EQ(delta_decode(bytes), codes);
}

TEST(DeltaCodec, LargeJumpsUseEscape) {
  const std::vector<std::uint16_t> codes = {100, 4000, 50, 51};
  const auto bytes = delta_encode(codes);
  // 2 (first) + 3 (escape) + 3 (escape) + 1 (delta) = 9 bytes.
  EXPECT_EQ(bytes.size(), 9u);
  EXPECT_EQ(delta_decode(bytes), codes);
}

TEST(DeltaCodec, ExactBoundaryDeltas) {
  // +127 and -127 fit in one byte; +128/-128 must escape.
  const std::vector<std::uint16_t> codes = {1000, 1127, 1000, 1128, 1000};
  const auto bytes = delta_encode(codes);
  EXPECT_EQ(delta_decode(bytes), codes);
  EXPECT_EQ(bytes.size(), 2u + 1 + 1 + 3 + 3);
}

TEST(DeltaCodec, RandomRoundTripProperty) {
  sim::Rng rng{808};
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<std::uint16_t> codes(
        static_cast<std::size_t>(rng.uniform_int(1, 200)));
    std::uint16_t value = static_cast<std::uint16_t>(rng.uniform_int(0, 4095));
    for (auto& c : codes) {
      // Mix small steps with occasional jumps.
      if (rng.chance(0.1)) {
        value = static_cast<std::uint16_t>(rng.uniform_int(0, 4095));
      } else {
        const int step = static_cast<int>(rng.uniform_int(-40, 40));
        value = static_cast<std::uint16_t>(
            std::clamp(static_cast<int>(value) + step, 0, 4095));
      }
      c = value;
    }
    const auto bytes = delta_encode(codes);
      EXPECT_EQ(delta_decode(bytes), codes) << "trial " << trial;
  }
}

TEST(DeltaCodec, MalformedStreamsRejected) {
  EXPECT_FALSE(delta_decode(std::vector<std::uint8_t>{0x01}).has_value());
  // Truncated escape.
  EXPECT_FALSE(
      delta_decode(std::vector<std::uint8_t>{0x01, 0x00, 0x80}).has_value());
  EXPECT_FALSE(delta_decode(std::vector<std::uint8_t>{0x01, 0x00, 0x80, 0x0F})
                   .has_value());
  // First code out of 12-bit range.
  EXPECT_FALSE(
      delta_decode(std::vector<std::uint8_t>{0xFF, 0xFF}).has_value());
  // Delta walking below zero.
  EXPECT_FALSE(delta_decode(std::vector<std::uint8_t>{
                                0x00, 0x01, static_cast<std::uint8_t>(-5)})
                   .has_value());
}

using net::Reassembler;

/// Unwraps fragment_block for blocks of at most 255 fragments.
std::vector<std::vector<std::uint8_t>> fragment_block(
    std::uint8_t block_id, std::span<const std::uint8_t> block) {
  auto frags = net::fragment_block(block_id, block);
  EXPECT_TRUE(frags.has_value());
  return std::move(frags).value_or(std::vector<std::vector<std::uint8_t>>{});
}

TEST(Fragmentation, SingleFragmentBlock) {
  const std::vector<std::uint8_t> block = {1, 2, 3};
  const auto frags = fragment_block(7, block);
  ASSERT_EQ(frags.size(), 1u);
  EXPECT_EQ(frags[0][0], 7);  // block id
  EXPECT_EQ(frags[0][1], 0);  // index
  EXPECT_EQ(frags[0][2], 1);  // count

  Reassembler r;
  const auto out = r.feed(frags[0]);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->data, block);
  EXPECT_EQ(out->block_id, 7);
}

TEST(Fragmentation, MultiFragmentRoundTrip) {
  std::vector<std::uint8_t> block(100);
  for (std::size_t i = 0; i < block.size(); ++i) {
    block[i] = static_cast<std::uint8_t>(i);
  }
  const auto frags = fragment_block(3, block);
  ASSERT_EQ(frags.size(), 5u);  // 100 bytes / 21-byte chunks
  for (const auto& f : frags) EXPECT_LE(f.size(), 24u);

  Reassembler r;
  std::optional<net::ReassembledBlock> out;
  for (const auto& f : frags) out = r.feed(f);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->data, block);
  EXPECT_EQ(r.blocks_completed(), 1u);
}

TEST(Fragmentation, OutOfOrderReassembly) {
  std::vector<std::uint8_t> block(60, 0xAB);
  const auto frags = fragment_block(1, block);
  ASSERT_EQ(frags.size(), 3u);
  Reassembler r;
  EXPECT_FALSE(r.feed(frags[2]).has_value());
  EXPECT_FALSE(r.feed(frags[0]).has_value());
  const auto out = r.feed(frags[1]);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->data, block);
}

TEST(Fragmentation, DuplicatesIgnored) {
  std::vector<std::uint8_t> block(40, 1);
  const auto frags = fragment_block(1, block);
  ASSERT_EQ(frags.size(), 2u);
  Reassembler r;
  EXPECT_FALSE(r.feed(frags[0]).has_value());
  EXPECT_FALSE(r.feed(frags[0]).has_value());  // duplicate (ARQ retry)
  EXPECT_EQ(r.duplicates(), 1u);
  EXPECT_TRUE(r.feed(frags[1]).has_value());
}

TEST(Fragmentation, LostFragmentLeavesBlockPending) {
  std::vector<std::uint8_t> block(60, 2);
  const auto frags = fragment_block(1, block);
  Reassembler r;
  r.feed(frags[0]);
  r.feed(frags[2]);  // fragment 1 lost
  EXPECT_EQ(r.blocks_completed(), 0u);
  EXPECT_EQ(r.pending_blocks(), 1u);
}

TEST(Fragmentation, MalformedFragmentsRejected) {
  Reassembler r;
  EXPECT_FALSE(r.feed(std::vector<std::uint8_t>{1, 0}).has_value());
  EXPECT_FALSE(r.feed(std::vector<std::uint8_t>{1, 5, 3, 0}).has_value());
  EXPECT_FALSE(r.feed(std::vector<std::uint8_t>{1, 0, 0, 9}).has_value());
  EXPECT_EQ(r.fragments_rejected(), 3u);
}

TEST(Fragmentation, PendingMemoryIsBounded) {
  Reassembler r;
  // Feed first-fragments of many distinct blocks, never completing any.
  for (std::uint8_t id = 0; id < 20; ++id) {
    std::vector<std::uint8_t> block(60, id);
    r.feed(fragment_block(id, block)[0]);
  }
  EXPECT_LE(r.pending_blocks(), Reassembler::kMaxPending);
  EXPECT_GT(r.blocks_abandoned(), 0u);
}

TEST(Fragmentation, OnlyABlockOver255FragmentsIsRejected) {
  // 21 data bytes per fragment: 255 fragments fit, 256 do not.
  const std::vector<std::uint8_t> full(21 * 255, 0);
  EXPECT_EQ(net::fragment_block(1, full)->size(), 255u);
  const std::vector<std::uint8_t> over(full.size() + 1, 0);
  EXPECT_FALSE(net::fragment_block(1, over).has_value());
  // An empty block is NOT an error: one header-only fragment.
  const auto empty = net::fragment_block(1, {});
  ASSERT_TRUE(empty.has_value());
  EXPECT_EQ(empty->size(), 1u);
}

TEST(Fragmentation, StaleRecycledBlockIdRestarts) {
  std::vector<std::uint8_t> old_block(60, 1);   // 3 fragments
  std::vector<std::uint8_t> new_block(40, 2);   // 2 fragments, same id
  Reassembler r;
  r.feed(fragment_block(9, old_block)[0]);
  const auto frags = fragment_block(9, new_block);
  EXPECT_FALSE(r.feed(frags[0]).has_value());
  const auto out = r.feed(frags[1]);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->data, new_block);
  EXPECT_EQ(r.stale_discarded(), 1u);
}

// Regression for the recycled-block-id aliasing bug: with the same fragment
// *count*, the old `chunks.size() != count` check let a stale partial merge
// with the new cycle's fragments.  Fragment 0 of the old cycle survives, the
// new cycle's fragment 0 is lost, and fragments 1..2 of the new cycle used
// to complete the block with the stale chunk 0 spliced in — a corrupted
// block delivered as if intact.
TEST(Fragmentation, RecycledIdWithSameCountDoesNotSpliceStaleChunk) {
  std::vector<std::uint8_t> old_block(60, 0xAA);  // 3 fragments
  std::vector<std::uint8_t> new_block(60, 0xBB);  // 3 fragments, same id
  Reassembler r;
  r.feed(fragment_block(9, old_block)[0]);  // frags 1,2 of old cycle lost

  // The id recycles only after ~255 other blocks flow through; emulate a
  // (shortened) stretch of that traffic so the partial's age shows.
  for (std::uint64_t i = 0; i <= Reassembler::kStaleFeedGap; ++i) {
    ASSERT_TRUE(r.feed(fragment_block(10, {})[0]).has_value());
  }

  const auto frags = fragment_block(9, new_block);
  EXPECT_FALSE(r.feed(frags[1]).has_value());
  const auto out = r.feed(frags[2]);
  // Old behaviour: completes here with {stale 0xAA chunk, 0xBB, 0xBB}.
  ASSERT_FALSE(out.has_value());
  EXPECT_EQ(r.stale_discarded(), 1u);

  // The retransmitted fragment 0 of the *new* cycle completes it cleanly.
  const auto done = r.feed(frags[0]);
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(done->data, new_block);
}

// Same aliasing scenario, but the new cycle's fragment 0 *does* arrive: its
// payload conflicts with the stale chunk already held at index 0, which is
// direct evidence of a recycled id regardless of partial age.
TEST(Fragmentation, RecycledIdConflictingChunkRestartsImmediately) {
  std::vector<std::uint8_t> old_block(60, 0xAA);
  std::vector<std::uint8_t> new_block(60, 0xBB);
  Reassembler r;
  r.feed(fragment_block(9, old_block)[0]);

  const auto frags = fragment_block(9, new_block);
  EXPECT_FALSE(r.feed(frags[0]).has_value());  // conflict -> restart
  EXPECT_EQ(r.stale_discarded(), 1u);
  EXPECT_EQ(r.duplicates(), 0u);  // not misclassified as an ARQ duplicate
  r.feed(frags[1]);
  const auto out = r.feed(frags[2]);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->data, new_block);
}

}  // namespace
}  // namespace bansim
