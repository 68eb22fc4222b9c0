#include <gtest/gtest.h>

#include <vector>

#include "net/crc16.hpp"
#include "net/packet.hpp"
#include "sim/rng.hpp"

namespace bansim::net {
namespace {

TEST(Crc16, KnownVector123456789) {
  // CRC-16/CCITT-FALSE("123456789") = 0x29B1.
  const std::vector<std::uint8_t> data = {'1', '2', '3', '4', '5',
                                          '6', '7', '8', '9'};
  EXPECT_EQ(crc16_ccitt(data), 0x29B1);
}

TEST(Crc16, EmptyIsInit) {
  EXPECT_EQ(crc16_ccitt({}), 0xFFFF);
}

TEST(Crc16, IncrementalMatchesBulk) {
  const std::vector<std::uint8_t> data = {0xDE, 0xAD, 0xBE, 0xEF, 0x42};
  std::uint16_t crc = 0xFFFF;
  for (std::uint8_t b : data) crc = crc16_ccitt_update(crc, b);
  EXPECT_EQ(crc, crc16_ccitt(data));
}

/// The bit-serial reference: crc16_ccitt_update folded over `data`.
std::uint16_t bit_serial_crc(const std::vector<std::uint8_t>& data,
                             std::uint16_t init) {
  std::uint16_t crc = init;
  for (std::uint8_t b : data) crc = crc16_ccitt_update(crc, b);
  return crc;
}

TEST(Crc16, TableDrivenEqualsBitSerialForEveryLengthUpTo32) {
  sim::Rng rng{0xC0FFEE};
  for (std::size_t len = 0; len <= 32; ++len) {
    std::vector<std::vector<std::uint8_t>> inputs = {
        std::vector<std::uint8_t>(len, 0x00),
        std::vector<std::uint8_t>(len, 0xFF)};
    for (int trial = 0; trial < 16; ++trial) {
      std::vector<std::uint8_t>& random = inputs.emplace_back(len);
      for (auto& b : random) b = static_cast<std::uint8_t>(rng.next_u64());
    }
    for (const auto& data : inputs) {
      for (const std::uint16_t init : {0xFFFF, 0x0000, 0x1D0F, 0x8005}) {
        ASSERT_EQ(crc16_ccitt(data, init), bit_serial_crc(data, init))
            << "length " << len << ", init " << init;
      }
    }
  }
}

TEST(Packet, SteppedDecodeMatchesDeserialize) {
  Packet p;
  p.header.dest = 0x1234;
  p.header.src = 7;
  p.header.type = PacketType::kSlotGrant;
  p.header.seq = 200;
  p.payload = {9, 8, 7, 6};
  std::vector<std::uint8_t> wire = p.serialize();
  ASSERT_TRUE(Packet::intact(wire));
  EXPECT_EQ(Packet::header_of(wire).dest, 0x1234);
  const Packet stepped = Packet::decode_intact(wire);
  const auto whole = Packet::deserialize(wire);
  ASSERT_TRUE(whole.has_value());
  EXPECT_EQ(stepped.header.src, whole->header.src);
  EXPECT_EQ(stepped.header.type, whole->header.type);
  EXPECT_EQ(stepped.header.seq, whole->header.seq);
  EXPECT_EQ(stepped.payload, whole->payload);

  wire[6] ^= 0x01;  // corrupt the payload: the header alone still reads
  EXPECT_FALSE(Packet::intact(wire));
  EXPECT_FALSE(Packet::deserialize(wire).has_value());
  EXPECT_FALSE(Packet::intact(std::vector<std::uint8_t>(7, 0)));  // too short
}

class CrcErrorDetection : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CrcErrorDetection, DetectsAllSingleBitErrors) {
  sim::Rng rng{GetParam()};
  std::vector<std::uint8_t> frame(24);
  for (auto& b : frame) b = static_cast<std::uint8_t>(rng.next_u64());
  const std::uint16_t good = crc16_ccitt(frame);
  for (std::size_t byte = 0; byte < frame.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      frame[byte] ^= static_cast<std::uint8_t>(1u << bit);
      EXPECT_NE(crc16_ccitt(frame), good)
          << "single-bit flip at byte " << byte << " bit " << bit;
      frame[byte] ^= static_cast<std::uint8_t>(1u << bit);
    }
  }
}

TEST_P(CrcErrorDetection, DetectsRandomDoubleBitErrors) {
  sim::Rng rng{GetParam() ^ 0xABCD};
  std::vector<std::uint8_t> frame(24);
  for (auto& b : frame) b = static_cast<std::uint8_t>(rng.next_u64());
  const std::uint16_t good = crc16_ccitt(frame);
  for (int trial = 0; trial < 200; ++trial) {
    const auto i = static_cast<std::size_t>(rng.uniform_int(0, 23));
    const auto j = static_cast<std::size_t>(rng.uniform_int(0, 23));
    const auto bi = static_cast<std::uint8_t>(1u << rng.uniform_int(0, 7));
    const auto bj = static_cast<std::uint8_t>(1u << rng.uniform_int(0, 7));
    if (i == j && bi == bj) continue;
    frame[i] ^= bi;
    frame[j] ^= bj;
    EXPECT_NE(crc16_ccitt(frame), good);
    frame[i] ^= bi;
    frame[j] ^= bj;
  }
}

INSTANTIATE_TEST_SUITE_P(Frames, CrcErrorDetection,
                         ::testing::Values(1ull, 17ull, 999ull));

TEST(Packet, RoundTrip) {
  Packet p;
  p.header.dest = kBaseStationId;
  p.header.src = 3;
  p.header.type = PacketType::kData;
  p.header.seq = 42;
  p.payload = {1, 2, 3, 4, 5};

  const auto bytes = p.serialize();
  EXPECT_EQ(bytes.size(), p.wire_size());

  const auto back = Packet::deserialize(bytes);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->header.dest, kBaseStationId);
  EXPECT_EQ(back->header.src, 3);
  EXPECT_EQ(back->header.type, PacketType::kData);
  EXPECT_EQ(back->header.seq, 42);
  EXPECT_EQ(back->payload, p.payload);
}

TEST(Packet, EmptyPayloadRoundTrip) {
  Packet p;
  p.header.type = PacketType::kSlotRequest;
  const auto back = Packet::deserialize(p.serialize());
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(back->payload.empty());
}

TEST(Packet, WireSizeIncludesHeaderAndCrc) {
  Packet p;
  p.payload.assign(18, 0xAA);
  EXPECT_EQ(p.wire_size(), 18u + kHeaderBytes + kCrcBytes);
}

TEST(Packet, CorruptedBytesRejected) {
  Packet p;
  p.payload = {9, 8, 7};
  auto bytes = p.serialize();
  bytes[4] ^= 0x01;  // flip a type bit
  EXPECT_FALSE(Packet::deserialize(bytes).has_value());
}

TEST(Packet, TruncatedFrameRejected) {
  Packet p;
  p.payload = {1, 2, 3};
  auto bytes = p.serialize();
  bytes.resize(bytes.size() - 3);
  EXPECT_FALSE(Packet::deserialize(bytes).has_value());
  EXPECT_FALSE(
      Packet::deserialize(std::vector<std::uint8_t>{1, 2, 3}).has_value());
}

TEST(BeaconPayload, RoundTripWithOwners) {
  BeaconPayload b;
  b.cycle_us = 60000;
  b.num_slots = 5;
  b.slot_us = 10000;
  b.beacon_seq = 17;
  b.pan_id = 3;
  b.slot_owners = {1, 2, 0xFFFE, 4, 5};

  const auto back = BeaconPayload::deserialize(b.serialize());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->cycle_us, 60000u);
  EXPECT_EQ(back->num_slots, 5);
  EXPECT_EQ(back->slot_us, 10000u);
  EXPECT_EQ(back->beacon_seq, 17);
  EXPECT_EQ(back->pan_id, 3);
  EXPECT_EQ(back->slot_owners, b.slot_owners);
}

TEST(BeaconPayload, EmptyOwnersRoundTrip) {
  BeaconPayload b;
  b.cycle_us = 20000;
  const auto back = BeaconPayload::deserialize(b.serialize());
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(back->slot_owners.empty());
}

TEST(BeaconPayload, TruncatedRejected) {
  BeaconPayload b;
  b.slot_owners = {1, 2, 3};
  auto bytes = b.serialize();
  bytes.resize(bytes.size() - 1);
  EXPECT_FALSE(BeaconPayload::deserialize(bytes).has_value());
  EXPECT_FALSE(
      BeaconPayload::deserialize(std::vector<std::uint8_t>(5)).has_value());
}

TEST(SlotGrantPayload, RoundTrip) {
  SlotGrantPayload g;
  g.slot_index = 3;
  g.cycle_us = 40000;
  const auto back = SlotGrantPayload::deserialize(g.serialize());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->slot_index, 3);
  EXPECT_EQ(back->cycle_us, 40000u);
  EXPECT_FALSE(SlotGrantPayload::deserialize(std::vector<std::uint8_t>(3))
                   .has_value());
}

TEST(PacketTypes, Names) {
  EXPECT_STREQ(to_string(PacketType::kBeacon), "BEACON");
  EXPECT_STREQ(to_string(PacketType::kSlotRequest), "SLOT_REQ");
  EXPECT_STREQ(to_string(PacketType::kData), "DATA");
  EXPECT_STREQ(to_string(PacketType::kCycleUpdate), "CYCLE_UPD");
  EXPECT_STREQ(to_string(PacketType::kSlotGrant), "SLOT_GRANT");
}

}  // namespace
}  // namespace bansim::net
