// Unit tests of the TinyOS radio driver: MCU cost accounting for SPI
// transfers, probe event publication, and the single-outstanding-send
// contract.
#include "os/radio_driver.hpp"

#include <gtest/gtest.h>

#include "sim/context.hpp"

#include <vector>

#include "os/node_os.hpp"
#include "phy/channel.hpp"

namespace bansim::os {
namespace {

using namespace bansim::sim::literals;
using sim::Duration;
using sim::TimePoint;

/// Probe recording radio events with timestamps.
class RecordingProbe final : public ModelProbe {
 public:
  struct Event {
    std::string kind;
    TimePoint when;
    std::size_t bytes{0};
  };
  void on_task(std::string_view, std::string_view, TimePoint) override {}
  void on_radio_rx_on(std::string_view, TimePoint when) override {
    events.push_back({"rx_on", when, 0});
  }
  void on_radio_rx_off(std::string_view, TimePoint when) override {
    events.push_back({"rx_off", when, 0});
  }
  void on_radio_tx(std::string_view, std::size_t bytes, TimePoint when) override {
    events.push_back({"tx", when, bytes});
  }
  void on_packet(std::string_view, net::PacketType type, bool transmit,
                 TimePoint when) override {
    events.push_back({std::string(transmit ? "pkt_tx_" : "pkt_rx_") +
                          net::to_string(type),
                      when, 0});
  }
  std::vector<Event> events;
};

struct DriverFixture : ::testing::Test {
  sim::SimContext context;
  sim::Simulator& simulator = context.simulator;
  sim::Tracer& tracer = context.tracer;
  phy::Channel channel{context};
  hw::BoardParams params;
  RecordingProbe probe;
  hw::Board board{context, channel, "n1", params, 0.0};
  hw::Board peer_board{context, channel, "n2", params, 0.0};
  NodeOs node{context, board, probe};
  NullProbe null_probe;
  NodeOs peer{context, peer_board, null_probe};

  void init_both() {
    board.radio().set_local_address(1);
    peer_board.radio().set_local_address(2);
    bool a = false, b = false;
    node.radio().init([&] { a = true; });
    peer.radio().init([&] { b = true; });
    simulator.run_until(simulator.now() + 5_ms);
    ASSERT_TRUE(a);
    ASSERT_TRUE(b);
  }

  net::Packet packet_to_peer(std::size_t len) {
    net::Packet p;
    p.header.dest = 2;
    p.header.src = 1;
    p.header.type = net::PacketType::kData;
    p.payload.assign(len, 0x42);
    return p;
  }
};

TEST_F(DriverFixture, SendPublishesTxAndPacketEvents) {
  init_both();
  bool done = false;
  node.radio().send(packet_to_peer(18), [&] { done = true; });
  simulator.run_until(simulator.now() + 5_ms);
  EXPECT_TRUE(done);

  ASSERT_GE(probe.events.size(), 2u);
  EXPECT_EQ(probe.events[0].kind, "tx");
  EXPECT_EQ(probe.events[0].bytes, 26u);  // 18 + header + CRC
  EXPECT_EQ(probe.events[1].kind, "pkt_tx_DATA");
}

TEST_F(DriverFixture, ListenPublishesWindowEvents) {
  init_both();
  node.radio().start_listen();
  simulator.run_until(simulator.now() + 2_ms);
  node.radio().stop_listen();
  ASSERT_EQ(probe.events.size(), 2u);
  EXPECT_EQ(probe.events[0].kind, "rx_on");
  EXPECT_EQ(probe.events[1].kind, "rx_off");
  EXPECT_EQ(probe.events[1].when - probe.events[0].when, 2_ms);
}

TEST_F(DriverFixture, ClockInChargesMcuConcurrently) {
  init_both();
  const TimePoint t0 = simulator.now();
  const double active_before =
      board.mcu()
          .meter()
          .time_in(static_cast<int>(hw::McuMode::kActive), t0)
          .to_seconds();
  node.radio().send(packet_to_peer(18));
  simulator.run_until(simulator.now() + 5_ms);
  const double active =
      board.mcu()
          .meter()
          .time_in(static_cast<int>(hw::McuMode::kActive), simulator.now())
          .to_seconds() -
      active_before;
  // 26 bytes * 64 cycles at 8 MHz = 208 us of bit-banging.
  EXPECT_NEAR(active, 26 * 64 / 8e6, 30e-6);
}

TEST_F(DriverFixture, ReceiverDispatchDeliversToHandler) {
  init_both();
  std::vector<net::Packet> received;
  peer.radio().set_receive_handler(
      [&](const net::Packet& p) { received.push_back(p); });
  peer.radio().start_listen();
  simulator.run_until(simulator.now() + 1_ms);
  node.radio().send(packet_to_peer(10));
  simulator.run_until(simulator.now() + 5_ms);
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0].payload.size(), 10u);
  EXPECT_TRUE(peer.radio().listening());  // back to listen after clock-out
}

TEST_F(DriverFixture, ListeningQueryCoversAllRxPhases) {
  init_both();
  EXPECT_FALSE(node.radio().listening());
  node.radio().start_listen();
  EXPECT_TRUE(node.radio().listening());  // settle phase counts
  simulator.run_until(simulator.now() + 1_ms);
  EXPECT_TRUE(node.radio().listening());  // listen phase
  node.radio().stop_listen();
  EXPECT_FALSE(node.radio().listening());
}

TEST_F(DriverFixture, SendingFlagTracksTransaction) {
  init_both();
  EXPECT_FALSE(node.radio().sending());
  node.radio().send(packet_to_peer(4));
  EXPECT_TRUE(node.radio().sending());
  simulator.run_until(simulator.now() + 5_ms);
  EXPECT_FALSE(node.radio().sending());
}

}  // namespace
}  // namespace bansim::os
