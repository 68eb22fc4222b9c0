#include "os/radio_driver.hpp"

#include <cassert>
#include <utility>

namespace bansim::os {

RadioDriver::RadioDriver(sim::Simulator& simulator, hw::RadioNrf2401& radio,
                         TaskScheduler& scheduler, ModelProbe& probe,
                         std::string node_name)
    : simulator_{simulator}, radio_{radio}, scheduler_{scheduler},
      probe_{probe}, node_{std::move(node_name)} {
  hw::RadioNrf2401::Callbacks callbacks;
  callbacks.on_clockout_start = [this](std::size_t frame_bytes) {
    // DR1 asserted: the MCU wakes on the data-ready interrupt and clocks
    // the frame out of the FIFO.
    scheduler_.raise_interrupt("radio.clockout"_task,
                               kCyclesPerSpiByte * frame_bytes);
  };
  callbacks.on_receive = [this](net::Packet&& packet) {
    probe_.on_packet(node_, packet.header.type, /*transmit=*/false,
                     simulator_.now());
    const std::uint64_t cycles = 180 + 8 * packet.payload.size();
    scheduler_.post("radio.rx_dispatch"_task, cycles,
                    [this, packet = std::move(packet)]() mutable {
                      if (receive_handler_) receive_handler_(std::move(packet));
                    });
  };
  callbacks.on_send_done = [this] {
    send_in_progress_ = false;
    sim::InlineCallback done = std::move(send_done_);
    if (done) done();
  };
  radio_.set_callbacks(std::move(callbacks));
}

void RadioDriver::init(sim::InlineCallback ready) {
  radio_.power_up();
  // Poll-free: the crystal start-up takes the datasheet time; model the
  // readiness notification as a one-shot at that horizon (scheduled even
  // without a callback, so event counts do not depend on the caller).
  if (!ready) ready = [] {};
  simulator_.schedule_in(radio_.params().powerup_time, std::move(ready));
}

void RadioDriver::send(const net::Packet& packet, sim::InlineCallback done) {
  assert(!send_in_progress_ && "driver supports one outstanding send");
  send_in_progress_ = true;
  send_done_ = std::move(done);

  const auto frame_bytes = packet.wire_size();
  probe_.on_radio_tx(node_, frame_bytes, simulator_.now());
  probe_.on_packet(node_, packet.header.type, /*transmit=*/true,
                   simulator_.now());

  // The MCU bit-bangs the FIFO while the radio clocks it in: both devices
  // are busy for the same stretch, so the cost is charged concurrently.
  scheduler_.post("radio.clockin"_task, kCyclesPerSpiByte * frame_bytes);
  radio_.send(packet);
}

void RadioDriver::start_listen() {
  probe_.on_radio_rx_on(node_, simulator_.now());
  radio_.start_rx();
}

void RadioDriver::stop_listen() {
  probe_.on_radio_rx_off(node_, simulator_.now());
  radio_.stop_rx();
}

bool RadioDriver::listening() const {
  const auto s = radio_.state();
  return s == hw::RadioState::kRxSettle || s == hw::RadioState::kRxListen ||
         s == hw::RadioState::kRxClockOut;
}

}  // namespace bansim::os
