// TinyOS driver for the nRF2401 radio.
//
// Sits between the MAC and the radio chip, doing what the platform's
// hand-written driver does (Section 3.2): bit-banging frames into the
// ShockBurst FIFO (which costs MCU active cycles concurrently with the
// radio's clock-in phase), servicing the data-ready interrupt, and
// dispatching received packets up the stack as posted tasks.  It also
// publishes the coarse radio events the estimation model consumes.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "hw/radio_nrf2401.hpp"
#include "net/packet.hpp"
#include "os/probe.hpp"
#include "os/task_scheduler.hpp"
#include "sim/inline_callback.hpp"
#include "sim/simulator.hpp"

namespace bansim::os {

class RadioDriver {
 public:
  /// Receives each delivered packet, handed over by move.
  using ReceiveHandler = std::function<void(net::Packet&&)>;

  RadioDriver(sim::Simulator& simulator, hw::RadioNrf2401& radio,
              TaskScheduler& scheduler, ModelProbe& probe,
              std::string node_name);

  /// Powers the chip out of power-down; `ready` fires when standby is
  /// reached (crystal start-up time later).
  void init(sim::InlineCallback ready);

  void set_receive_handler(ReceiveHandler handler) {
    receive_handler_ = std::move(handler);
  }

  /// Transmits `packet`; `done` fires when the burst has left the antenna
  /// and the radio is back in standby.  Requires the radio idle (standby).
  void send(const net::Packet& packet, sim::InlineCallback done = {});

  /// Opens / closes a listen window.
  void start_listen();
  void stop_listen();

  /// Hard-fault recovery: forgets any in-flight send (its completion
  /// callback is dropped, never invoked) so the driver accepts commands
  /// again after a reboot.  The chip itself is reset separately — callers
  /// pair this with radio().power_down().
  void reset() {
    send_in_progress_ = false;
    send_done_.reset();
  }

  [[nodiscard]] bool listening() const;
  [[nodiscard]] bool sending() const { return send_in_progress_; }
  [[nodiscard]] hw::RadioNrf2401& radio() { return radio_; }

  /// MCU cycles to shuttle one byte over the bit-banged SPI (8 bits at
  /// 1 cycle/bit plus loop overhead, 8 MHz core vs 1 Mbps SPI).
  static constexpr std::uint64_t kCyclesPerSpiByte = 64;

 private:
  sim::Simulator& simulator_;
  hw::RadioNrf2401& radio_;
  TaskScheduler& scheduler_;
  ModelProbe& probe_;
  std::string node_;
  ReceiveHandler receive_handler_;
  /// Completion of the one send in progress; moved out before it runs,
  /// since it may start the next send.
  sim::InlineCallback send_done_;
  bool send_in_progress_{false};
};

}  // namespace bansim::os
