// Pure-observer hook points for the runtime checking layer.
//
// A CheckHooks implementation (normally check::InvariantMonitor) attaches to
// a SimContext and receives low-level notifications from the channel, the
// radio and MCU state machines, and every watched energy meter.  The
// contract that makes the hooks safe to compile in unconditionally:
//
//  * emission sites cost one branch on a null pointer when nothing is
//    attached (the default);
//  * an implementation must be a PURE OBSERVER: it may not mutate model
//    state, schedule model-visible work, or draw from any model RNG stream.
//    Energies with hooks attached are bit-identical to energies without —
//    the monitor-on/off differential oracle in check::ScenarioFuzzer
//    enforces this.
//
// The interface lives in the sim layer and speaks only POD values plus
// opaque `const void*` component tags, so phy/hw/mac/energy can emit
// without depending on the checking layer; the implementation maps tags
// back to components it registered itself.
#pragma once

#include <cstddef>
#include <cstdint>

#include "sim/time.hpp"

namespace bansim::sim {

class CheckHooks {
 public:
  virtual ~CheckHooks() = default;

  // --- Channel -------------------------------------------------------------

  /// A frame entered the medium.  `bytes` is the serialized Packet image
  /// (valid only for the duration of the call); the air interval is
  /// [air_start, air_start + air_time).
  virtual void on_frame_transmit(const void* /*channel*/,
                                 std::uint64_t /*frame_id*/,
                                 std::uint32_t /*tx_id*/,
                                 const std::uint8_t* /*bytes*/,
                                 std::size_t /*num_bytes*/,
                                 TimePoint /*air_start*/,
                                 Duration /*air_time*/) {}

  /// The channel marked two in-flight frames as mutually corrupted.
  virtual void on_collision(const void* /*channel*/, std::uint64_t /*frame_a*/,
                            std::uint64_t /*frame_b*/) {}

  /// A frame finished its air time and left the in-flight set (emitted once
  /// per frame, before the per-receiver deliveries).
  virtual void on_frame_retired(const void* /*channel*/,
                                std::uint64_t /*frame_id*/,
                                bool /*corrupted*/) {}

  /// Frame-end was delivered to one connected receiver; `corrupted`
  /// includes both collision corruption and the bit-error model's draw.
  virtual void on_frame_delivered(const void* /*channel*/,
                                  std::uint64_t /*frame_id*/,
                                  std::uint32_t /*rx_id*/,
                                  bool /*corrupted*/) {}

  // --- Device state machines ----------------------------------------------

  /// A radio changed power/functional state (hw::RadioState values).
  virtual void on_radio_state(const void* /*radio*/, int /*from*/, int /*to*/,
                              TimePoint /*when*/) {}

  /// An MCU changed power mode (hw::McuMode values).
  virtual void on_mcu_mode(const void* /*mcu*/, int /*from*/, int /*to*/,
                           TimePoint /*when*/) {}

  // --- Energy meters -------------------------------------------------------

  /// A watched EnergyMeter recorded a state transition.
  virtual void on_meter_transition(const void* /*meter*/, int /*state*/,
                                   TimePoint /*when*/) {}
};

}  // namespace bansim::sim
