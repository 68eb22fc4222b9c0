// Base-station side of the TDMA MAC.
//
// The base station regulates all protocol timing (Section 3.2.2): it
// broadcasts a beacon at the top of every cycle, listens for the rest of
// the cycle (slot requests in the contention window, data in owned slots),
// and manages the slot table.  In the static variant the table has a fixed
// number of slots and nodes ask for a specific free one; in the dynamic
// variant the table grows by one slot per admitted node and the cycle
// length follows it.  Nodes learn the entire schedule from the beacon's
// slot-owner table, which also serves as the "inform all the other nodes of
// the updated cycle time" mechanism of the paper.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "mac/mac_base.hpp"
#include "mac/tdma_config.hpp"
#include "net/packet.hpp"
#include "os/node_os.hpp"
#include "sim/context.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"

namespace bansim::mac {

/// Counters exposed for validation and tests.
struct BaseStationStats {
  std::uint64_t beacons_sent{0};
  std::uint64_t data_received{0};
  std::uint64_t slot_requests{0};
  std::uint64_t slots_granted{0};
  std::uint64_t requests_rejected{0};  ///< table full / slot taken
  std::uint64_t grants_sent{0};        ///< fast-grant frames transmitted
  std::uint64_t acks_sent{0};          ///< link-layer ACK frames
  std::uint64_t slots_reclaimed{0};    ///< silent owners evicted
};

class BaseStationMac final : public BaseStationMacBase {
 public:
  /// Called for every data frame: (source, payload, arrival time).
  using DataHandler = BaseStationMacBase::DataHandler;

  BaseStationMac(sim::SimContext& context, os::NodeOs& node_os,
                 const TdmaConfig& config);

  void set_data_handler(DataHandler handler) override {
    data_handler_ = std::move(handler);
  }

  /// Powers the radio and begins the beacon cycle.
  void start() override;

  void reset_for_reuse() override;

  [[nodiscard]] const std::vector<net::NodeId>& slot_owners() const {
    return slot_owners_;
  }
  [[nodiscard]] sim::Duration current_cycle() const;
  [[nodiscard]] const BaseStationStats& stats() const { return stats_; }
  [[nodiscard]] std::size_t joined_nodes() const override;
  [[nodiscard]] Protocol protocol() const override {
    return config_.variant == TdmaVariant::kStatic ? Protocol::kStaticTdma
                                                   : Protocol::kDynamicTdma;
  }

 private:
  void begin_cycle();
  /// Builds and transmits the cycle's beacon; if a control frame is still
  /// draining out of the half-duplex radio, retries shortly after.
  void emit_beacon();
  void on_packet(net::Packet&& packet);
  void handle_slot_request(const net::Packet& packet);
  [[nodiscard]] net::Packet make_beacon();

  /// Interrupts the listen period to transmit one control frame (fast
  /// grant or ACK), then resumes listening.  The radio is half duplex, so
  /// frames arriving during the transmission are lost, as on the platform.
  /// Frames that cannot drain before the next beacon are not started: a
  /// node that misses its grant or ACK simply retries next cycle.
  void send_control(net::Packet packet, std::uint64_t prep_cycles);

  /// Marks activity from the owner of `node` (resets its silence count).
  void note_activity(net::NodeId node);

  /// Releases slots whose owners exceeded the silence bound.
  void reclaim_silent_slots();

  sim::Simulator& simulator_;
  sim::Tracer& tracer_;
  sim::TraceNodeId trace_node_;
  os::NodeOs& os_;
  TdmaConfig config_;
  DataHandler data_handler_;
  std::vector<net::NodeId> slot_owners_;
  std::vector<std::uint32_t> silent_cycles_;  ///< parallel to slot_owners_
  std::uint8_t beacon_seq_{0};
  sim::TimePoint next_cycle_at_;  ///< expected start of the next cycle
  BaseStationStats stats_;
};

}  // namespace bansim::mac
