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
#include <vector>

#include "mac/mac_base.hpp"
#include "mac/tdma_config.hpp"
#include "net/packet.hpp"
#include "os/node_os.hpp"
#include "sim/context.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"

namespace bansim::mac {

class BaseStationMac final : public BaseStationMacBase {
 public:
  /// `protocol` is kStaticTdma or kDynamicTdma.
  BaseStationMac(sim::SimContext& context, os::NodeOs& node_os,
                 Protocol protocol, const TdmaConfig& config);

  /// Powers the radio and begins the beacon cycle.
  void start() override;

  void reset_for_reuse() override;

  [[nodiscard]] std::size_t joined_nodes() const override;
  [[nodiscard]] Protocol protocol() const override { return protocol_; }

 private:
  void begin_cycle();
  void on_packet(net::Packet&& packet);
  void handle_slot_request(const net::Packet& packet);

  /// Marks activity from the owner of `node` (resets its silence count).
  void note_activity(net::NodeId node);

  /// Releases slots whose owners exceeded the silence bound.
  void reclaim_silent_slots();

  Protocol protocol_;
  TdmaConfig config_;
  std::vector<std::uint32_t> silent_cycles_;  ///< parallel to slot_owners_
};

}  // namespace bansim::mac
