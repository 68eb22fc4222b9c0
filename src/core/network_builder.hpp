// The one place a BanConfig becomes a cell of stacks.
//
// BanNetwork builds every cell it owns through NetworkBuilder: derive the
// per-node RNG streams, build a base station, build N sensor stacks in
// address order, boot everything staggered.  The cell's BanConfig carries
// the network-wide defaults and the optional NodeSpec roster; the cell's
// index among the network's cells picks the stream and base-station names:
//  * a lone cell (count 1) uses "bs", "skew", "stagger" and per-node
//    streams keyed by node name ("mac/node3", "ecg/node3");
//  * cell c of a co-located network uses "bs<c>", "skew/cell<c>",
//    "stagger/<c>" and per-node streams keyed by bare address
//    ("mac/cell<c>/3", "ecg/cell<c>/3"), so cells that share a seed still
//    draw independent streams.
//
// Determinism contract: for a given (config, index, count) the builder
//  * attaches devices to the channel in base-station-first, then node
//    index order (a lone cell's channel ids: bs = 0, node i = i + 1);
//  * draws one clock-skew value per device from the skew stream (base
//    station first) and one boot offset per node from the stagger stream,
//    in index order, REGARDLESS of per-spec overrides — pinning node k's
//    skew never shifts node k+1's draw;
//  * derives the MAC and signal streams from per-node keys, so they are
//    independent of node count and position.
// A homogeneous roster therefore reproduces the pre-builder networks
// bit-for-bit (locked by test_golden_energy).
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "core/node_stack.hpp"
#include "os/cycle_cost_model.hpp"
#include "phy/channel.hpp"
#include "sim/context.hpp"

namespace bansim::core {

struct BanConfig;

/// One assembled cell: its base station and sensor stacks, plus where it
/// sits among the network's cells (which names its streams).
struct BuiltCell {
  std::unique_ptr<BaseStationStack> bs;
  std::vector<std::unique_ptr<NodeStack>> nodes;
  std::size_t index{0};
  std::size_t count{1};
};

class NetworkBuilder {
 public:
  /// Builds the base station and every node of `config` as cell `index` of
  /// `count`, attaching them to `channel` in the canonical order.
  /// `nominal_costs` is handed to each stack whose resolved fidelity is
  /// kModel.
  [[nodiscard]] static BuiltCell build_cell(
      sim::SimContext& context, phy::Channel& channel, const BanConfig& config,
      std::size_t index, std::size_t count, os::ModelProbe& probe,
      const os::CycleCostModel& nominal_costs);

  /// Starts the base station now and every node at its boot offset,
  /// drawing the stagger stream in node order.
  static void start_cell(sim::SimContext& context, BuiltCell& cell,
                         const BanConfig& config);

  /// Re-arms an already-built cell for another run without rebuilding it:
  /// every stack is restored to its freshly-built state in place and the
  /// per-device RNG draws are re-derived from `config` in the exact build
  /// order (skew: base station first, then nodes; mac/signal streams by
  /// node key) so a reset cell is bit-identical to a rebuilt one.
  ///
  /// `config` must be same-shape as `built`, the one the cell was built
  /// from: node count, protocol, the tdma/aloha/csma blocks, app kinds,
  /// addresses and storage enabled-ness are checked
  /// (std::invalid_argument); board params must also stay.  Seeds,
  /// physiology, storage values, boot offsets and fault-plan values may
  /// differ — this is the population-sweep seam.  Caller resets the
  /// SimContext (clearing the event queue) before calling, then
  /// start_cell() boots the cell.
  static void reset_cell(BuiltCell& cell, const BanConfig& built,
                         const BanConfig& config);
};

}  // namespace bansim::core
