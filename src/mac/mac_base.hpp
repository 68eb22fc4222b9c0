// The MAC seam: every protocol pair (node + base station) in the zoo
// implements these interfaces, so the node composition layer
// (core::NodeStack / core::BaseStationStack), the fault subsystem and the
// campaign runners hold one polymorphic MAC instead of one member per
// protocol.
//
// Contract notes (see DESIGN.md "MAC seam & protocol zoo"):
//  * start() is called exactly once, at the node's staggered boot instant.
//  * queue_payload() never blocks; a full queue or a crashed MAC counts the
//    payload as queued-then-dropped, so PDR accounting stays conservative.
//  * crash()/reboot() are the fault subsystem's routing points.  A crashed
//    MAC must go quiet immediately (timers stopped, radio powered down,
//    queue cleared) and must tolerate scheduler closures from before the
//    crash firing afterwards (the boot-epoch pattern — posted tasks cannot
//    be cancelled).  reboot() restarts the protocol's own association
//    procedure from scratch.
//  * stats_snapshot() is the protocol-neutral projection of the per-MAC
//    stats struct.  Counters a protocol has no notion of (beacons for
//    ALOHA, say) stay zero; campaign reports treat zero as "not a thing
//    here", not "never happened".
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "net/packet.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace bansim::mac {

/// Wire protocol a cell speaks.  The TDMA static/dynamic split is a real
/// protocol difference (slot-request semantics change), so it is part of
/// the tag rather than hidden behind kTdma.
enum class Protocol : std::uint8_t {
  kStaticTdma,
  kDynamicTdma,
  kAloha,
  kCsmaCa,
};

[[nodiscard]] constexpr const char* to_string(Protocol p) {
  switch (p) {
    case Protocol::kStaticTdma: return "static_tdma";
    case Protocol::kDynamicTdma: return "dynamic_tdma";
    case Protocol::kAloha: return "aloha";
    case Protocol::kCsmaCa: return "csma_ca";
  }
  return "?";
}

/// True for protocols that arbitrate the medium by contention (collisions
/// between data frames are legal outcomes, not invariant violations).
[[nodiscard]] constexpr bool is_contention(Protocol p) {
  return p == Protocol::kAloha || p == Protocol::kCsmaCa;
}

/// Protocol-neutral stats projection; the campaign runners and the fuzzer
/// oracles read this instead of downcasting to a per-protocol stats struct.
struct MacStatsSnapshot {
  std::uint64_t payloads_queued{0};
  std::uint64_t payloads_dropped{0};
  std::uint64_t data_sent{0};
  std::uint64_t acks_received{0};
  std::uint64_t retransmissions{0};
  std::uint64_t retry_drops{0};
  std::uint64_t beacons_received{0};
  std::uint64_t beacons_missed{0};
  std::uint64_t resyncs{0};
  std::uint64_t crashes{0};
  std::uint64_t reboots{0};
};

/// The payload at the head of a node's transmit queue, for the frame about
/// to go out.  With link-layer ACKs it stays at the head until acknowledged
/// (or abandoned) and is copied; otherwise transmission is fire-and-forget
/// and it moves out of the queue.
[[nodiscard]] inline std::vector<std::uint8_t> take_head(
    std::deque<std::vector<std::uint8_t>>& queue, bool ack_data) {
  if (ack_data) return queue.front();
  std::vector<std::uint8_t> payload = std::move(queue.front());
  queue.pop_front();
  return payload;
}

class NodeMacBase {
 public:
  virtual ~NodeMacBase() = default;

  virtual void start() = 0;
  virtual void queue_payload(std::vector<std::uint8_t> payload) = 0;

  /// Associated with its base station.  Beaconed protocols report sync
  /// state; protocols with no association procedure report readiness.
  [[nodiscard]] virtual bool joined() const = 0;

  [[nodiscard]] virtual std::size_t queue_depth() const = 0;
  [[nodiscard]] virtual std::size_t queue_capacity() const = 0;

  // Fault-routing hooks.
  virtual void crash() = 0;
  virtual void reboot() = 0;
  [[nodiscard]] virtual bool crashed() const = 0;

  /// Run-reset hook of the cell reuse protocol (DESIGN.md "Run reset
  /// protocol"): restores every run-mutable member to its constructed
  /// value — unlike reboot(), which models a fault and keeps latency
  /// samples, stats and the boot epoch.  `rng` is this node's freshly
  /// derived per-protocol stream for the new run's seed; the caller has
  /// already cleared the event queue and reset OS + board underneath.
  /// start() may be called again afterwards, exactly once.
  virtual void reset_for_reuse(sim::Rng rng) = 0;

  [[nodiscard]] virtual Protocol protocol() const = 0;
  [[nodiscard]] virtual MacStatsSnapshot stats_snapshot() const = 0;

  /// Recovery latency observations (beacon reacquisition after a loss-of-
  /// sync, re-association after a reboot).  Protocols without the notion
  /// return empty vectors.
  [[nodiscard]] virtual const std::vector<sim::Duration>& resync_times() const {
    return kNoDurations;
  }
  [[nodiscard]] virtual const std::vector<sim::Duration>& rejoin_times() const {
    return kNoDurations;
  }

 protected:
  static const std::vector<sim::Duration> kNoDurations;
};

class BaseStationMacBase {
 public:
  /// Payload delivery upcall shared by every protocol: source node, payload
  /// bytes, arrival time.
  using DataHandler = std::function<void(net::NodeId, std::span<const std::uint8_t>,
                                         sim::TimePoint)>;

  virtual ~BaseStationMacBase() = default;

  virtual void start() = 0;
  virtual void set_data_handler(DataHandler handler) = 0;

  /// Run-reset (see NodeMacBase::reset_for_reuse).  The data handler
  /// survives — it is the owner's wiring, not run state.
  virtual void reset_for_reuse() = 0;

  /// Nodes currently associated.  Contention protocols with no explicit
  /// association report the number of distinct sources heard from.
  [[nodiscard]] virtual std::size_t joined_nodes() const = 0;

  [[nodiscard]] virtual Protocol protocol() const = 0;
};

}  // namespace bansim::mac
