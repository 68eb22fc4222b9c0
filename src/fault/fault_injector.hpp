// Executes a FaultPlan against a running BAN cell.
//
// The injector owns no protocol state of its own: it perturbs the stack
// only through the same surfaces real faults use — the channel's frame
// error probability (fading, interference, shadowing), the MAC's hard
// crash()/reboot() interface (node churn, brown-out), the radio chip's
// lock-up latch, and the MCU's DCO skew.  All stochastic decisions draw
// from named streams ("fault/fade", "fault/crash") of the experiment seed
// and all recurring processes ride the simulator's own event queue, so a
// campaign replays bit-identically from its (seed, plan) pair, serial or
// parallel.
#pragma once

#include <cstdint>
#include <vector>

#include "fault/fault_plan.hpp"
#include "hw/board.hpp"
#include "hw/energy_store.hpp"
#include "mac/mac_base.hpp"
#include "phy/channel.hpp"
#include "phy/link_model.hpp"
#include "sim/context.hpp"
#include "sim/rng.hpp"

namespace bansim::fault {

struct FaultInjectorStats {
  std::uint64_t fade_transitions{0};   ///< Gilbert-Elliott state flips
  std::uint64_t scripted_faults{0};    ///< FaultEvent entries fired
  std::uint64_t stochastic_crashes{0}; ///< CrashProcess crashes
  std::uint64_t brownouts{0};          ///< brown-out crashes
  std::uint64_t permanent_deaths{0};   ///< batteries that went flat
};

class FaultInjector {
 public:
  FaultInjector(sim::SimContext& context, const FaultPlan& plan);

  /// Registers one sensor node, in roster order: the first call describes
  /// the node with channel id 1 — the id FaultPlan clauses call "node 1".
  void add_node(mac::NodeMacBase& mac, hw::Board& board);

  /// Replaces the channel's frame-error model with the composition of the
  /// plan's impairments over the base model: `link_model` (nullable) with
  /// the momentary extra path loss folded into its SNR, then the direct
  /// frame-error floors of fade / interferer / shadow episodes, combined as
  /// independent corruption chances: total = 1 - prod(1 - p_i).
  void install_error_model(phy::Channel& channel,
                           const phy::LinkModel* link_model);

  /// Arms every process of the plan (call once, after add_node calls, just
  /// before the cell starts running).
  void start();

  /// Stops the recurring processes (fade chain, crash churn, brown-out
  /// sampling) re-arming themselves, letting the event set drain.  Already
  /// scheduled reboots still fire, so crashed nodes come back.
  void stop();

  /// Restores freshly-constructed state for a new (same-activeness) plan,
  /// keeping the node registrations and any installed error model.  Call
  /// after the SimContext was reset so the fade/crash streams re-derive
  /// from the run's new seed; start() arms the new plan.
  void reset(const FaultPlan& plan);

  [[nodiscard]] bool fading_now() const { return fade_bad_; }
  [[nodiscard]] const FaultInjectorStats& stats() const { return stats_; }

 private:
  struct NodeRec {
    mac::NodeMacBase* mac{nullptr};
    hw::Board* board{nullptr};
    hw::EnergyStore battery;
    double drawn_joules{0.0};  ///< board energy already charged to the cell
    bool dead{false};          ///< battery flat: never reboots again
  };

  void step_fade();
  void step_crash_churn();
  void step_brownout();
  void fire_event(const FaultEvent& event);

  [[nodiscard]] double composed_fer(const phy::LinkModel* link_model,
                                    std::uint32_t tx, std::uint32_t rx,
                                    std::size_t bytes) const;
  [[nodiscard]] double board_joules(const NodeRec& rec) const;
  [[nodiscard]] bool interferer_burst_now() const;

  sim::SimContext& context_;
  FaultPlan plan_;
  std::vector<NodeRec> nodes_;
  sim::Rng fade_rng_;
  sim::Rng crash_rng_;
  bool fade_bad_{false};
  bool stopped_{false};
  bool started_{false};
  FaultInjectorStats stats_;
};

}  // namespace bansim::fault
