// Shared fault-campaign runner: one BanConfig in, raw per-node outcomes
// out, with an InvariantMonitor attached for the whole run.
//
// Both bansim_cli (--fault-plan) and the campaign tests funnel through
// this so "run a campaign" means the same thing everywhere: build the
// cell and hand it to core::run with no join phase — the window is the
// horizon, after which the injector's recurring processes stop and
// in-flight faults drain (scheduled reboots still fire, so crashed nodes
// come back) — then final-audit the conservation invariants.  The faulted
// and fault-free runs of a DegradationReport are two calls with the same
// config, fault plan enabled and disabled.
#pragma once

#include <cstdint>
#include <string>

#include "core/ban_network.hpp"
#include "energy/lifetime.hpp"
#include "fault/degradation_report.hpp"
#include "fault/fault_injector.hpp"
#include "fault/storage_driver.hpp"

namespace bansim::check {

struct CampaignOptions {
  sim::Duration horizon{sim::Duration::seconds(20)};
  /// Extra run time after the injector stops re-arming its processes, so
  /// the final audit sees a quiesced cell (rebooted nodes rejoined, frames
  /// off the air).
  sim::Duration drain{sim::Duration::seconds(2)};
};

struct CampaignOutcome {
  fault::CampaignRun run;
  fault::FaultInjectorStats injector{};
  fault::StorageDriverStats storage{};
  std::uint64_t violations{0};
  std::string violation_report;
};

[[nodiscard]] CampaignOutcome run_fault_campaign(
    const core::BanConfig& config, const CampaignOptions& options = {});

/// "Run until first node death" options.  The campaign advances the cell
/// in fixed polling chunks (deterministic boundaries) until a store runs
/// dry — the ward's deployment-ending event — or the horizon passes, then
/// extrapolates every node's lifetime from its measured average power over
/// the simulated window.
struct LifetimeCampaignOptions {
  sim::Duration horizon{sim::Duration::seconds(30)};
  /// Chunk between death polls; boundaries are fixed multiples, so a run
  /// is bit-identical however fast the stores drain.
  sim::Duration poll{sim::Duration::milliseconds(500)};
};

struct LifetimeOutcome {
  energy::LifetimeReport report;
  fault::StorageDriverStats storage{};
  sim::Duration simulated{};      ///< how far the run actually went
  bool death_observed{false};
  sim::TimePoint first_death{};   ///< valid when death_observed
  std::uint64_t violations{0};
  std::string violation_report;
};

[[nodiscard]] LifetimeOutcome run_lifetime_campaign(
    const core::BanConfig& config, const LifetimeCampaignOptions& options = {});

}  // namespace bansim::check
