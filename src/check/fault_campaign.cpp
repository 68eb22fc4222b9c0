#include "check/fault_campaign.hpp"

#include <limits>

#include "check/invariant_monitor.hpp"
#include "core/experiment.hpp"

namespace bansim::check {

CampaignOutcome run_fault_campaign(const core::BanConfig& config,
                                   const CampaignOptions& options) {
  core::BanNetwork network{config};
  InvariantMonitor monitor{network.context()};
  monitor.watch_network(network);
  (void)core::run(network, {.measure = options.horizon,
                            .join_deadline = {},
                            .drain = options.drain});
  const sim::TimePoint end = network.simulator().now();
  monitor.final_audit(end);

  CampaignOutcome outcome;
  outcome.run.duration = end.since_epoch();
  const auto& per_node = network.base_station_app().per_node();
  for (std::size_t i = 0; i < network.num_nodes(); ++i) {
    core::SensorNode& node = network.node(i);
    fault::NodeOutcome row;
    row.node = node.name();
    const mac::MacStatsSnapshot stats = node.mac_base().stats_snapshot();
    row.payloads_generated = stats.payloads_queued;
    const auto it = per_node.find(node.address());
    row.payloads_delivered = it != per_node.end() ? it->second.packets : 0;
    row.energy_joules = node.energy(end).total_joules();
    row.crashes = stats.crashes;
    row.reboots = stats.reboots;
    row.resyncs = stats.resyncs;
    row.resync_times = node.mac_base().resync_times();
    row.rejoin_times = node.mac_base().rejoin_times();
    outcome.run.nodes.push_back(std::move(row));
  }
  if (auto* injector = network.fault_injector()) {
    outcome.injector = injector->stats();
  }
  if (auto* driver = network.storage_driver()) {
    outcome.storage = driver->stats();
  }
  outcome.violations = monitor.total_violations();
  outcome.violation_report = monitor.report();
  return outcome;
}

LifetimeOutcome run_lifetime_campaign(const core::BanConfig& config,
                                      const LifetimeCampaignOptions& options) {
  core::BanNetwork network{config};
  InvariantMonitor monitor{network.context()};
  monitor.watch_network(network);
  const core::RunRecord record =
      core::run(network, {.measure = options.horizon,
                          .join_deadline = {},
                          .poll = options.poll});
  const sim::TimePoint end = record.close.at;
  monitor.final_audit(end);

  LifetimeOutcome outcome;
  outcome.simulated = end.since_epoch();
  outcome.report.window_seconds = outcome.simulated.to_seconds();
  const fault::StorageDriver* driver = network.storage_driver();
  std::vector<fault::NodeStorageStatus> statuses;
  if (driver != nullptr) {
    outcome.storage = driver->stats();
    outcome.death_observed = driver->stats().depletion_deaths > 0;
    outcome.first_death = driver->first_death();
    statuses = driver->status();
  }

  const double window_s = outcome.report.window_seconds;
  for (std::size_t i = 0; i < network.num_nodes(); ++i) {
    core::SensorNode& node = network.node(i);
    energy::LifetimeRow row;
    row.node = node.name();
    row.average_watts =
        window_s > 0.0 ? record.close.joules[i].total() / window_s : 0.0;
    if (const hw::EnergyStore* store = node.energy_store()) {
      const hw::StorageParams& params = store->params();
      row.harvest_watts =
          params.harvest.enabled ? params.harvest.average_watts() : 0.0;
      row.state_of_charge = store->state_of_charge();
      row.projected_hours =
          hw::projected_hours(params, row.average_watts, row.harvest_watts);
      for (const fault::NodeStorageStatus& s : statuses) {
        if (s.node != row.node) continue;
        row.died = s.dead;
        if (s.deaths > 0) {
          row.died_at_hours = s.died_at.to_seconds() / 3600.0;
        }
        break;
      }
    } else {
      // Bench-supplied node: it never dies, its lifetime is unbounded.
      row.state_of_charge = 1.0;
      row.projected_hours = std::numeric_limits<double>::infinity();
    }
    outcome.report.rows.push_back(std::move(row));
  }
  outcome.violations = monitor.total_violations();
  outcome.violation_report = monitor.report();
  return outcome;
}

}  // namespace bansim::check
