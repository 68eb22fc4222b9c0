#include "fault/storage_driver.hpp"

#include <algorithm>

#include "sim/trace.hpp"

namespace bansim::fault {

StorageDriver::StorageDriver(sim::SimContext& context) : context_{context} {}

void StorageDriver::add_node(mac::NodeMacBase& mac, hw::Board& board,
                             hw::EnergyStore& store) {
  NodeRec rec;
  rec.mac = &mac;
  rec.board = &board;
  rec.store = &store;
  nodes_.push_back(rec);
}

double StorageDriver::board_joules(const NodeRec& rec) const {
  return rec.board->joules(context_.simulator.now()).total();
}

void StorageDriver::start() {
  if (started_) return;
  started_ = true;
  stopped_ = false;
  const sim::TimePoint now = context_.simulator.now();
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    NodeRec& rec = nodes_[i];
    // Energy spent before start() was paid by the bench supply.
    rec.baseline_joules = board_joules(rec);
    rec.sampled_joules = rec.baseline_joules;
    rec.last_sample = now;
    context_.simulator.schedule_in(rec.store->params().check,
                                   [this, i] { step(i); });
  }
}

void StorageDriver::stop() { stopped_ = true; }

void StorageDriver::reset() {
  for (NodeRec& rec : nodes_) {
    rec.baseline_joules = 0.0;
    rec.sampled_joules = 0.0;
    rec.last_sample = sim::TimePoint{};
    rec.dead = false;
    rec.died_at = sim::TimePoint{};
    rec.deaths = 0;
  }
  started_ = false;
  stopped_ = false;
  first_death_ = sim::TimePoint::max();
  stats_ = StorageDriverStats{};
}

void StorageDriver::step(std::size_t i) {
  if (stopped_) return;
  NodeRec& rec = nodes_[i];
  const sim::TimePoint now = context_.simulator.now();

  // Charge the metered delta to the store.  Dead nodes keep being sampled —
  // sleep leakage still meters — so the books close at the final audit.
  const double cumulative = board_joules(rec);
  const double delta = std::max(0.0, cumulative - rec.sampled_joules);
  rec.sampled_joules = cumulative;
  rec.store->draw(delta);

  const hw::StorageParams& params = rec.store->params();
  if (params.harvest.enabled) {
    rec.store->charge(params.harvest.energy_between(rec.last_sample, now));
  }
  rec.last_sample = now;

  if (!rec.dead && rec.store->depleted()) {
    rec.dead = true;
    rec.died_at = now;
    ++rec.deaths;
    ++stats_.depletion_deaths;
    first_death_ = std::min(first_death_, now);
    if (!rec.mac->crashed()) rec.mac->crash();
    context_.tracer.emit(now, sim::TraceCategory::kEnergy, sim::TraceNodeId{0},
                         [&](sim::TraceMessage& m) {
                           m << rec.board->name() << " store dry at "
                             << rec.store->volts() << " V: down";
                         });
  } else if (rec.dead) {
    if (rec.store->can_power_on()) {
      // Harvest lifted a capacitor store back past the turn-on threshold.
      rec.dead = false;
      ++stats_.recharge_reboots;
      if (rec.mac->crashed()) rec.mac->reboot();
      context_.tracer.emit(now, sim::TraceCategory::kEnergy,
                           sim::TraceNodeId{0}, [&](sim::TraceMessage& m) {
                             m << rec.board->name() << " recharged to "
                               << rec.store->volts() << " V: boot";
                           });
    } else if (!rec.mac->crashed()) {
      // A fault-injector reboot (scheduled before we declared the store
      // dead) revived the node without power.  Put it back down; this is
      // not a new depletion.
      ++stats_.zombie_recrashes;
      rec.mac->crash();
    }
  }

  context_.simulator.schedule_in(params.check, [this, i] { step(i); });
}

std::vector<NodeStorageStatus> StorageDriver::status() const {
  std::vector<NodeStorageStatus> out;
  out.reserve(nodes_.size());
  for (const NodeRec& rec : nodes_) {
    NodeStorageStatus s;
    s.node = rec.board->name();
    s.dead = rec.dead;
    s.died_at = rec.died_at;
    s.deaths = rec.deaths;
    s.requested_joules = rec.store->total_draw_requested();
    s.drawn_joules = rec.store->total_drawn();
    s.income_joules = rec.store->total_income();
    s.stored_joules = rec.store->total_stored();
    s.overflow_joules = rec.store->total_overflow();
    s.remaining_joules = rec.store->remaining_joules();
    s.initial_joules = rec.store->initial_joules();
    s.capacity_joules = rec.store->capacity_joules();
    s.state_of_charge = rec.store->state_of_charge();
    s.sampled_joules = rec.sampled_joules;
    s.baseline_joules = rec.baseline_joules;
    out.push_back(std::move(s));
  }
  return out;
}

sim::TimePoint StorageDriver::first_death() const { return first_death_; }

}  // namespace bansim::fault
