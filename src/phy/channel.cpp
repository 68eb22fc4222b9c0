#include "phy/channel.hpp"

#include <algorithm>
#include <cassert>

#include "sim/check_hooks.hpp"

namespace bansim::phy {

Channel::Channel(sim::SimContext& context)
    : context_{context}, simulator_{context.simulator},
      tracer_{context.tracer} {}

std::uint32_t Channel::attach(MediumListener& listener) {
  listeners_.push_back(&listener);
  const auto id = static_cast<std::uint32_t>(listeners_.size() - 1);
  for (auto& row : links_) row.push_back(true);
  links_.emplace_back(listeners_.size(), true);
  links_[id][id] = false;  // a radio never hears itself
  return id;
}

void Channel::set_link(std::uint32_t a, std::uint32_t b, bool connected) {
  assert(a < listeners_.size() && b < listeners_.size());
  links_[a][b] = connected;
  links_[b][a] = connected;
}

bool Channel::link(std::uint32_t a, std::uint32_t b) const {
  return links_[a][b];
}

bool Channel::busy_at(std::uint32_t rx_id) const {
  for (const AirFrame& f : in_flight_) {
    if (f.tx_id == rx_id) continue;
    if (links_[f.tx_id][rx_id]) return true;
  }
  return false;
}

void Channel::detect_collisions() {
  for (std::size_t i = 0; i < in_flight_.size(); ++i) {
    for (std::size_t j = i + 1; j < in_flight_.size(); ++j) {
      AirFrame& fa = in_flight_[i];
      AirFrame& fb = in_flight_[j];
      if (fa.corrupted && fb.corrupted) continue;
      // Overlap in time is guaranteed (both are in flight now); corrupt the
      // pair if any receiver can hear both transmitters, or the
      // transmitters hear each other.
      bool shared_receiver = links_[fa.tx_id][fb.tx_id];
      for (std::size_t r = 0; !shared_receiver && r < listeners_.size(); ++r) {
        shared_receiver = links_[fa.tx_id][r] && links_[fb.tx_id][r];
      }
      if (shared_receiver) {
        if (!fa.corrupted || !fb.corrupted) {
          ++collisions_;
          if (auto* hooks = context_.check_hooks()) {
            hooks->on_collision(this, fa.id, fb.id);
          }
        }
        fa.corrupted = true;
        fb.corrupted = true;
        tracer_.emit(simulator_.now(), sim::TraceCategory::kChannel,
                     sim::TraceNodeId{0}, [&](sim::TraceMessage& m) {
                       m << "collision between tx" << fa.tx_id << " and tx"
                         << fb.tx_id;
                     });
      }
    }
  }
}

void Channel::transmit(std::uint32_t tx_id, std::vector<std::uint8_t> bytes,
                       sim::Duration duration) {
  assert(tx_id < listeners_.size());
  AirFrame frame;
  frame.id = ++frames_sent_;
  frame.tx_id = tx_id;
  frame.bytes = std::move(bytes);
  frame.start = simulator_.now() + propagation_;
  frame.duration = duration;

  const std::uint64_t key = frame.id;
  const std::size_t frame_bytes = frame.bytes.size();
  if (auto* hooks = context_.check_hooks()) {
    hooks->on_frame_transmit(this, frame.id, tx_id, frame.bytes.data(),
                             frame_bytes, frame.start, frame.duration);
  }
  in_flight_.push_back(std::move(frame));
  detect_collisions();

  tracer_.emit(simulator_.now(), sim::TraceCategory::kChannel,
               sim::TraceNodeId{0}, [&](sim::TraceMessage& m) {
                 m << "frame on air from tx" << tx_id << " (" << frame_bytes
                   << " B, " << duration << ")";
               });

  // Frame-start notification after propagation.
  simulator_.schedule_in(propagation_, [this, key] {
    for (const AirFrame& f : in_flight_) {
      if (f.id == key) {
        for (std::size_t r = 0; r < listeners_.size(); ++r) {
          if (links_[f.tx_id][r]) listeners_[r]->on_frame_start(f);
        }
        return;
      }
    }
  });

  // Frame-end: deliver with the *final* corruption state, then retire.
  simulator_.schedule_in(propagation_ + duration, [this, key] {
    auto it = std::find_if(in_flight_.begin(), in_flight_.end(),
                           [key](const AirFrame& f) { return f.id == key; });
    if (it == in_flight_.end()) return;
    const AirFrame done = std::move(*it);
    in_flight_.erase(it);
    sim::CheckHooks* hooks = context_.check_hooks();
    if (hooks) hooks->on_frame_retired(this, done.id, done.corrupted);
    for (std::size_t r = 0; r < listeners_.size(); ++r) {
      if (!links_[done.tx_id][r]) continue;
      bool corrupted = done.corrupted;
      if (!corrupted && error_model_) {
        const double per = error_model_(
            done.tx_id, static_cast<std::uint32_t>(r), done.bytes.size());
        if (per > 0.0 && rng_.chance(per)) {
          corrupted = true;
          ++bit_error_drops_;
        }
      }
      if (hooks) {
        hooks->on_frame_delivered(this, done.id,
                                  static_cast<std::uint32_t>(r), corrupted);
      }
      listeners_[r]->on_frame_end(done, corrupted);
    }
  });
}

}  // namespace bansim::phy
