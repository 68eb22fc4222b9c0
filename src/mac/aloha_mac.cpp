#include "mac/aloha_mac.hpp"

namespace bansim::mac {

using namespace os::literals;

AlohaNodeMac::AlohaNodeMac(sim::SimContext& context, os::NodeOs& node_os,
                           const AlohaConfig& config, net::NodeId self,
                           sim::Rng rng)
    : NodeMacBase(context, node_os, config, self, net::kBaseStationId, rng,
                  kMaxQueue, "aloha.ack_timeout"_task, stats_),
      config_{config} {
  os_.radio().set_receive_handler([this](net::Packet&& packet) {
    if (crashed_ || packet.header.type != net::PacketType::kAck) return;
    if (ack_received()) kick();
  });
}

void AlohaNodeMac::start() {
  const std::uint64_t epoch = boot_epoch_;
  os_.radio().init([this, epoch] {
    if (boot_epoch_ != epoch) return;
    ready_ = true;
    kick();
  });
}

void AlohaNodeMac::queue_payload(std::vector<std::uint8_t> payload) {
  if (enqueue(std::move(payload))) kick();
}

void AlohaNodeMac::crash() {
  if (!begin_crash()) return;
  stop_timer(ack_timer_);
  stop_timer(attempt_timer_);
  ready_ = false;
  attempt_pending_ = false;
  end_crash();
}

void AlohaNodeMac::reset_for_reuse(sim::Rng rng) {
  reset_common(rng);
  attempt_pending_ = false;
  ready_ = false;
  attempt_timer_ = kNoTimer;
  stats_ = AlohaNodeStats{};
}

void AlohaNodeMac::kick() {
  if (!ready_ || attempt_pending_ || awaiting_ack_ || tx_queue_.empty()) {
    return;
  }
  attempt_pending_ = true;
  const double dither_s =
      rng_.uniform(0.0, config_.initial_dither.to_seconds());
  attempt_timer_ = os_.timers().start_oneshot(
      "aloha.dither"_task, sim::Duration::from_seconds(dither_s),
      [this] { attempt(); });
}

void AlohaNodeMac::attempt() {
  attempt_timer_ = kNoTimer;
  attempt_pending_ = false;
  if (tx_queue_.empty()) return;
  if (os_.radio().sending() || os_.radio().listening()) {
    // Radio mid-transaction (shouldn't happen in this MAC): retry shortly.
    kick();
    return;
  }
  transmit_head(
      240, [](const net::Packet&) {},
      [this] {
        if (!ack_data_) kick();
      },
      [this](bool given_up) { retry(given_up); });
}

void AlohaNodeMac::retry(bool given_up) {
  if (given_up) {
    kick();
    return;
  }
  const double window_s = config_.backoff_base.to_seconds() *
                          static_cast<double>(1u << (retries_ - 1));
  attempt_pending_ = true;
  attempt_timer_ = os_.timers().start_oneshot(
      "aloha.backoff"_task,
      sim::Duration::from_seconds(rng_.uniform(0.0, window_s)),
      [this] { attempt(); });
}

AlohaBaseStation::AlohaBaseStation(sim::SimContext& context,
                                   os::NodeOs& node_os,
                                   const AlohaConfig& config)
    : BaseStationMacBase(context, node_os, net::kBaseStationId),
      config_{config} {
  os_.radio().set_receive_handler(
      [this](net::Packet&& p) { on_packet(std::move(p)); });
}

void AlohaBaseStation::start() {
  os_.radio().init([this] { os_.radio().start_listen(); });
}

void AlohaBaseStation::reset_for_reuse() { reset_common(); }

void AlohaBaseStation::on_packet(net::Packet&& packet) {
  if (packet.header.type != net::PacketType::kData) return;
  ++stats_.data_received;
  note_source(packet.header.src);
  if (config_.ack_data) {
    net::Packet ack;
    ack.header.dest = packet.header.src;
    ack.header.src = address_;
    ack.header.type = net::PacketType::kAck;
    ack.header.seq = packet.header.seq;
    os_.scheduler().post("bs.send_ack"_task, 120, [this, ack = std::move(ack)] {
      if (os_.radio().sending()) return;
      if (os_.radio().listening()) os_.radio().stop_listen();
      ++stats_.acks_sent;
      os_.radio().send(ack, [this] { os_.radio().start_listen(); });
    });
  }
  deliver(std::move(packet));
}

}  // namespace bansim::mac
