// Quickstart: build the paper's 5-node BAN (ECG streaming over static
// TDMA), run it for a few seconds of simulated time, and print the energy
// breakdown of every node.
#include <cstdio>

#include "core/bansim.hpp"

int main() {
  using namespace bansim;
  using sim::Duration;

  // The paper's headline configuration: 5 ECG nodes, 30 ms static TDMA
  // cycle, 205 Hz sampling, 18-byte payload per cycle.
  core::PaperSetup setup;
  core::BanConfig config =
      core::streaming_static_config(setup, Duration::milliseconds(30));
  config.streaming.sample_rate_hz = 205;

  // Let the network form, then observe 10 s of steady state.
  core::BanNetwork network{config};
  const core::RunRecord record =
      core::run(network, {.measure = Duration::seconds(10),
                          .settle = Duration::seconds(1)});
  if (!record.joined) {
    std::printf("network failed to form\n");
    return 1;
  }
  std::printf("network formed at t=%s; all %zu nodes hold a TDMA slot\n",
              record.open.at.to_string().c_str(), network.num_nodes());

  std::printf("\n%s\n", energy::render_energy_table(network.energy_snapshot()).c_str());
  std::printf("%s\n", network.base_station_app().render_summary().c_str());
  std::printf("channel: %llu frames, %llu collisions\n",
              static_cast<unsigned long long>(network.channel().frames_sent()),
              static_cast<unsigned long long>(network.channel().collisions()));
  return 0;
}
