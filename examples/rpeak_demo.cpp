// On-node R-peak detection scenario (paper Section 5.2): instead of
// streaming raw ECG, each node runs the beat detector locally and sends a
// 5-byte event per beat.  The demo shows the detected beat train against
// the synthetic ground truth and quantifies the energy saved versus
// streaming — the paper's Figure 4 argument, live.
#include <cmath>
#include <cstdio>

#include "core/bansim.hpp"

int main() {
  using namespace bansim;
  using sim::Duration;
  using sim::TimePoint;

  core::PaperSetup setup;

  std::printf("=== Rpeak application, 5-node BAN, static TDMA (120 ms) ===\n\n");

  core::BanConfig config =
      core::rpeak_static_config(setup, Duration::milliseconds(120));
  core::BanNetwork network{config};
  const core::RunRecord record =
      core::run(network, {.measure = Duration::seconds(20),
                          .settle = Duration::seconds(1)});
  if (!record.joined) {
    std::printf("network failed to form\n");
    return 1;
  }
  const TimePoint t0 = record.open.at;

  // Ground truth vs what the base station reconstructed from node1.
  const auto truth = network.node(0).ecg().beats_until(network.simulator().now());
  std::printf("node1 ground truth: %zu beats in the observed window "
              "(75 bpm synthetic ECG)\n",
              truth.size());
  std::printf("base station reconstructed %zu beat events (2 channels):\n",
              network.base_station_app().beats().size());
  int shown = 0;
  for (const auto& [node, when] : network.base_station_app().beats()) {
    if (node != 1 || when <= t0 || shown >= 8) continue;
    double best = 1e9;
    for (const TimePoint b : truth) {
      best = std::min(best, std::abs((when - b).to_seconds()));
    }
    std::printf("  beat at t=%8.3f s (nearest true beat: %+6.1f ms)\n",
                when.to_seconds(), best * 1e3);
    ++shown;
  }

  // Energy comparison against streaming (Figure 4).
  std::printf("\ncomputing the Figure 4 comparison (four 60 s runs)...\n\n");
  const core::Figure4Result fig = core::figure4(setup);
  std::printf("%s", fig.render().c_str());

  std::printf("\nper-app detector statistics on node1:\n");
  const auto* app = network.node(0).rpeak_app();
  std::printf("  samples acquired: %llu, beats reported: %llu\n",
              static_cast<unsigned long long>(app->samples_acquired()),
              static_cast<unsigned long long>(app->beats_reported()));
  return 0;
}
