// Protocol inspection: runs a scenario and prints the MAC analysis a
// protocol engineer tunes against — radio duty cycles, listen windows,
// wake-up rates and beacon cadence jitter — for both applications.
//
// usage: mac_inspector [streaming|rpeak] [cycle_ms] [nodes]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>

#include "core/bansim.hpp"
#include "core/mac_analyzer.hpp"

int main(int argc, char** argv) {
  using namespace bansim;
  using sim::Duration;

  const bool rpeak = argc > 1 && std::strcmp(argv[1], "rpeak") == 0;
  const int cycle_ms = argc > 2 ? std::atoi(argv[2]) : 60;
  const std::size_t nodes =
      argc > 3 ? static_cast<std::size_t>(std::atoi(argv[3])) : 5;

  core::PaperSetup setup;
  setup.static_nodes = nodes;
  core::BanConfig config =
      rpeak ? core::rpeak_static_config(setup, Duration::milliseconds(cycle_ms))
            : core::streaming_static_config(setup,
                                            Duration::milliseconds(cycle_ms));

  core::BanNetwork network{config};
  auto sink = std::make_shared<sim::MemorySink>();
  network.tracer().attach(sink, {sim::TraceCategory::kMac});

  const core::RunRecord record =
      core::run(network, {.measure = Duration::seconds(20),
                          .settle = Duration::seconds(1)});
  if (!record.joined) {
    std::printf("network failed to form\n");
    return 1;
  }

  std::printf("=== %s, %zu nodes, %d ms static TDMA ===\n\n",
              rpeak ? "Rpeak" : "ECG streaming", nodes, cycle_ms);
  const core::MacAnalysis analysis =
      core::analyze_mac(network, sink->records(), record.open.at);
  std::printf("%s\n", analysis.render().c_str());

  std::printf("channel: %llu frames, %llu collisions, %llu bit-error drops\n",
              static_cast<unsigned long long>(network.channel().frames_sent()),
              static_cast<unsigned long long>(network.channel().collisions()),
              static_cast<unsigned long long>(network.channel().bit_error_drops()));
  std::printf("\n%s", network.base_station_app().render_summary().c_str());
  return 0;
}
