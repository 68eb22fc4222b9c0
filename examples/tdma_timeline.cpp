// TDMA protocol visualizer: renders the static (Figure 2) or dynamic
// (Figure 3) MAC timeline as ASCII — beacons, slot requests, grants and
// data slots — straight from the simulator's trace stream.
//
// usage: tdma_timeline [static|dynamic] [nodes]
//
// nodes is 1..255 (the static slot table is 8-bit) and defaults to 3; any
// other argument is one `error:` line and exit status 2.
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "core/bansim.hpp"

int main(int argc, char** argv) {
  using namespace bansim;
  using sim::Duration;

  const std::string kind = argc > 1 ? argv[1] : "static";
  const char* count = argc > 2 ? argv[2] : "3";
  errno = 0;
  char* end = nullptr;
  const std::size_t nodes = std::strtoul(count, &end, 10);
  if (argc > 3 || (kind != "static" && kind != "dynamic") ||
      !std::isdigit(static_cast<unsigned char>(count[0])) || *end != '\0' ||
      errno != 0 || nodes < 1 || nodes > 255) {
    std::fprintf(stderr,
                 "error: usage: tdma_timeline [static|dynamic] [nodes 1..255]"
                 "\n");
    return 2;
  }
  const bool dynamic = kind == "dynamic";

  core::BanConfig config;
  config.num_nodes = nodes;
  config.app = core::AppKind::kEcgStreaming;
  if (dynamic) {
    config.protocol = mac::Protocol::kDynamicTdma;
    config.tdma = mac::TdmaConfig::dynamic_plan();
    config.streaming.sample_rate_hz = 100;
  } else {
    config.tdma = mac::TdmaConfig::static_plan(
        Duration::milliseconds(60),
        static_cast<std::uint8_t>(std::max<std::size_t>(nodes, 5)));
    config.streaming.sample_rate_hz = 105;
  }
  config.stagger = Duration::milliseconds(150);

  core::BanNetwork network{config};
  auto sink = std::make_shared<sim::MemorySink>();
  network.tracer().attach(sink, {sim::TraceCategory::kMac});
  network.start();
  network.run_until(sim::TimePoint::zero() + Duration::milliseconds(900));

  std::printf("%s TDMA, %zu nodes — join phase:\n\n",
              dynamic ? "dynamic" : "static", nodes);
  core::TimelineOptions join_window;
  join_window.start = sim::TimePoint::zero();
  join_window.window = Duration::milliseconds(640);
  join_window.bin = Duration::milliseconds(4);
  std::printf("%s\n", core::render_timeline(sink->records(), join_window).c_str());

  std::printf("steady state (one character = 2 ms):\n\n");
  core::TimelineOptions steady;
  steady.start = sim::TimePoint::zero() + Duration::milliseconds(700);
  steady.window = Duration::milliseconds(200);
  steady.bin = Duration::milliseconds(2);
  std::printf("%s", core::render_timeline(sink->records(), steady).c_str());

  if (dynamic) {
    std::printf("\nfinal cycle: %s (grew by one 10 ms slot per admitted node)\n",
                network.base_station_mac().current_cycle().to_string().c_str());
  }
  return 0;
}
