// Baseline comparison: the paper's TDMA MAC vs the contention side of the
// zoo — pure ALOHA and beacon-enabled slotted CSMA/CA — on identical
// hardware, swept over offered load.
//
// The artifact the sweep produces is the crossover the paper's design
// implies but never plots: at sparse event traffic the contention MACs
// win on node energy (little or no coordination overhead), while as
// offered load grows their delivery collapses under collisions and their
// retransmission energy climbs — TDMA delivery stays at 100 % for a flat,
// predictable cost.  Slotted CSMA/CA sits between the extremes: it pays
// the TDMA-style beacon-tracking cost but defers to carrier sensing
// instead of a schedule, so it degrades gracefully rather than
// chaotically.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <vector>

#include "core/aloha_network.hpp"
#include "core/bansim.hpp"
#include "sim/scenario_runner.hpp"

namespace {

using namespace bansim;
using sim::Duration;
using sim::TimePoint;

struct MacResult {
  double radio_mj_per_min{0};
  double delivery{0};  ///< unique payloads delivered / generated
  std::uint64_t events{0};
};

MacResult run_aloha(int interval_ms, double seconds) {
  core::AlohaNetworkConfig cfg;
  cfg.num_nodes = 5;
  cfg.payload_interval = Duration::milliseconds(interval_ms);
  cfg.seed = 5;
  core::AlohaNetwork net{cfg};
  net.start();
  net.run_until(TimePoint::zero() + Duration::from_seconds(seconds));

  std::uint64_t generated = 0, lost = 0, queued = 0;
  for (std::size_t i = 0; i < cfg.num_nodes; ++i) {
    generated += net.payloads_generated(i);
    lost += net.node_mac(i).stats().retry_drops +
            net.node_mac(i).stats().payloads_dropped;
    queued += net.node_mac(i).queue_depth();
  }
  MacResult result;
  const double joules = net.node_board(0).radio().meter().total_energy(
      net.simulator().now());
  result.radio_mj_per_min = joules * 1e3 * 60.0 / seconds;
  result.delivery =
      generated > 0 ? 1.0 - static_cast<double>(lost + queued) /
                                static_cast<double>(generated)
                    : 0.0;
  result.events = net.simulator().events_executed();
  return result;
}

MacResult run_tdma(int interval_ms, double seconds) {
  // TDMA carries the same offered load from the same lightweight payload
  // generator ALOHA uses (no sampling app — this is a MAC-layer contest).
  // Its natural operating point couples the cycle to the interval; the
  // cycle floor (one slot wide enough for a burst) caps its capacity.
  core::BanConfig cfg;
  cfg.num_nodes = 5;
  // 30 ms is the shortest cycle whose guard window stays clear of the
  // last data slot; beyond that offered load, TDMA saturates at one frame
  // per cycle and sheds the excess from the queue.
  const int cycle_ms = std::max(30, interval_ms);
  cfg.tdma = mac::TdmaConfig::static_plan(Duration::milliseconds(cycle_ms), 5);
  cfg.app = core::AppKind::kNone;
  cfg.seed = 5;
  core::BanNetwork net{cfg};
  net.start();
  if (!net.run_until_joined(Duration::seconds(1),
                            TimePoint::zero() + Duration::seconds(30))) {
    return {};
  }
  const TimePoint t0 = net.simulator().now();
  const double radio_before =
      net.node(0).board().radio().meter().total_energy(t0);

  // Fixed-rate generator per node, on the simulator clock.
  std::uint64_t generated0 = 0;
  for (std::size_t i = 0; i < cfg.num_nodes; ++i) {
    auto tick = std::make_shared<std::function<void()>>();
    *tick = [&net, i, tick, interval_ms, &generated0] {
      if (i == 0) ++generated0;
      net.node(i).mac().queue_payload(std::vector<std::uint8_t>(18, 0xEC));
      net.simulator().schedule_in(Duration::milliseconds(interval_ms),
                                  *tick);
    };
    net.simulator().schedule_in(Duration::milliseconds(interval_ms), *tick);
  }
  const auto sent_before = net.node(0).mac().stats().data_sent;
  net.run_until(t0 + Duration::from_seconds(seconds));

  MacResult result;
  const double joules = net.node(0).board().radio().meter().total_energy(
                            net.simulator().now()) -
                        radio_before;
  result.radio_mj_per_min = joules * 1e3 * 60.0 / seconds;
  const auto sent = net.node(0).mac().stats().data_sent - sent_before;
  result.delivery =
      generated0 > 0 ? std::min(1.0, static_cast<double>(sent) /
                                         static_cast<double>(generated0))
                     : 1.0;
  result.events = net.simulator().events_executed();
  return result;
}

MacResult run_csma(int interval_ms, double seconds) {
  // Slotted CSMA/CA through the same mac::NodeMacBase seam TDMA uses,
  // carrying the identical fixed-rate generator.  Default superframe
  // geometry (30 ms beacons, CAP only — no GTS) so the contention path
  // itself is what the sweep measures.
  core::BanConfig cfg;
  cfg.num_nodes = 5;
  cfg.mac = core::MacKind::kCsmaCa;
  cfg.app = core::AppKind::kNone;
  cfg.seed = 5;
  core::BanNetwork net{cfg};
  net.start();
  if (!net.run_until_joined(Duration::seconds(1),
                            TimePoint::zero() + Duration::seconds(30))) {
    return {};
  }
  const TimePoint t0 = net.simulator().now();
  const double radio_before =
      net.node(0).board().radio().meter().total_energy(t0);

  std::uint64_t generated0 = 0;
  for (std::size_t i = 0; i < cfg.num_nodes; ++i) {
    auto tick = std::make_shared<std::function<void()>>();
    *tick = [&net, i, tick, interval_ms, &generated0] {
      if (i == 0) ++generated0;
      net.node(i).mac_base().queue_payload(
          std::vector<std::uint8_t>(18, 0xEC));
      net.simulator().schedule_in(Duration::milliseconds(interval_ms),
                                  *tick);
    };
    net.simulator().schedule_in(Duration::milliseconds(interval_ms), *tick);
  }
  const auto sent_before = net.node(0).mac_base().stats_snapshot().data_sent;
  net.run_until(t0 + Duration::from_seconds(seconds));

  MacResult result;
  const double joules = net.node(0).board().radio().meter().total_energy(
                            net.simulator().now()) -
                        radio_before;
  result.radio_mj_per_min = joules * 1e3 * 60.0 / seconds;
  const auto sent =
      net.node(0).mac_base().stats_snapshot().data_sent - sent_before;
  result.delivery =
      generated0 > 0 ? std::min(1.0, static_cast<double>(sent) /
                                         static_cast<double>(generated0))
                     : 1.0;
  result.events = net.simulator().events_executed();
  return result;
}

void print_reproduction(unsigned jobs) {
  std::printf(
      "MAC comparison: static TDMA (paper) vs slotted CSMA/CA vs ALOHA\n"
      "5 nodes, 18-byte payloads, node radio energy normalized to mJ/min\n\n");
  std::printf("%14s | %12s %9s | %12s %9s | %12s %9s\n", "payload every",
              "TDMA mJ/min", "delivery", "CSMA mJ/min", "delivery",
              "ALOHA mJ/min", "delivery");
  std::printf("%s\n", std::string(90, '-').c_str());

  // Every (interval, MAC) triple is an isolated simulation; scenario 3i is
  // TDMA, 3i+1 CSMA/CA, and 3i+2 ALOHA for interval i, so the printed
  // table is identical for any worker count.
  const std::vector<int> intervals = {200, 100, 60, 30, 12, 6};
  std::vector<std::function<MacResult()>> scenarios;
  for (const int interval_ms : intervals) {
    scenarios.push_back([interval_ms] { return run_tdma(interval_ms, 30.0); });
    scenarios.push_back([interval_ms] { return run_csma(interval_ms, 30.0); });
    scenarios.push_back([interval_ms] { return run_aloha(interval_ms, 30.0); });
  }
  sim::ScenarioRunner runner{jobs};
  const auto results = runner.run(scenarios);

  std::uint64_t events = 0;
  for (std::size_t i = 0; i < intervals.size(); ++i) {
    const MacResult& tdma = results[3 * i];
    const MacResult& csma = results[3 * i + 1];
    const MacResult& aloha = results[3 * i + 2];
    events += tdma.events + csma.events + aloha.events;
    std::printf("%11d ms | %12.1f %8.1f%% | %12.1f %8.1f%% | %12.1f %8.1f%%\n",
                intervals[i], tdma.radio_mj_per_min, tdma.delivery * 100,
                csma.radio_mj_per_min, csma.delivery * 100,
                aloha.radio_mj_per_min, aloha.delivery * 100);
  }
  std::printf(
      "\nsweep: %zu scenarios, %llu kernel events, %.2f s wall (jobs=%u), "
      "%.2f Mevents/s\n",
      results.size(), static_cast<unsigned long long>(events),
      runner.last_wall_seconds(), runner.jobs(),
      static_cast<double>(events) / runner.last_wall_seconds() / 1e6);
  std::printf(
      "\n(TDMA pays a flat beacon-tracking cost, keeps ~100%% delivery up to "
      "its slot capacity\n (one frame per 30 ms cycle) and sheds excess load "
      "deterministically; slotted CSMA/CA\n pays the same beacon tax plus a "
      "backoff lottery per frame, degrading gracefully as\n the CAP "
      "saturates; ALOHA is cheapest for sparse event traffic but collapses\n "
      "chaotically under load, burning more energy per delivered frame.  The "
      "BAN streaming\n workload sits on the TDMA side of both crossovers — "
      "the paper's design choice.)\n\n");
}

void BM_TdmaPoint(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        run_tdma(static_cast<int>(state.range(0)), 10.0));
  }
}
BENCHMARK(BM_TdmaPoint)->Arg(60)->Unit(benchmark::kMillisecond)->Iterations(1);

void BM_CsmaPoint(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        run_csma(static_cast<int>(state.range(0)), 10.0));
  }
}
BENCHMARK(BM_CsmaPoint)->Arg(60)->Unit(benchmark::kMillisecond)->Iterations(1);

void BM_AlohaPoint(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        run_aloha(static_cast<int>(state.range(0)), 10.0));
  }
}
BENCHMARK(BM_AlohaPoint)->Arg(60)->Unit(benchmark::kMillisecond)->Iterations(1);

}  // namespace

int main(int argc, char** argv) {
  const unsigned jobs = bansim::sim::consume_jobs_flag(argc, argv, 0);
  // JSON mode keeps stdout machine-parseable by skipping the human-facing
  // reproduction table.
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_format=json", 23) == 0) {
      json = true;
    }
  }
  if (!json) {
    print_reproduction(jobs);
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
