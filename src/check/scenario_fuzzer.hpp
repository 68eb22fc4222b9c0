// Differential scenario fuzzer.
//
// Generates seeded random BAN configurations (node counts, TDMA variants
// and slot plans, application mixes, boot staggering, optional body-area
// link model, optional fault plan: burst fade, interferer, shadowing
// episodes, scripted crash/lock-up/skew events, crash churn, brown-out)
// and runs each through the invariant monitor plus four differential
// oracles:
//
//  * monitor-on vs monitor-off — attaching the InvariantMonitor must leave
//    every metered energy bit-identical (the hooks are pure observers);
//  * reference vs model fidelity — the OS-level estimator must stay within
//    a loose divergence bound of the cycle-accurate reference (it models
//    the same physics minus second-order effects, so an order-of-magnitude
//    gap means a broken estimator, not modelling error);
//  * serial vs parallel ScenarioRunner — the same scenario batch run on
//    one worker and on N workers must produce bit-identical energies;
//  * fault-campaign termination — a faulted config re-run through the
//    campaign runner (injector stopped at the horizon, in-flight faults
//    drained) must close the conservation books with zero violations;
//  * shard-resume — one small campaign run whole and a second run stopped
//    after a seed-chosen shard count then resumed must aggregate to
//    bit-identical per-patient rows and lifetime CDFs (the persistence
//    layer's determinism contract, checked without forking workers).
//
// A failing case reports its seed and a greedily minimized configuration
// serialized as config_io INI, so `bansim_check --seed <s>` reproduces it
// and the INI can be replayed through parse_config directly.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/ban_network.hpp"
#include "sim/time.hpp"

namespace bansim::check {

struct FuzzOptions {
  std::uint64_t start_seed{1};
  std::size_t num_seeds{200};
  /// ScenarioRunner workers for the case battery and the parallel leg of
  /// the serial-vs-parallel oracle (0 = all hardware threads).
  unsigned jobs{1};
  /// Steady-state window simulated after the join phase.
  sim::Duration measure{sim::Duration::milliseconds(400)};
  /// Seeds re-run serially for the serial-vs-parallel oracle.
  std::size_t parallel_oracle_seeds{6};
  /// Greedily minimize failing configurations before reporting.
  bool shrink{true};
};

/// Outcome of one fuzzed seed.
struct CaseOutcome {
  std::uint64_t seed{0};
  bool ok{true};
  std::string failure;     ///< first failing oracle / invariant report
  std::string config_ini;  ///< (minimized) failing config, config_io INI
};

struct FuzzSummary {
  std::size_t cases_run{0};
  std::size_t failures{0};
  std::vector<CaseOutcome> failed;  ///< failing cases only
  bool parallel_oracle_ok{true};
  std::string parallel_oracle_detail;
  bool shard_resume_oracle_ok{true};
  std::string shard_resume_oracle_detail;

  [[nodiscard]] bool ok() const {
    return failures == 0 && parallel_oracle_ok && shard_resume_oracle_ok;
  }
};

/// The seeded random configuration for one fuzz case.  Deterministic: the
/// same seed always produces the same BanConfig (drawn from the
/// positionless "fuzz/config" stream of `seed`).
[[nodiscard]] core::BanConfig make_fuzz_config(std::uint64_t seed);

class ScenarioFuzzer {
 public:
  explicit ScenarioFuzzer(FuzzOptions options = {});

  /// Runs the full oracle battery for one seed (three simulations, plus
  /// shrinking re-runs on failure).
  [[nodiscard]] CaseOutcome run_case(std::uint64_t seed) const;

  /// Runs every seed in [start_seed, start_seed + num_seeds) through
  /// run_case on the configured worker pool, then the serial-vs-parallel
  /// oracle on the first parallel_oracle_seeds seeds.
  [[nodiscard]] FuzzSummary run() const;

  [[nodiscard]] const FuzzOptions& options() const { return options_; }

 private:
  /// Full oracle battery for an explicit config; nullopt when clean.
  [[nodiscard]] std::optional<std::string> evaluate(
      const core::BanConfig& config) const;
  /// Flattened per-node/component/state energies of one monitor-free run
  /// (the bit-comparison currency of two oracles).
  [[nodiscard]] std::vector<double> reference_energies(
      const core::BanConfig& config) const;

  FuzzOptions options_;
};

}  // namespace bansim::check
