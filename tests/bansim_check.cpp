// bansim_check: invariant-monitor + differential-fuzz driver.
//
// Default mode runs a batch of seeded random scenarios (see
// check::ScenarioFuzzer) and exits non-zero if any seed violates an
// invariant or a differential oracle; every failure prints its seed, the
// failing oracle and a minimized config_io INI, plus the exact replay
// command.  `--seed S` replays one seed verbosely.
//
//   bansim_check [--seeds N] [--start S] [--seed S] [--jobs N]
//                [--measure-ms M] [--no-shrink] [--dump-failures DIR]
//
// `--dump-failures DIR` additionally writes each failing case as a
// standalone replayable INI (`DIR/seed_<S>.ini`, minimized config plus the
// failure and replay command as comments) — CI uploads that directory as
// an artifact so a red fuzz run ships its repro.
//
// The `fuzz_smoke` ctest target runs `bansim_check --seeds 1000 --jobs 0`.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>

#include "check/scenario_fuzzer.hpp"
#include "core/config_io.hpp"

namespace {

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--seeds N] [--start S] [--seed S] [--jobs N]\n"
               "          [--measure-ms M] [--no-shrink] "
               "[--dump-failures DIR]\n",
               argv0);
}

bool parse_u64(const char* text, std::uint64_t& out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') return false;
  out = static_cast<std::uint64_t>(v);
  return true;
}

void print_failure(const bansim::check::CaseOutcome& outcome,
                   const char* argv0) {
  std::printf("FAIL seed %llu\n%s\n",
              static_cast<unsigned long long>(outcome.seed),
              outcome.failure.c_str());
  std::printf("minimized config:\n%s\n", outcome.config_ini.c_str());
  std::printf("replay: %s --seed %llu\n\n", argv0,
              static_cast<unsigned long long>(outcome.seed));
}

/// Writes one failing case as DIR/seed_<S>.ini: the minimized config with
/// the failure and replay command up top as INI comments, so the artifact
/// is both human-readable and directly loadable through parse_config.
void dump_failure(const std::string& dir,
                  const bansim::check::CaseOutcome& outcome,
                  const char* argv0) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  const std::string path =
      dir + "/seed_" + std::to_string(outcome.seed) + ".ini";
  std::ofstream file{path};
  if (!file) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  file << "; bansim_check fuzz failure, seed " << outcome.seed << "\n";
  file << "; replay: " << argv0 << " --seed " << outcome.seed << "\n";
  std::istringstream failure{outcome.failure};
  for (std::string line; std::getline(failure, line);) {
    file << "; " << line << "\n";
  }
  file << outcome.config_ini;
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  bansim::check::FuzzOptions options;
  options.jobs = 1;
  bool single_seed = false;
  std::uint64_t replay_seed = 0;
  std::optional<std::string> dump_dir;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto value = [&](std::uint64_t& out) {
      if (i + 1 >= argc || !parse_u64(argv[++i], out)) {
        std::fprintf(stderr, "bad value for %s\n", arg);
        usage(argv[0]);
        std::exit(2);
      }
    };
    std::uint64_t v = 0;
    if (std::strcmp(arg, "--seeds") == 0) {
      value(v);
      options.num_seeds = static_cast<std::size_t>(v);
    } else if (std::strcmp(arg, "--start") == 0) {
      value(v);
      options.start_seed = v;
    } else if (std::strcmp(arg, "--seed") == 0) {
      value(v);
      single_seed = true;
      replay_seed = v;
    } else if (std::strcmp(arg, "--jobs") == 0) {
      value(v);
      options.jobs = static_cast<unsigned>(v);
    } else if (std::strcmp(arg, "--measure-ms") == 0) {
      value(v);
      options.measure =
          bansim::sim::Duration::milliseconds(static_cast<std::int64_t>(v));
    } else if (std::strcmp(arg, "--no-shrink") == 0) {
      options.shrink = false;
    } else if (std::strcmp(arg, "--dump-failures") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "bad value for %s\n", arg);
        usage(argv[0]);
        return 2;
      }
      dump_dir = argv[++i];
    } else if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
      usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg);
      usage(argv[0]);
      return 2;
    }
  }

  const bansim::check::ScenarioFuzzer fuzzer{options};

  if (single_seed) {
    std::printf("replaying seed %llu:\n%s\n",
                static_cast<unsigned long long>(replay_seed),
                bansim::core::serialize_config(
                    bansim::check::make_fuzz_config(replay_seed))
                    .c_str());
    const auto outcome = fuzzer.run_case(replay_seed);
    if (!outcome.ok) {
      print_failure(outcome, argv[0]);
      if (dump_dir) dump_failure(*dump_dir, outcome, argv[0]);
      return 1;
    }
    std::printf("seed %llu: OK (all invariants + oracles)\n",
                static_cast<unsigned long long>(replay_seed));
    return 0;
  }

  const auto summary = fuzzer.run();
  for (const auto& outcome : summary.failed) {
    print_failure(outcome, argv[0]);
    if (dump_dir) dump_failure(*dump_dir, outcome, argv[0]);
  }
  if (!summary.parallel_oracle_ok) {
    std::printf("FAIL %s\n", summary.parallel_oracle_detail.c_str());
  }
  if (!summary.shard_resume_oracle_ok) {
    std::printf("FAIL %s\n", summary.shard_resume_oracle_detail.c_str());
  }
  std::printf("fuzz: %zu case(s) from seed %llu, %zu failure(s), "
              "parallel oracle %s, shard-resume oracle %s\n",
              summary.cases_run,
              static_cast<unsigned long long>(options.start_seed),
              summary.failures, summary.parallel_oracle_ok ? "ok" : "FAILED",
              summary.shard_resume_oracle_ok ? "ok" : "FAILED");
  return summary.ok() ? 0 : 1;
}
