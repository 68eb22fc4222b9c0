// Campaign orchestrator: shard dispatch, worker processes, crash recovery,
// and the worker-health layer (watchdog, retry budgets, quarantine).
//
// `run_campaign` loads the manifest, diffs the planned shard list against
// the store's completed records, and executes only what is missing — which
// makes a first run and a resume the same operation ("resume" is just a
// run over a non-empty store).  Every invocation claims a fresh
// generation; its writers never touch older segments, so nothing a crashed
// run left behind can be damaged by recovering from it.
//
// Two execution modes:
//  * workers == 0 — in-process: one ShardRunner executes remaining shards
//    in index order in this process (used by tests and the fuzzer's
//    shard-resume oracle, where fork() is off the table);
//  * workers >= 1 — multi-process: the orchestrator re-execs its own
//    binary (/proc/self/exe) `workers` times in worker mode and feeds
//    shard indices over a pipe work-queue, one in flight per worker.
//    Workers append results to their own segment and speak a heartbeat
//    protocol on the reply pipe — "start <k>" when a shard begins,
//    "hb <k>" after every patient, "done <k>" when the record is durable.
//
// Worker health (DESIGN.md §5i).  The poll loop ticks on a bounded
// timeout; a worker whose heartbeat gap exceeds its shard deadline
// (clamp(deadline_factor x trailing per-variant runtime estimate,
// deadline_floor_ms, deadline_ceiling_ms) — all manifest knobs) is
// declared hung, SIGKILLed, and reaped, and its in-flight shard is
// requeued.  Every failed attempt (hang, worker death by signal, nonzero
// worker exit) charges the shard's retry budget; a requeued shard waits
// out an exponential backoff before redispatch, and a shard that exhausts
// `retry_budget` attempts is written to the store as a kQuarantine record:
// skipped by every later resume, surfaced by report/verify as an explicit
// gap.  A campaign whose only missing shards are quarantined is "complete
// except quarantined", not incomplete.  Workers optionally run under
// setrlimit CPU/address-space caps so a runaway shard dies (and charges
// its budget) instead of taking the host down; SIGTERM to the
// orchestrator or a worker triggers a clean shutdown that finishes
// in-flight shards and flushes a final checkpoint.
//
// Worker mode is entered through maybe_worker_main(), which every binary
// that calls run_campaign with workers >= 1 must invoke at the top of
// main() — the child finds its way back into worker code through the
// sentinel argv, not through a separate executable, so CMake needs no
// binary-path plumbing and the test binary's workers run the test build.
//
// Chaos hooks (tests and CI only).  worker_chaos is a comma-separated
// list of specs:
//  * "<ordinal>:<mid|torn|post|hang>" — armed only in the FIRST worker of
//    the run, fires at its <ordinal>-th executed shard: SIGKILL before
//    the record ("mid"), halfway through the record write ("torn"), after
//    the record but before the "done" reply ("post"), or wedge forever
//    ("hang", the watchdog's prey);
//  * "shard=<k>:<hang|crash>" — a poison shard: EVERY worker that
//    executes global shard k wedges forever or SIGKILLs itself, which is
//    what drives a shard into quarantine.
// die_after_shards SIGKILLs the whole process group mid-campaign, the
// outside-in version the CI kill-and-resume smoke drives.
// stop_after_shards is the polite variant: stop dispatching after N
// completions and return, leaving a valid partial store (the fuzzer's
// split-point lever).
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>

#include "campaign/manifest.hpp"

namespace bansim::campaign {

struct RunCampaignOptions {
  /// 0 = in-process execution; N >= 1 forks N worker processes.
  unsigned workers{0};
  /// Append a checkpoint record every N completed shards per worker.
  std::size_t checkpoint_every{4};
  /// Replace a dead worker with a fresh one (new worker id, same
  /// generation) as long as work remains.
  bool respawn_dead_workers{true};

  /// Exponential-backoff base for redispatching a failed shard: attempt
  /// n waits base * 2^(n-1) ms, capped at 2 s.  Execution policy, not
  /// campaign definition — hence here and not the manifest.
  std::uint32_t backoff_base_ms{50};
  /// setrlimit caps applied inside each worker (0 = unlimited): CPU
  /// seconds (RLIMIT_CPU; overrun delivers SIGXCPU) and address-space MiB
  /// (RLIMIT_AS; overrun fails allocations).  Either death charges the
  /// in-flight shard's retry budget like any other crash.
  std::uint32_t worker_cpu_limit_s{0};
  std::uint32_t worker_mem_limit_mb{0};

  /// Chaos: stop dispatching after this many newly completed shards and
  /// return normally (0 = run to completion).  The store is left valid
  /// but incomplete — a later run resumes it.
  std::size_t stop_after_shards{0};
  /// Chaos: after this many newly completed shards, SIGKILL every worker
  /// and then this process itself (0 = never).  No shard beyond them is
  /// dispatched, so exactly this many become durable.  Nothing after the
  /// kill runs; the caller observes it as a fork()ed child that died.
  std::size_t die_after_shards{0};
  /// Chaos spec list (see the header comment).  Empty = no chaos.
  /// Multi-process mode only.
  std::string worker_chaos{};
};

struct RunCampaignResult {
  std::uint32_t generation{0};
  std::size_t shards_total{0};
  /// Already durable before this run started (the resume diff).
  std::size_t shards_already_complete{0};
  /// Newly completed (and durable) by this run.
  std::size_t shards_run{0};
  /// Quarantined by an earlier run (durable kQuarantine records) and
  /// therefore skipped by this one.
  std::size_t shards_already_quarantined{0};
  /// Newly quarantined by this run (retry budget exhausted).
  std::size_t shards_quarantined{0};
  unsigned workers_spawned{0};
  unsigned workers_died{0};
  /// Workers SIGKILLed by the watchdog for missing a shard deadline
  /// (also counted in workers_died).
  unsigned workers_hung{0};
  /// True when the run returned with shards that are neither durable nor
  /// quarantined — a chaos/SIGTERM stop, or worker exhaustion.
  bool incomplete{false};

  /// Every planned shard is accounted for, but some only by quarantine —
  /// the "complete except quarantined" terminal state (CLI exit 5).
  [[nodiscard]] bool complete_except_quarantined() const {
    return !incomplete &&
           shards_quarantined + shards_already_quarantined > 0;
  }
};

/// Creates the campaign directory: manifest.ini + base_config.ini.
/// Throws StoreError if `dir` already holds a manifest.
void create_campaign(const std::filesystem::path& dir, const CampaignSpec& spec,
                     const core::BanConfig& base);

/// Runs (or resumes — same thing) the campaign at `dir`.  Returns once
/// every planned shard is durable or quarantined, or earlier under chaos
/// options / SIGTERM.
[[nodiscard]] RunCampaignResult run_campaign(const std::filesystem::path& dir,
                                             const RunCampaignOptions& options);

/// Worker-mode entry hook.  Call first in main(); returns -1 when argv is
/// not a worker invocation (normal startup continues), else runs the
/// worker loop to completion and returns its exit code (return it from
/// main immediately).
[[nodiscard]] int maybe_worker_main(int argc, char** argv);

}  // namespace bansim::campaign
