#!/usr/bin/env bash
# Tier-1 verification: full build (warnings are errors) + full test
# suite (which includes the fuzz_smoke invariant battery), an
# ASan/UBSan build of the memory-sensitive regression surfaces
# (fragment reassembly, energy-meter bounds, event-queue slot arena,
# front register + inline-callback closures and its model check against a
# multimap, simulator loop, scenario runner,
# heterogeneous-roster BAN composition and multi-cell assembly checks,
# invariant monitor, the campaign watchdog/quarantine battery and its
# report reductions, the INI parser, which reads outside input through
# its key table, the
# OS/radio/channel/ECG layers, whose closures live in inline buffers and
# member slots, and the MAC zoo, whose shared core hands `this`-capturing
# continuations to timers and posted tasks and tears them down on a
# crash) plus a small sanitized fuzz run,
# CLI-level kill+resume and poison-shard quarantine smokes, then a
# Release build of the paper program whose stdout must match the same pin
# the RelWithDebInfo ctest case diffs.
#
# usage: scripts/tier1.sh [jobs]
set -euo pipefail

jobs=${1:-$(nproc)}
repo=$(cd "$(dirname "$0")/.." && pwd)

echo "== tier 1: build + ctest =="
cmake -B "$repo/build" -S "$repo" -DBANSIM_WARNINGS_AS_ERRORS=ON
cmake --build "$repo/build" -j "$jobs"
if ! ctest --test-dir "$repo/build" --output-on-failure -j "$jobs"; then
  echo "tier 1: ctest FAILED." >&2
  echo "If fuzz_smoke failed, the log above names the offending seed(s)" >&2
  echo "and the minimized config; replay one interactively with" >&2
  echo "  $repo/build/tests/bansim_check --seed <seed>" >&2
  exit 1
fi

echo "== tier 1: ASan/UBSan regression subset =="
sanitize_tests=(test_delta_fragment test_energy_meter test_event_queue
                test_simulator test_scenario_runner test_heterogeneous_ban
                test_invariant_monitor test_fault_campaigns test_energy_store
                test_lifetime test_run_reset test_run_executor
                test_campaign_store test_campaign_orchestrator
                test_campaign_metrics
                test_config_io test_scheduler test_timer_service test_radio
                test_mac_static test_mac_dynamic test_mac_features
                test_mac_conformance test_aloha test_coexistence
                test_network_builder test_mac_analyzer
                test_radio_driver test_channel test_ecg_rpeak
                test_fuzz_properties)
cmake -B "$repo/build-asan" -S "$repo" -DBANSIM_SANITIZE=ON \
  -DBANSIM_WARNINGS_AS_ERRORS=ON
cmake --build "$repo/build-asan" -j "$jobs" \
  --target "${sanitize_tests[@]}" bansim_check_cli
for t in "${sanitize_tests[@]}"; do
  echo "-- $t (asan) --"
  "$repo/build-asan/tests/$t" --gtest_brief=1
done
echo "-- bansim_check (asan, 10 seeds) --"
"$repo/build-asan/tests/bansim_check" --seeds 10
# The seeds that once failed (tests/CMakeLists.txt's fuzz_replay cases).
for seed in 224 576 324 438; do
  echo "-- bansim_check (asan, seed $seed) --"
  "$repo/build-asan/tests/bansim_check" --seed "$seed"
done

echo "== tier 1: campaign kill-at-50%-then-resume smoke =="
# Drive the resumable orchestrator through its CLI exactly the way a crash
# would: run a 16-shard campaign to completion, run the same campaign again
# but SIGKILL the whole process tree at 8 shards, resume the survivor, and
# require the two report artifacts to be byte-identical.
campdir=$(mktemp -d)
trap 'rm -rf "$campdir"' EXIT
camp="$repo/build/examples/bansim_campaign"
spec=(--patients 16 --shard-size 2 --measure-ms 300 --workers 2
      --protocols static_tdma,csma_ca)
"$camp" run "$campdir/whole" "${spec[@]}" >/dev/null
"$camp" report "$campdir/whole" > "$campdir/whole.txt"
kill_rc=0
"$camp" run "$campdir/killed" "${spec[@]}" --die-after 8 >/dev/null \
  || kill_rc=$?
if [ "$kill_rc" -ne 137 ]; then
  echo "tier 1: expected --die-after to die by SIGKILL (137), got $kill_rc" >&2
  exit 1
fi
"$camp" resume "$campdir/killed" --workers 2 >/dev/null
"$camp" verify "$campdir/killed" >/dev/null
"$camp" report "$campdir/killed" > "$campdir/killed.txt"
if ! diff -u "$campdir/whole.txt" "$campdir/killed.txt"; then
  echo "tier 1: resumed campaign report differs from uninterrupted run" >&2
  exit 1
fi
echo "campaign kill+resume smoke: OK (reports identical)"

echo "== tier 1: poison-shard quarantine smoke =="
# The watchdog battery (hangs included) runs under ASan above via
# test_campaign_orchestrator; this smoke drives the crash-flavoured
# quarantine path end to end through the CLI and pins the exit codes:
# 5 = complete except quarantined, for run, verify, and report alike.
poison_rc=0
"$camp" run "$campdir/poison" "${spec[@]}" --retry-budget 2 \
  --backoff-ms 10 --worker-chaos shard=1:crash >/dev/null || poison_rc=$?
if [ "$poison_rc" -ne 5 ]; then
  echo "tier 1: poison run should exit 5 (complete except quarantined)," \
       "got $poison_rc" >&2
  exit 1
fi
verify_rc=0
"$camp" verify "$campdir/poison" > "$campdir/poison_verify.txt" \
  || verify_rc=$?
if [ "$verify_rc" -ne 5 ]; then
  echo "tier 1: verify of quarantined store should exit 5, got $verify_rc" >&2
  cat "$campdir/poison_verify.txt" >&2
  exit 1
fi
report_rc=0
"$camp" report "$campdir/poison" > "$campdir/poison_report.txt" \
  || report_rc=$?
if [ "$report_rc" -ne 5 ]; then
  echo "tier 1: report of quarantined store should exit 5, got $report_rc" >&2
  exit 1
fi
grep -q "quarantined: shard 1" "$campdir/poison_report.txt"
grep -q "COMPLETE EXCEPT QUARANTINED" "$campdir/poison_report.txt"
grep -q "quarantined after 2 attempt(s) (crash)" "$campdir/poison_verify.txt"
echo "poison-shard quarantine smoke: OK (exit 5 across run/verify/report)"

echo "== tier 1: Release paper smoke =="
cmake -B "$repo/build-bench" -S "$repo" -DCMAKE_BUILD_TYPE=Release
cmake --build "$repo/build-bench" -j "$jobs" --target bansim_paper
if ! "$repo/build-bench/bench/bansim_paper" \
    | diff -u "$repo/tests/cli_outputs/paper.txt" -; then
  echo "tier 1: Release bansim_paper output differs from the pin" >&2
  exit 1
fi
echo "paper smoke: OK (Release output matches tests/cli_outputs/paper.txt)"

echo "tier 1: OK"
