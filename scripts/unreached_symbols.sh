#!/usr/bin/env bash
# Lists the bansim:: functions that no shipped program links.
#
# Builds every program (all of examples/ and bench/, bansim_check and
# perfbench's bansim_perf) unoptimised, one section per function, and links
# with --gc-sections, so a program keeps exactly the functions it can reach.
# -fkeep-inline-functions also emits every inline function a header
# defines, so header-only members are counted too.  A function that some
# object file defines but no linked program contains is reachable only
# from tests (or from nowhere).  Compiler-generated default, copy and move
# constructors, destructors and assignments are left out of the list.
#
# It only reports: the trees go to build-unreached/ and
# build-unreached/perfbench/, and no source file changes.  A first run
# takes about six minutes with 3 jobs on a 4-CPU host.
#
# usage: scripts/unreached_symbols.sh [jobs]
set -euo pipefail

jobs=${1:-$(nproc)}
repo=$(cd "$(dirname "$0")/.." && pwd)
out="$repo/build-unreached"
flags="-O0 -fkeep-inline-functions -ffunction-sections -fdata-sections"
targets=(quickstart ecg_streaming_demo rpeak_demo tdma_timeline network_tuning
         bansim_cli bansim_campaign_cli firmware_playground
         bansim_paper bench_iss_vs_model bansim_check_cli)

configure() {  # source dir, build dir
  cmake -S "$1" -B "$2" -DCMAKE_BUILD_TYPE=Debug -DCMAKE_CXX_FLAGS="$flags" \
    -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections >/dev/null
}
configure "$repo" "$out"
cmake --build "$out" -j "$jobs" --target "${targets[@]}" >/dev/null
configure "$repo/perfbench" "$out/perfbench"
cmake --build "$out/perfbench" -j "$jobs" --target bansim_perf >/dev/null

programs=("$out"/examples/{quickstart,ecg_streaming_demo,rpeak_demo}
          "$out"/examples/{tdma_timeline,network_tuning}
          "$out"/examples/{bansim_cli,bansim_campaign,firmware_playground}
          "$out"/bench/{bansim_paper,bench_iss_vs_model}
          "$out"/tests/bansim_check "$out"/perfbench/bansim_perf)

# Mangled names of the functions the given files define.
functions() {
  nm --defined-only "$@" | awk '$2 ~ /^[TtWw]$/ { print $3 }' | sort -u
}

# Objects of the programs and libraries, not of unit tests an earlier
# build may have left in the tree.
mapfile -t objects < <(find "$out" -path '*/CMakeFiles/test_*' -prune \
                         -o -name '*.o' -print)

# A special member: X::X(), X::X(X const&), X::X(X&&), X::~X() and
# X::operator=(X const&) / (X&&).
special='::([A-Za-z_][A-Za-z0-9_]*)::~?\1\(\)$'
special+='|::([A-Za-z_][A-Za-z0-9_]*)::\2\(([A-Za-z0-9_:]+::)?\2( const)?&&?\)$'
special+='|::([A-Za-z_][A-Za-z0-9_]*)::operator=\(([A-Za-z0-9_:]+::)?\5( const)?&&?\)$'
# Only functions declared in namespace bansim (not std:: templates that
# take a bansim type, not lambdas, whose enclosing function is what counts).
comm -23 <(functions "${objects[@]}" 2>/dev/null) <(functions "${programs[@]}") |
  grep -E '^_ZN[KRO]*6bansim' | c++filt | grep -v '{lambda(' |
  grep -Ev "$special" | sort -u
