#!/usr/bin/env bash
# Alternating parent/change benchmark pairs (perfbench, untraced).
#
# usage: scripts/perf_pairs.sh PARENT_TREE CHANGE_TREE WORKLOAD
#                              [PAIRS=10] [SECONDS=20] [SEED=1]
#
# PARENT_TREE and CHANGE_TREE are two checkouts of the repository (make the
# parent's with `git clone` or `git archive`; each builds its own
# .bench_build/).  Each tree first runs the workload once with --tiny, so
# the builds finish before anything is timed.  Then, for every pair, both
# trees run `perfbench/run.py --workload WORKLOAD --seed SEED --seconds
# SECONDS --trace 0`, the parent first in odd pairs and the change first in
# even ones.  The script prints every pair, then, per end-to-end metric of
# BENCHMARK.json, each side's median and quartiles
# (statistics.quantiles(n=4)), the change's median over the parent's, how
# many pairs the change wins (ties count for neither) and whether the
# medians differ by more than the distance between the parent's quartiles.
#
# It exits non-zero when a run fails or reports correct = false, or when
# the two trees print different digests.  It only reports: no gate reads
# its output.
set -euo pipefail

if [ $# -lt 3 ] || [ $# -gt 6 ]; then
  sed -n '4,5p' "$0" >&2
  exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
workload=$3
pairs=${4:-10}
seconds=${5:-20}
seed=${6:-1}

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

run() {  # run TREE LABEL FILE [extra run.py flags]
  local tree=$1 label=$2 file=$3
  shift 3
  if ! (cd "$tree" && python3 perfbench/run.py --workload "$workload" \
          --seed "$seed" --seconds "$seconds" --trace 0 "$@") \
       > "$file" 2> "$file.err"; then
    echo "perf_pairs: $label run failed in $tree:" >&2
    tail -20 "$file.err" >&2
    exit 1
  fi
}

for side in parent change; do
  tree=$parent
  [ "$side" = change ] && tree=$change
  echo "warm-up: building and running $workload --tiny in $tree" >&2
  run "$tree" "$side warm-up" "$out/warmup-$side" --tiny
done

for ((i = 1; i <= pairs; i++)); do
  order=(parent change)
  if ((i % 2 == 0)); then order=(change parent); fi
  for side in "${order[@]}"; do
    tree=$parent
    [ "$side" = change ] && tree=$change
    run "$tree" "$side pair $i" "$out/$side-$i"
  done
  echo "pair $i done (${order[0]} first)" >&2
done

python3 - "$out" "$pairs" "$workload" "$seconds" "$seed" \
  "$change/BENCHMARK.json" <<'EOF'
import json
import statistics
import sys

out, pairs, workload, seconds, seed, bench_file = sys.argv[1:]
pairs = int(pairs)
with open(bench_file) as handle:
    metrics = json.load(handle)["end_to_end"]


def summary(vals):
    """Median, first and third quartile."""
    if len(vals) < 2:
        return vals[0], vals[0], vals[0]
    q1, median, q3 = statistics.quantiles(vals, n=4)
    return median, q1, q3


def load(side, i):
    with open("%s/%s-%d" % (out, side, i)) as handle:
        lines = handle.read().splitlines()
    digests = [line for line in lines if line.startswith("digest ")]
    result = json.loads(lines[-1])
    return digests, result


runs = {side: [load(side, i) for i in range(1, pairs + 1)]
        for side in ("parent", "change")}
ok = True
for side, results in runs.items():
    for i, (_, result) in enumerate(results, 1):
        if not result["correct"]:
            print("%s pair %d: correct = false" % (side, i))
            ok = False
parent_digests = runs["parent"][0][0]
for side, results in runs.items():
    for i, (digests, _) in enumerate(results, 1):
        if digests != parent_digests:
            print("%s pair %d digest differs: %s vs parent %s"
                  % (side, i, digests, parent_digests))
            ok = False

print("%s seed %s, %s s, %d pairs (parent first in odd pairs)"
      % (workload, seed, seconds, pairs))
for line in parent_digests:
    print("  " + line)
for i in range(pairs):
    cells = []
    for metric in metrics:
        name = metric["name"]
        cells.append("%s %.6g/%.6g" % (
            name, runs["parent"][i][1]["metrics"][name]["value"],
            runs["change"][i][1]["metrics"][name]["value"]))
    print("  pair %2d (parent/change): %s" % (i + 1, "  ".join(cells)))

print("  %-20s %-6s %-36s %-36s %-8s %-6s %s" % (
    "metric", "better", "parent median [q1, q3]", "change median [q1, q3]",
    "ratio", "wins", "beyond parent IQR"))
for metric in metrics:
    name = metric["name"]
    higher = metric["better"] == "higher"
    values = {side: [r["metrics"][name]["value"] for _, r in results]
              for side, results in runs.items()}
    pm, pq1, pq3 = summary(values["parent"])
    cm, cq1, cq3 = summary(values["change"])
    wins = sum(1 for p, c in zip(values["parent"], values["change"])
               if (c > p if higher else c < p))
    ratio = cm / pm if pm else float("inf")
    beyond = abs(cm - pm) > (pq3 - pq1)
    print("  %-20s %-6s %-36s %-36s %-8.4f %-6s %s" % (
        name, metric["better"], "%.6g [%.6g, %.6g]" % (pm, pq1, pq3),
        "%.6g [%.6g, %.6g]" % (cm, cq1, cq3), ratio,
        "%d/%d" % (wins, pairs), "yes" if beyond else "no"))
sys.exit(0 if ok else 1)
EOF
