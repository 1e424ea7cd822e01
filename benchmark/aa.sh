#!/usr/bin/env bash
# Repeatability harness: two sets of runs of the *same* build.
#
#   benchmark/aa.sh [--runs N] [--seconds S] [--workloads "W1 W2 ..."]
#
# Each of the N rounds (default 5) runs set A then set B, or B then A,
# alternating, and inside a set the workloads are interleaved
# (W1 W2 W3 W4, W1 ...). Every run gets its own seed: set A uses 1..N,
# set B uses N+1..2N. Prints, per (end-to-end metric, workload), each
# set's median and quartiles, the spread (inter-quartile distance over the
# median, as `statistics.quantiles(values, n=4)` gives it), the gap between
# the two medians in the metric's worse direction, and the bound from
# BENCHMARK.json. Exits non-zero if a gap or a spread (that of `setup_s`
# excepted) exceeds its bound.
set -euo pipefail

runs=5
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
while [[ $# -gt 0 ]]; do
    case $1 in
        --runs) runs=$2; shift 2 ;;
        --seconds) seconds=$2; shift 2 ;;
        --workloads) workloads=$2; shift 2 ;;
        *) echo "usage: benchmark/aa.sh [--runs N] [--seconds S] [--workloads \"W1 W2\"]" >&2; exit 2 ;;
    esac
done
if (( runs < 2 )); then
    echo "benchmark/aa.sh: quartiles need at least 2 runs per set" >&2
    exit 2
fi

out=benchmark/results/aa
mkdir -p "$out"
log=$out/runs.jsonl
: > "$log"
for (( round = 1; round <= runs; round++ )); do
    if (( round % 2 )); then order="A B"; else order="B A"; fi
    for set in $order; do
        if [[ $set == A ]]; then seed=$round; else seed=$(( runs + round )); fi
        for workload in $workloads; do
            echo "round $round set $set $workload seed $seed" >&2
            result=$(bash benchmark/run.sh --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1)
            echo "{\"set\": \"$set\", \"workload\": \"$workload\", \"seed\": $seed, \"result\": $result}" >> "$log"
        done
    done
done

python3 - "$log" <<'EOF'
import json, statistics, sys

spec = json.load(open("BENCHMARK.json"))
runs = [json.loads(line) for line in open(sys.argv[1])]
bad = [r for r in runs if not r["result"]["correct"] or r["result"]["failed"]]
failed = bool(bad)
for r in bad:
    print(f"INCORRECT: {r['workload']} seed {r['seed']}")

def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / median

print(f"{'workload':<16} {'metric':<19} {'A median [q1, q3]':>34} {'B median [q1, q3]':>34} "
      f"{'spread A':>9} {'spread B':>9} {'gap':>8} {'bound':>6}")
for workload in [w["name"] for w in spec["workloads"]]:
    for metric in spec["end_to_end"]:
        name = metric["name"]
        sets = {}
        for label in "AB":
            sets[label] = [r["result"]["metrics"][name]["value"] for r in runs
                           if r["set"] == label and r["workload"] == workload]
        if not sets["A"] or not sets["B"]:
            continue
        a, b = summary(sets["A"]), summary(sets["B"])
        # how much worse the worse set's median is, relative to the better one
        lo, hi = sorted((a[0], b[0]))
        gap = (hi - lo) / (lo if metric["better"] == "lower" else hi)
        spread_matters = name != "setup_s"
        flag = ""
        if gap > metric["bound"] or (spread_matters and max(a[3], b[3]) > metric["bound"]):
            failed = True
            flag = "  EXCEEDS"
        elif gap > metric["bound"] / 2 or (spread_matters and max(a[3], b[3]) > metric["bound"] / 3):
            flag = "  close"
        cell = lambda s: f"{s[0]:.4f} [{s[1]:.4f}, {s[2]:.4f}]"
        print(f"{workload:<16} {name:<19} {cell(a):>34} {cell(b):>34} "
              f"{a[3]:>9.4f} {b[3]:>9.4f} {gap:>8.4f} {metric['bound']:>6.2f}{flag}")
sys.exit(1 if failed else 0)
EOF
