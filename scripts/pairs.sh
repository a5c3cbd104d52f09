#!/usr/bin/env bash
# Alternating pairs of parent and change on one benchmark workload, or on
# every one — the run docs/PERFORMANCE.md asks for before a gain is claimed.
#
#   scripts/pairs.sh <parent-ref> <workload|all> [pairs=10]
#
# Checks the parent out under a temp dir (`git archive`: nothing is left
# in .git), then alternates one untraced pass of bench/run.py in each
# tree — seeds 11, 12, …, the parent first on odd pairs and the change
# (the working tree) first on even ones — and prints, per end-to-end
# metric, both medians, the parent's inter-quartile range, change/parent
# (of the medians, then of every pair) and in how many pairs the change
# read ahead — then one verdict line per metric by the rule a claim is
# held to (docs/PERFORMANCE.md): ahead (or behind) in at least 9/10 of
# the pairs and the medians further apart than the parent's IQR is
# `resolved (better|worse)`, anything else `unresolved`.  `all` runs the
# pairs on every workload BENCHMARK.json names, one after the other, and
# ends with one verdict table across all of them and the line that sums
# it up: a change passes when no metric anywhere is `resolved (worse)`.
# Reads bench/ and BENCHMARK.json; edits nothing.
set -euo pipefail

usage="usage: scripts/pairs.sh <parent-ref> <workload|all> [pairs=10]"
parent_ref=${1:?$usage}
workload=${2:?$usage}
pairs=${3:-10}
cd "$(dirname "$0")/.."
change=$PWD

if [[ $workload == all ]]; then
    workloads=$(python3 -c 'import json
print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
else
    workloads=$workload
fi

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir "$work/parent"
git archive "$parent_ref" | tar -x -C "$work/parent"

pass() {  # pass <tree> <workload> <seed> <out>: the last line of a pass is its JSON
    (cd "$1" && python3 bench/run.py --workload "$2" --seed "$3" \
        --seconds 15 --trace 0) | tail -n 1 > "$4"
}

for name in $workloads; do
    for ((i = 0; i < pairs; i++)); do
        seed=$((11 + i))
        if ((i % 2 == 0)); then order="parent change"; else order="change parent"; fi
        for side in $order; do
            tree=$change; [[ $side == parent ]] && tree=$work/parent
            pass "$tree" "$name" "$seed" "$work/$name.$side.$i.json"
        done
        echo "$name: pair $((i + 1))/$pairs (seed $seed, $order) done" >&2
    done
done

python3 - "$work" "$pairs" "$parent_ref" $workloads <<'PY'
import json, pathlib, statistics, sys

work, pairs, ref, *workloads = pathlib.Path(sys.argv[1]), int(sys.argv[2]), *sys.argv[3:]
better = {m["name"]: m["better"] for m in json.load(open("BENCHMARK.json"))["end_to_end"]}
table = []  # (workload, metric, verdict)
for workload in workloads:
    runs = {
        side: [json.loads((work / f"{workload}.{side}.{i}.json").read_text())
               for i in range(pairs)]
        for side in ("parent", "change")
    }
    print(f"{workload}: {pairs} alternating pairs, parent = {ref}, change = working tree")
    for side, passes in runs.items():
        print(f"  {side}: failed {sum(p['failed'] for p in passes)} of "
              f"{sum(p['attempted'] for p in passes)} attempted, "
              f"{sum(not p['correct'] for p in passes)} incorrect passes")
    print(f"  {'metric':24} {'parent':>10} {'(IQR)':>9} {'change':>10} {'ratio':>7}  change ahead")
    verdicts = []
    for name, direction in better.items():
        parent = [p["metrics"][name]["value"] for p in runs["parent"]]
        change = [p["metrics"][name]["value"] for p in runs["change"]]
        sign = 1 if direction == "higher" else -1
        ahead = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        behind = sum(sign * (c - p) < 0 for p, c in zip(parent, change))  # ties count for neither
        mp, mc = statistics.median(parent), statistics.median(change)
        q = statistics.quantiles(parent, n=4) if pairs > 1 else (mp, mp, mp)
        iqr = q[2] - q[0]
        ratio = f"{mc / mp:7.3f}" if mp else "    n/a"
        print(f"  {name:24} {mp:10.3f} {iqr:9.3f} {mc:10.3f} {ratio}  {ahead} of {pairs}")
        print("    per pair, change/parent:", " ".join(f"{c / p:.2f}" if p else "n/a"
                                                        for p, c in zip(parent, change)))
        gain = sign * (mc - mp)  # positive: the change's median is the better one
        if gain > iqr and 10 * ahead >= 9 * pairs:
            verdict = "resolved (better)"
        elif -gain > iqr and 10 * behind >= 9 * pairs:
            verdict = "resolved (worse)"
        else:
            verdict = "unresolved"
        table.append((workload, name, verdict))
        verdicts.append(f"  {name:24} {verdict:18} ahead {ahead}, behind {behind} of {pairs}; "
                        f"|median gap| {abs(gain):.3f} vs parent IQR {iqr:.3f}")
    print("verdict (ahead >= 9/10 of pairs and |median gap| > parent IQR -> resolved, else unresolved):")
    print("\n".join(verdicts))
if len(workloads) > 1:
    metrics = list(better)
    width = max(len(w) for w in workloads)
    print(f"\nverdicts across all workloads (parent = {ref}):")
    print(f"  {'':{width}}  " + "  ".join(f"{m:>21}" for m in metrics))
    for workload in workloads:
        row = {m: v for w, m, v in table if w == workload}
        print(f"  {workload:{width}}  " + "  ".join(f"{row[m]:>21}" for m in metrics))
    worse = [f"{w} {m}" for w, m, v in table if v == "resolved (worse)"]
    print("no metric resolved (worse) on any workload" if not worse
          else "resolved (worse): " + ", ".join(worse))
PY
