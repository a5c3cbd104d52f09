#!/usr/bin/env bash
# Full static + dynamic check gate, as run by CI.
#
#   scripts/check.sh          # repro lint (JSON) + ruff + mypy + pytest
#                             # + experiments (benchmarks/, EXPERIMENTS.md)
#                             # + benchmark-harness/chaos/sweep smokes
#                             # + src/ (net/ orchestration too), tests/,
#                             #   benchmarks/ and docs/ sizes, and the
#                             #   ad-hoc type checks left in src/
#   scripts/check.sh --fast   # skip pytest, the experiments and the smokes
#
# The experiments step runs every paper-claim assertion of
# EXPERIMENTS.md (pytest-benchmark, from the [test] extras); the one
# timing harness the gate exercises is bench/ (BENCHMARK.json).  There
# is no micro-benchmark step and no timing floor here.
#
# ruff and mypy are optional-dependency tools (pip install -e '.[lint]');
# when absent they are skipped with a notice so the gate still runs in
# minimal containers.  `repro lint` and pytest have no dependencies
# beyond the standard toolchain and always run.

set -u
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
failures=0

step() {
    echo
    echo "== $1"
}

step "repro lint (protocol-invariant rules RL001-RL005, RL008)"
lint_start=$(date +%s.%N)
if ! python -m repro lint src/repro --format json > /tmp/repro-lint.json; then
    cat /tmp/repro-lint.json
    if [ "${GITHUB_ACTIONS:-}" = "true" ]; then
        # Surface each finding as a GitHub Actions annotation so it is
        # pinned to the offending line in the PR diff view.
        python - <<'EOF'
import json
report = json.load(open("/tmp/repro-lint.json"))
for diag in report.get("diagnostics", []):
    message = diag["message"].replace("%", "%25").replace("\n", "%0A")
    print(f"::error file=src/repro/{diag['path']},"
          f"line={diag['line']},col={diag['col']},"
          f"title=repro lint {diag['rule']}::{message}")
EOF
    fi
    echo "repro lint: FAILED"
    failures=$((failures + 1))
else
    python - <<'EOF'
import json
report = json.load(open("/tmp/repro-lint.json"))
print(f"repro lint: ok ({report['files_scanned']} files, "
      f"{report['baselined']} baselined, {report['suppressed']} suppressed)")
EOF
fi
lint_wall=$(date +%s.%N | awk -v s="$lint_start" '{printf "%.2f", $1 - s}')
python - "$lint_wall" <<'EOF'
import json, sys
wall = float(sys.argv[1])
report = json.load(open("/tmp/repro-lint.json"))
timings = report.get("timings", {})
for rule, secs in sorted(timings.items(), key=lambda kv: -kv[1]):
    print(f"  {rule}: {secs:.3f}s")
print(f"  wall: {wall:.2f}s, in-rule: {sum(timings.values()):.2f}s")
EOF

step "repro lint SARIF report (artifact for code scanning)"
python -m repro lint src/repro --format sarif > /tmp/repro-lint.sarif || true
python - <<'EOF'
import json
report = json.load(open("/tmp/repro-lint.sarif"))
results = report["runs"][0]["results"]
print(f"sarif: wrote /tmp/repro-lint.sarif ({len(results)} result(s))")
EOF

step "ruff"
if python -m ruff --version >/dev/null 2>&1; then
    if ! python -m ruff check src/repro; then
        echo "ruff: FAILED"
        failures=$((failures + 1))
    else
        echo "ruff: ok"
    fi
else
    echo "ruff: not installed, skipped (pip install -e '.[lint]')"
fi

step "mypy (strict on repro.core / repro.adversary / repro.analysis)"
if python -m mypy --version >/dev/null 2>&1; then
    if ! python -m mypy; then
        echo "mypy: FAILED"
        failures=$((failures + 1))
    else
        echo "mypy: ok"
    fi
else
    echo "mypy: not installed, skipped (pip install -e '.[lint]')"
fi

if [ "${1:-}" != "--fast" ]; then
    step "pytest (tier-1)"
    if ! python -m pytest -x -q; then
        echo "pytest: FAILED"
        failures=$((failures + 1))
    fi

    step "experiments (benchmarks/, EXPERIMENTS.md)"
    if ! python -m pytest benchmarks/ --benchmark-only -q; then
        echo "experiments: FAILED"
        failures=$((failures + 1))
    fi

    step "benchmark harness (bench/tests + bench/run.py --quick, BENCHMARK.json)"
    # bench/ wraps src/ from the outside (bench/trace.py rebinds
    # TransportNetwork.send, Network.send and wire.dumps by signature),
    # so a src/ change can break it without failing a tier-1 test.
    if ! python -m pytest bench/tests -q; then
        echo "bench tests: FAILED"
        failures=$((failures + 1))
    fi
    if ! python3 bench/run.py --quick > /tmp/repro-bench-quick.log 2>&1; then
        tail -40 /tmp/repro-bench-quick.log
        echo "bench quick: FAILED (a workload was incorrect, or the tracer's wrappers broke)"
        failures=$((failures + 1))
    else
        echo "bench quick: ok ($(grep -c ' samples ' /tmp/repro-bench-quick.log) workloads, traced)"
    fi

    step "chaos smoke (seeded fault injection, docs/CHAOS.md)"
    if ! python -m repro chaos run --scenario partition-heal \
            --journal /tmp/repro-chaos-journal.json \
            --failure-json /tmp/repro-chaos-failure.json > /dev/null; then
        echo "chaos smoke: FAILED (safety/liveness checker)"
        [ -f /tmp/repro-chaos-failure.json ] && cat /tmp/repro-chaos-failure.json
        failures=$((failures + 1))
    elif ! python -m repro chaos replay \
            --journal /tmp/repro-chaos-journal.json > /dev/null; then
        echo "chaos smoke: FAILED (journal replay mismatch)"
        failures=$((failures + 1))
    else
        echo "chaos smoke: ok"
    fi

    step "sweep smoke (grid-driven chaos campaign, docs/CHAOS.md)"
    if ! python -m repro sweep --smoke --out /tmp/repro-sweep.json \
            --repro-dir /tmp/repro-sweep-repro > /tmp/repro-sweep.log 2>&1; then
        tail -40 /tmp/repro-sweep.log
        echo "sweep smoke: FAILED (a cell mismatched its expectation)"
        failures=$((failures + 1))
    elif ! python - <<'EOF'
import json, sys
report = json.load(open("/tmp/repro-sweep.json"))
totals = report["totals"]
assert totals["runs"] >= 20, f"sweep smoke ran only {totals['runs']} cells"
# A simulator run is a pure function of its scenario, so the tracked
# artifact must be reproduced exactly (all but the bundle path, which
# follows --repro-dir); the TCP cell's wall-clock numbers are not compared.
def sim_runs(payload):
    return {run["cell"]: {**run, "repro": None}
            for run in payload["runs"] if run["backend"] == "sim"}
fresh, tracked = sim_runs(report), sim_runs(json.load(open("SWEEP.json")))
stale = sorted(cell for cell in fresh.keys() | tracked.keys()
               if fresh.get(cell) != tracked.get(cell))
for cell in stale:
    print(f"sweep smoke: {cell} differs from the tracked SWEEP.json")
    print(f"  tracked: {(tracked.get(cell) or {}).get('summary')}")
    print(f"  fresh:   {(fresh.get(cell) or {}).get('summary')}")
if stale:
    sys.exit(1)
# Not compared (wall-clock schedule), but shown: agreement rounds per
# committed op on real sockets — 1.0 is a round per request, more is
# rounds that delivered nothing.
tcp = ", ".join(f"{run['cell']} rounds_per_commit {run['summary']['rounds_per_commit']}"
                for run in report["runs"] if run["backend"] == "tcp")
print(f"sweep smoke: ok ({totals['runs']} runs: {totals['passed']} passed, "
      f"{totals['expected_violations']} expected violation(s) fired, "
      f"{len(fresh)} simulator runs equal the tracked SWEEP.json; {tcp})")
EOF
    then
        echo "sweep smoke: FAILED (SWEEP.json is stale: if the message" \
             "schedule moved on purpose, 'make sweep' and commit the result)"
        failures=$((failures + 1))
    fi

    step "sweep nightly grid, simulator cells (docs/CHAOS.md)"
    if ! python -m repro sweep --tcp 0 --out /tmp/repro-sweep-nightly.json \
            --repro-dir /tmp/repro-sweep-nightly-repro > /tmp/repro-sweep-nightly.log 2>&1; then
        grep MISMATCH /tmp/repro-sweep-nightly.log
        tail -1 /tmp/repro-sweep-nightly.log
        echo "sweep nightly grid: FAILED (a cell mismatched its expectation)"
        failures=$((failures + 1))
    else
        echo "sweep nightly grid: ok ($(tail -1 /tmp/repro-sweep-nightly.log))"
    fi
fi

step "size (not a gate: the line counts each CHANGES.md entry reports)"
find src/repro -name '*.py' -print0 | xargs -0 wc -l | awk '
    $2 == "total" { next }  # xargs may run wc more than once
    { n = split($2, part, "/"); pkg = n > 3 ? part[3] "/" : "(top level)"
      lines[pkg] += $1; total += $1 }
    END {
        for (pkg in lines) printf "  %-17s %6d\n", pkg, lines[pkg] | "sort"
        close("sort")
        printf "  %-17s %6d\n", "src/ total", total
    }'
# The net/ orchestration ROADMAP aim 2 weighs against the paper's stack.
(cd src/repro/net && cat runtime.py chaos.py transport.py sweep.py cluster.py checkers.py) |
    wc -l | awk '{ printf "  %-17s %6d\n", "net/ orchestration", $1 }'
# Hand-written type checks left in the protocol packages: a received
# field's type is the codec's admission check (docs/PROTOCOLS.md,
# "Admission"); what remains guards values inside loose fields.
grep -rEn "type\([A-Za-z_.0-9\[\]]*\) is (not )?(int|bytes|str|tuple|bool)|isinstance\([^)]*, \(?(int|bytes|str|tuple|bool|frozenset|dict)" \
    src/repro/core src/repro/smr src/repro/crypto --include=*.py | wc -l |
    awk '{ printf "  %-17s %6d\n", "ad-hoc type checks", $1 }'
# Options a deployment sets by hand (ROADMAP aim 2: an option the code
# can work out from its inputs should go): the parameters of the
# dealer, of the simulated service, of ReplicaHost and of Replica, and
# the CLI's add_argument sites.
python -c "import inspect; from repro.crypto.dealer import deal_system; \
from repro.smr.service import build_service; from repro.net.runtime import ReplicaHost; \
from repro.smr.replica import Replica; \
[print(name, len(inspect.signature(f).parameters)) for name, f in \
(('deal_system', deal_system), ('build_service', build_service), ('ReplicaHost', ReplicaHost), \
('Replica', Replica))]" |
    awk '{ printf "  %-17s %6d\n", $1 " args", $2 }'
grep -c "add_argument(" src/repro/cli.py |
    awk '{ printf "  %-17s %6d\n", "cli add_argument", $1 }'
for dir in tests benchmarks; do
    find "$dir" -name '*.py' -exec cat {} + | wc -l |
        awk -v dir="$dir" '{ printf "  %-17s %6d\n", dir "/ total", $1 }'
done
cat docs/*.md | wc -l | awk '{ printf "  %-17s %6d\n", "docs/ total", $1 }'

echo
if [ "$failures" -ne 0 ]; then
    echo "check.sh: $failures gate(s) failed"
    exit 1
fi
echo "check.sh: all gates passed"
