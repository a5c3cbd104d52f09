"""Compare two result files written by ``bench/run.py --out``.

    python3 bench/compare.py BASE.json NEW.json

One row per (workload, end-to-end metric): base, new (medians, when
the files hold repetitions), the ratio new/base, the spread of BASE's
own repetitions (interquartile range over median), the bound
``BENCHMARK.json`` fixes for the metric, and a verdict — ``regressed``
when NEW is worse than BASE by more than the bound, ``improved`` when it
is better by more than the bound, ``ok`` otherwise, and ``unresolved``
in place of ``regressed`` when BASE's own runs spread wider than the
bound.  On the simulator workloads the exact counts must be equal when
both files were made from the same inputs.  Exits 1 if anything
regressed, an exact count differs, or NEW fails more operations.
"""

from __future__ import annotations

import json
import pathlib
import statistics
import sys

__all__ = ["compare", "main"]

ROOT = pathlib.Path(__file__).resolve().parents[1]

# Counts that must repeat exactly on the simulator for equal inputs.
EXACT = (
    "net.msgs_per_commit",
    "net.wire_bytes_per_commit",
    "smr.client.commit_delays_p50",
    "core.atomic_broadcast.rounds_per_commit",
)


def verdict(base: float, new: float, better: str, bound: float) -> str:
    worse_by = (new - base) / base if better == "lower" else (base - new) / base
    if worse_by > bound:
        return "regressed"
    if worse_by < -bound:
        return "improved"
    return "ok"


def spread(entry: dict) -> float:
    """Interquartile range over median of a metric's repetitions (0
    when there are too few to have quartiles)."""
    values = entry.get("values", [])
    if len(values) < 4:
        return 0.0
    low, _, high = statistics.quantiles(values, n=4)
    return (high - low) / statistics.median(values)


def compare(base: dict, new: dict, spec: dict) -> tuple[list[tuple], list[str]]:
    """``(rows, failures)``: the table, and every reason to exit non-zero."""
    rows: list[tuple] = []
    failures: list[str] = []
    if base.get("quick") or new.get("quick"):
        failures.append("a --quick result is a smoke test, not a measurement")
    for workload in (w["name"] for w in spec["workloads"]):
        old, cur = base["runs"].get(workload), new["runs"].get(workload)
        if old is None or cur is None:
            failures.append(f"{workload}: missing from one of the files")
            continue
        if "end_to_end" in old and "end_to_end" in cur:
            for metric in spec["end_to_end"]:
                name = metric["name"]
                b = old["end_to_end"]["metrics"][name]["value"]
                n = cur["end_to_end"]["metrics"][name]["value"]
                noise = spread(old["end_to_end"]["metrics"][name])
                result = verdict(b, n, metric["better"], metric["bound"])
                if result == "regressed" and noise > metric["bound"]:
                    result = "unresolved"
                rows.append((workload, name, b, n, n / b, noise, metric["bound"], result))
                if result == "regressed":
                    failures.append(f"{workload} {name}: {b:.6g} -> {n:.6g} {metric['unit']}")
            b_failed = old["end_to_end"]["failed"] / old["end_to_end"]["attempted"]
            n_failed = cur["end_to_end"]["failed"] / cur["end_to_end"]["attempted"]
            if n_failed > b_failed or not cur["end_to_end"]["correct"]:
                failures.append(
                    f"{workload}: failed_ops_ratio {b_failed:.4f} -> {n_failed:.4f}, "
                    f"correct={cur['end_to_end']['correct']}"
                )
        same_inputs = all(base.get(k) == new.get(k) for k in ("seed", "seconds", "repeat"))
        traced = "per_layer" in old and "per_layer" in cur
        if workload.startswith("sim_") and same_inputs and traced:
            for name in EXACT:
                b = old["per_layer"]["metrics"][name]["value"]
                n = cur["per_layer"]["metrics"][name]["value"]
                rows.append((workload, name, b, n, n / b, 0.0, 0.0, "ok" if b == n else "differs"))
                if b != n:
                    failures.append(f"{workload} {name}: exact count {b} -> {n}")
    return rows, failures


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    base, new = (json.loads(pathlib.Path(path).read_text()) for path in argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows, failures = compare(base, new, spec)
    print(
        f"{'workload':16} {'metric':40} {'base':>11} {'new':>11} "
        f"{'new/base':>8} {'spread':>6} {'bound':>5}  verdict"
    )
    for workload, name, b, n, ratio, noise, bound, result in rows:
        print(
            f"{workload:16} {name:40} {b:11.6g} {n:11.6g} "
            f"{ratio:8.3f} {noise:6.2f} {bound:5.2f}  {result}"
        )
    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
