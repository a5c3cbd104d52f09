import copy

from bench import compare

SPEC = {
    "workloads": [{"name": "sim_w", "why": ""}],
    "end_to_end": [
        {"name": "latency_ms", "unit": "ms", "better": "lower", "bound": 0.1},
        {"name": "ops_per_s", "unit": "ops/s", "better": "higher", "bound": 0.1},
    ],
}


def result(latency=100.0, ops=50.0, failed=0, msgs=122.0, seed=0):
    def entry(value):
        return {"value": value, "unit": "x"}

    return {
        "seed": seed, "seconds": 15.0, "repeat": 1, "quick": False,
        "runs": {"sim_w": {
            "end_to_end": {
                "correct": failed == 0, "attempted": 100, "failed": failed,
                "metrics": {"latency_ms": entry(latency), "ops_per_s": entry(ops)},
            },
            "per_layer": {
                "correct": True, "attempted": 100, "failed": 0,
                "metrics": {name: entry(msgs) for name in compare.EXACT},
            },
        }},
    }


def verdicts(rows):
    return {(row[0], row[1]): row[-1] for row in rows}


def test_within_the_bound_is_ok_in_both_directions():
    rows, failures = compare.compare(result(), result(latency=109.0, ops=46.0), SPEC)
    assert not failures
    assert set(verdicts(rows).values()) == {"ok"}


def test_worse_by_more_than_the_bound_regresses_whatever_the_direction():
    rows, failures = compare.compare(result(), result(latency=111.0, ops=44.0), SPEC)
    assert verdicts(rows)[("sim_w", "latency_ms")] == "regressed"
    assert verdicts(rows)[("sim_w", "ops_per_s")] == "regressed"
    assert len(failures) == 2


def test_better_by_more_than_the_bound_is_reported_not_failed():
    rows, failures = compare.compare(result(), result(latency=80.0, ops=60.0), SPEC)
    assert not failures
    assert verdicts(rows)[("sim_w", "latency_ms")] == "improved"
    assert verdicts(rows)[("sim_w", "ops_per_s")] == "improved"


def test_more_failed_operations_fail_the_comparison():
    _, failures = compare.compare(result(), result(failed=1), SPEC)
    assert any("failed_ops_ratio" in failure for failure in failures)


def test_exact_counts_must_be_equal_for_equal_seeds_only():
    _, failures = compare.compare(result(), result(msgs=123.0), SPEC)
    assert len(failures) == len(compare.EXACT)
    _, failures = compare.compare(result(), result(msgs=123.0, seed=1), SPEC)
    assert not failures


def test_a_quick_result_is_refused():
    quick = copy.deepcopy(result())
    quick["quick"] = True
    _, failures = compare.compare(result(), quick, SPEC)
    assert failures


def test_a_regression_inside_the_base_runs_own_spread_is_unresolved():
    noisy = result()
    noisy["runs"]["sim_w"]["end_to_end"]["metrics"]["latency_ms"]["values"] = [
        70.0, 80.0, 100.0, 120.0, 140.0,
    ]
    rows, failures = compare.compare(noisy, result(latency=115.0), SPEC)
    assert verdicts(rows)[("sim_w", "latency_ms")] == "unresolved"
    assert not failures
