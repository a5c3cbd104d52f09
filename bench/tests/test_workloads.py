from repro.crypto.numtheory import is_probable_prime

from bench.workloads import WORKLOADS, expected_snapshot, modp_1536_group, operations


def test_the_embedded_modp_group_is_a_safe_prime_group():
    group = modp_1536_group()
    assert group.p.bit_length() == 1536
    assert is_probable_prime(group.p) and is_probable_prime(group.q)


def test_the_seed_fixes_the_operations_and_nothing_else_does():
    assert operations(3, 0, 50) == operations(3, 0, 50)
    assert operations(3, 0, 50) != operations(4, 0, 50)
    assert operations(3, 0, 50) != operations(3, 1, 50)
    assert all(
        op[0] == "set" and len(op[2]) == 16 for op in operations(3, 0, 50)
    )


def test_every_workload_is_either_open_or_closed_loop():
    for workload in WORKLOADS.values():
        assert bool(workload.window) != bool(workload.rate)
        assert workload.n > 3 * workload.t


def test_the_model_orders_writes_by_the_version_they_were_answered_with():
    committed = [
        (("set", "a", b"1"), ("ok", 2)),
        (("set", "a", b"2"), ("ok", 1)),
        (("set", "b", b"3"), ("ok", 3)),
    ]
    snapshot, errors = expected_snapshot(committed)
    assert not errors
    assert snapshot == (3, (("a", b"1"), ("b", b"3")))


def test_the_model_rejects_results_no_total_order_explains():
    _, errors = expected_snapshot(
        [(("set", "a", b"1"), ("ok", 1)), (("set", "a", b"2"), ("ok", 1))]
    )
    assert any("twice" in error for error in errors)
    _, errors = expected_snapshot([(("set", "a", b"1"), ("error", "unknown operation"))])
    assert errors
