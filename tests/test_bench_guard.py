"""The bench regression guard: pure comparisons against committed
artifacts, plus the CLI driver's exit codes."""

import json

from repro.bench import guard_compare, main_guard


def _crypto(multiexp=6.0, coin=5.4, smoke=False) -> dict:
    return {
        "config": {"smoke": smoke},
        "primitives": {
            "multiexp_speedup": multiexp,
            "fixed_base_speedup": 4.0,
            "membership_speedup": 3.0,
        },
        "coin_quorum": {"speedup_batch_vs_per_share": coin},
        "rsa_quorum": {"speedup_batch_vs_per_share": 4.4},
        "dkg": {"n4t1": {"dealer_to_dkg_ratio": 0.015}},
    }


def test_matching_numbers_pass():
    failures, notes = guard_compare("crypto", _crypto(), _crypto())
    assert failures == []
    assert len(notes) == 6  # every catalogued metric compared


def test_regression_beyond_tolerance_fails():
    # 6.0 -> 3.0 is a 50% drop; same-mode floor at 30% tolerance is 4.2.
    failures, _ = guard_compare(
        "crypto", _crypto(multiexp=3.0), _crypto(multiexp=6.0)
    )
    assert len(failures) == 1
    assert "multiexp_speedup" in failures[0]
    assert "floor" in failures[0]


def test_drop_within_tolerance_passes():
    failures, _ = guard_compare(
        "crypto", _crypto(multiexp=4.5), _crypto(multiexp=6.0)
    )
    assert failures == []


def test_smoke_slack_applies_only_across_modes():
    # Smoke quorum ratios sag ~20% below the committed full-mode number;
    # with the 45% smoke slack that is fine...
    fresh = _crypto(coin=4.3, smoke=True)
    committed = _crypto(coin=5.4, smoke=False)
    failures, _ = guard_compare("crypto", fresh, committed)
    assert failures == []
    # ...but the same drop between two smoke runs gets no slack beyond
    # the base tolerance (floor 5.4 * 0.70 = 3.78 — still above 3.5).
    failures, _ = guard_compare(
        "crypto", _crypto(coin=3.5, smoke=True), _crypto(coin=5.4, smoke=True)
    )
    assert len(failures) == 1


def test_disabled_fast_path_is_caught_even_in_smoke_mode():
    # An accidentally disabled batch path reads ~1.0x; the loosest floor
    # (1 - 0.30 - 0.45 = 0.25 of committed) catches it only if committed
    # >> 1 — the crypto quorum floors certainly do.
    failures, _ = guard_compare(
        "crypto", _crypto(coin=1.0, smoke=True), _crypto(coin=5.4)
    )
    assert any("coin_quorum" in f for f in failures)


def test_missing_committed_metric_skips_with_note():
    committed = _crypto()
    del committed["coin_quorum"]
    failures, notes = guard_compare("crypto", _crypto(), committed)
    assert failures == []
    assert any("skipped" in note for note in notes)


def test_missing_fresh_metric_is_a_failure():
    fresh = _crypto()
    del fresh["rsa_quorum"]
    failures, _ = guard_compare("crypto", fresh, _crypto())
    assert failures == [
        "crypto:rsa_quorum.speedup_batch_vs_per_share: missing from fresh results"
    ]


def test_tolerance_is_configurable():
    fresh, committed = _crypto(multiexp=3.3), _crypto(multiexp=6.0)
    assert guard_compare("crypto", fresh, committed, tolerance=0.30)[0] != []
    assert guard_compare("crypto", fresh, committed, tolerance=0.50)[0] == []


def test_unknown_kind_compares_nothing():
    failures, notes = guard_compare("quantum", _crypto(), _crypto())
    assert failures == [] and notes == []


# -- CLI driver ---------------------------------------------------------------------


def _write(path, data) -> str:
    path.write_text(json.dumps(data))
    return str(path)


def test_main_guard_exit_codes(tmp_path, capsys):
    ok_fresh = _write(tmp_path / "fresh.json", _crypto(smoke=True))
    committed = _write(tmp_path / "committed.json", _crypto())
    assert main_guard(ok_fresh, crypto_committed=committed) == 0
    assert "bench guard: ok" in capsys.readouterr().out

    bad_fresh = _write(tmp_path / "bad.json", _crypto(multiexp=1.0, smoke=True))
    assert main_guard(bad_fresh, crypto_committed=committed) == 1
    assert "REGRESSION" in capsys.readouterr().out

    # Nothing to compare, or files missing: exit 2 (not a regression).
    assert main_guard(None) == 2
    assert main_guard(ok_fresh, crypto_committed=str(tmp_path / "nope.json")) == 2
