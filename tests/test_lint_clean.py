"""Tier-1 guard: the repository itself stays lint-clean.

Fails when a new violation of any registered rule lands outside the
committed baseline, and also when a baseline entry goes stale (the
violation was fixed but the entry kept) — that is the ratchet: the
baseline can only shrink.
"""

from pathlib import Path

import pytest

from repro.analysis import run_lint

REPO_ROOT = Path(__file__).resolve().parents[1]
PACKAGE = REPO_ROOT / "src" / "repro"
BASELINE = REPO_ROOT / "lint-baseline.json"


@pytest.fixture(scope="module")
def report():
    """The gate's one lint run; every test below reads it."""
    return run_lint([PACKAGE], baseline_path=BASELINE)


def test_repository_is_lint_clean(report):
    assert report.ok, "new lint findings (fix or baseline with a reason):\n" + (
        report.format_text()
    )


def test_baseline_has_no_stale_entries(report):
    stale = [entry.to_dict() for entry in report.stale_baseline]
    assert not stale, f"stale baseline entries — delete them to ratchet: {stale}"


def test_every_baseline_entry_is_justified():
    from repro.analysis import Baseline

    baseline = Baseline.load(BASELINE)
    unjustified = [e.to_dict() for e in baseline.entries if not e.reason.strip()]
    assert not unjustified, f"baseline entries need a justifying reason: {unjustified}"


def test_every_registered_rule_ran_in_the_gate(report):
    """The ratchet covers all six rules: each is registered, and the
    gate run above executed it (a silently dropped registration would
    let new violations of that rule land unnoticed)."""
    from repro.analysis import ALL_RULES

    expected = {"RL001", "RL002", "RL003", "RL004", "RL005", "RL008"}
    assert set(ALL_RULES) == expected
    assert set(report.timings) == expected


def test_concurrency_baseline_entries_cite_the_single_writer():
    """RL008 baseline entries carry real justifications, not
    placeholders: each must explain why the interleaving is benign."""
    from repro.analysis import Baseline

    baseline = Baseline.load(BASELINE)
    entries = [e for e in baseline.entries if e.rule == "RL008"]
    assert entries, "expected at least the justified RL008 start() entry"
    thin = [e.to_dict() for e in entries if len(e.reason.strip()) < 40]
    assert not thin, f"concurrency baseline entries need a real argument: {thin}"
