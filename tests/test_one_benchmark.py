"""Tier-1 guard: a number is a BENCHMARK.json metric (``bench/``) or a
row of an E-experiment (``benchmarks/``) — the third harness, ``python
-m repro bench`` with its tracked artifact and timing floors, stays gone.
"""

import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
ARTIFACT = "BENCH_" + "crypto"  # spelt in two halves so this file passes


def test_the_cli_has_no_bench_subcommand(capsys):
    from repro.cli import main

    with pytest.raises(SystemExit) as refused:
        main(["bench"])
    assert refused.value.code == 2  # argparse: invalid choice
    assert "invalid choice: 'bench'" in capsys.readouterr().err


def test_nothing_mentions_the_retired_artifact():
    """History may (CHANGES.md, ROADMAP.md, the issue that retired it),
    and ``bench/`` is frozen; nothing else does."""
    history = ("CHANGES.md", "ROADMAP.md", "ISSUE.md", "bench")
    found = subprocess.run(
        ["git", "grep", "-l", ARTIFACT, "--", ".", *(f":!{path}" for path in history)],
        cwd=REPO_ROOT, capture_output=True, text=True,
    )
    if found.returncode not in (0, 1):
        pytest.skip(f"not a git checkout: {found.stderr.strip()}")
    assert found.stdout.split() == []
    assert not (REPO_ROOT / "src" / "repro" / "bench.py").exists()
