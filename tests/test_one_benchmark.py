"""Tier-1 guard: a number is a BENCHMARK.json metric (``bench/``) or a
row of an E-experiment (``benchmarks/``) — the third harness, ``python
-m repro bench`` with its tracked artifact and timing floors, stays gone.
"""

import os
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
    """History may (CHANGES.md, ROADMAP.md), and ``bench/`` is frozen;
    nothing else does.  The tree is walked directly, so a copy without
    ``.git`` is checked too."""
    history = {"CHANGES.md", "ROADMAP.md", "bench"}
    caches = {".git", "__pycache__", ".benchmarks", ".hypothesis"}
    found = []
    for directory, subdirs, files in os.walk(REPO_ROOT):
        subdirs[:] = [d for d in subdirs if d not in caches and not d.endswith("_cache")]
        for name in files:
            path = Path(directory, name)
            relative = path.relative_to(REPO_ROOT)
            if relative.parts[0] not in history and ARTIFACT.encode() in path.read_bytes():
                found.append(str(relative))
    assert found == []
    assert not (REPO_ROOT / "src" / "repro" / "bench.py").exists()
