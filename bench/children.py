"""Child processes of the benchmark: same interpreter, this checkout."""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

__all__ = ["ROOT", "WORK", "child_env", "run_module"]

ROOT = pathlib.Path(__file__).resolve().parents[1]
# Everything the benchmark writes (deployment directories, span dumps)
# goes here; .gitignore names it.
WORK = ROOT / "bench" / ".work"

# No child of the benchmark may outlive the driver's 180 s limit.
CHILD_TIMEOUT = 170.0


def child_env(**extra: str) -> dict[str, str]:
    """Children import ``repro`` and ``bench`` from this checkout."""
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    return env


def run_module(module: str, *args: object, **env: str) -> str:
    """``python -m <module> <args>`` to completion; its standard output
    (standard error is shared with this process).  Raises
    ``CalledProcessError`` if it fails."""
    done = subprocess.run(
        [sys.executable, "-m", module, *map(str, args)],
        env=child_env(**env), stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
        text=True, timeout=CHILD_TIMEOUT, check=True,
    )
    return done.stdout
