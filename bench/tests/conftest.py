"""Run with ``PYTHONPATH=src python -m pytest bench/tests -q`` from the
repository root (not part of the tier-1 suite: it starts clusters)."""

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]
for entry in (str(ROOT), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)
