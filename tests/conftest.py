"""Shared fixtures: pre-dealt key systems and network builders.

Dealing keys is the expensive part of every protocol test, so dealt
systems are cached per (n, t / structure) at session scope; tests that
mutate nothing share them freely.  Networks and runtimes are cheap and
always built fresh.
"""

from __future__ import annotations

import pathlib
import random
import sys

import pytest

# Make tests/helpers.py importable as `helpers` from any test module.
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from repro.adversary import example1_access_formula, example1_structure
from repro.crypto import deal_system, small_group
from repro.crypto.dealer import SystemKeys


@pytest.fixture(scope="session")
def keys_4_1() -> SystemKeys:
    return deal_system(4, random.Random(1001), t=1, group=small_group())


@pytest.fixture(scope="session")
def keys_7_2() -> SystemKeys:
    return deal_system(7, random.Random(1002), t=2, group=small_group())


@pytest.fixture(scope="session")
def keys_example1() -> SystemKeys:
    return deal_system(
        9,
        random.Random(1003),
        structure=example1_structure(),
        access_formula=example1_access_formula(),
        group=small_group(),
    )
