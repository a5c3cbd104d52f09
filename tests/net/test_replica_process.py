"""What a replica process says on stdout: the one writer and reader of
its lines, and the captured-output drain of a spawned process."""

from __future__ import annotations

import asyncio
import pathlib
import re
import sys

import pytest

from repro.net.cluster import _ReplicaProcess
from repro.net.runtime import LINE_KINDS, parse, render
from repro.net.transport import TransportError

_LONG = 200_000  # well past asyncio's 64 KiB StreamReader line limit


def test_drain_survives_a_line_longer_than_the_stream_limit():
    """``replica-final … snapshot=`` of a large store is one long line;
    the drain must record it and keep going, not die on it."""
    script = (
        "print('replica-final snapshot=' + 'x' * %d, flush=True);"
        "print('after', flush=True);"
        "print('no newline', end='', flush=True)" % _LONG
    )

    async def scenario() -> list[str]:
        proc = await asyncio.create_subprocess_exec(
            sys.executable, "-c", script,
            stdout=asyncio.subprocess.PIPE,
            stderr=asyncio.subprocess.STDOUT,
        )
        replica = _ReplicaProcess(proc, party=0, io_timeout=30.0)
        await replica.wait_for("replica-final")
        await asyncio.wait_for(proc.wait(), 30.0)  # let it say the rest
        await replica.stop()
        return replica.lines

    lines = asyncio.run(scenario())
    assert lines[0] == "replica-final snapshot=" + "x" * _LONG
    assert lines[1:] == ["after", "no newline"]


# One sample per kind (two where a field is optional): the fields as the
# host passes them.
_SAMPLES = [
    ("listening", {"host": "127.0.0.1", "port": 39119}),
    ("listening", {"host": "127.0.0.1", "port": 57343, "recovering": True}),
    ("replica-checkpoint", {"status": "rejected"}),
    ("replica-recovered", {"executed": 6}),
    ("replica-abc-stats", {"rounds": "7", "delivered": "9", "mean_batch": "1.286",
                           "occupancy": "1.000"}),
    ("replica-final", {"executed": 7, "snapshot": repr((6, (("key 0", "a=b c"),)))}),
    ("replica-final", {"byzantine": "silent"}),
    ("replica-dkg", {"qualified": "0,1,2,3"}),
    ("replica-dkg-retry", {"attempt": 1}),
    ("replica-join-retry", {"attempt": 2}),
    ("replica-reshare-retry", {"epoch": 3, "attempt": 1}),
    ("replica-epoch", {"epoch": 1, "n": 5}),
    ("replica-epoch", {"epoch": 2, "n": 4, "stale_shares_valid": False}),
    ("replica-stale-epoch", {"epoch": 2, "n": 4}),
    ("replica-departed", {"epoch": 2}),
    ("replica-retired", {"epoch": 2}),
    ("replica-reconfig-unsupported", {"note": "(non-threshold quorum)"}),
]


def test_every_kind_round_trips():
    assert {kind for kind, _ in _SAMPLES} == set(LINE_KINDS)
    for kind, fields in _SAMPLES:
        expected = {"party": "3", **{name: str(value) for name, value in fields.items()}}
        if "recovering" in fields:
            expected["recovering"] = "recovering"  # the word in the parenthesis
        assert parse(render(kind, 3, **fields)) == (kind, expected)
    with pytest.raises(ValueError):
        render("replica-recovered", 3, excuted=6)  # a misspelt field is refused
    assert parse("Traceback (most recent call last):") is None
    assert parse("replica-unheard-of party=3") is None


def test_the_lines_the_benchmark_reads_keep_their_bytes():
    """``bench/tcp.py`` (frozen) finds these four by substring and takes
    them apart with ``split``: copied from the output of the commit that
    introduced ``render``, so they cannot drift."""
    assert render("listening", 0, host="127.0.0.1", port=39119, recovering=False) == (
        "replica 0 listening on 127.0.0.1:39119"
    )
    assert render("listening", 3, host="127.0.0.1", port=57343, recovering=True) == (
        "replica 3 listening on 127.0.0.1:57343 (recovering)"
    )
    assert render("replica-recovered", 3, executed=5) == (
        "replica-recovered party=3 executed=5"
    )
    assert render(
        "replica-abc-stats", 3, rounds=f"{2.0:.0f}", delivered=f"{2.0:.0f}",
        mean_batch=f"{1.0:.3f}", occupancy=f"{1.0:.3f}",
    ) == "replica-abc-stats party=3 rounds=2 delivered=2 mean_batch=1.000 occupancy=1.000"
    snapshot = (6, (("key-0", 0), ("key-1", 1)))
    assert render("replica-final", 3, executed=7, snapshot=repr(snapshot)) == (
        "replica-final party=3 executed=7 snapshot=(6, (('key-0', 0), ('key-1', 1)))"
    )


def test_the_lines_the_deployment_guide_quotes_are_in_the_vocabulary():
    guide = pathlib.Path(__file__).resolve().parents[2] / "docs" / "DEPLOYMENT.md"
    quoted = re.findall(r"^  \[replica \d+\] (.+)$", guide.read_text(), re.MULTILINE)
    assert len(quoted) >= 4
    for line in quoted:
        kind, fields = parse(line)
        assert set(fields) <= {"party", *LINE_KINDS[kind]}, line


def test_wait_for_matches_fields_and_fails_once_the_process_is_gone():
    script = (
        "print('replica-epoch party=0 epoch=1 n=5', flush=True);"
        "print('some warning', flush=True);"
        "print('replica-epoch party=0 epoch=2 n=4 stale_shares_valid=False', flush=True)"
    )

    async def scenario() -> None:
        proc = await asyncio.create_subprocess_exec(
            sys.executable, "-c", script,
            stdout=asyncio.subprocess.PIPE,
            stderr=asyncio.subprocess.STDOUT,
        )
        replica = _ReplicaProcess(proc, party=0, io_timeout=30.0)
        entered = await replica.wait_for("replica-epoch", epoch=2)
        assert entered == {
            "party": "0", "epoch": "2", "n": "4", "stale_shares_valid": "False",
        }
        assert (await replica.wait_for("replica-epoch"))["epoch"] == "1"
        with pytest.raises(TransportError, match="exited before printing"):
            await replica.wait_for("replica-epoch", epoch=3)
        await replica.stop()
        assert replica.lines[1] == "some warning"

    asyncio.run(scenario())
