"""The captured-output drain of a spawned replica process."""

from __future__ import annotations

import asyncio
import sys

from repro.net.cluster import _ReplicaProcess

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
        await replica.wait_for_line("after")
        await replica.stop()
        return replica.lines

    lines = asyncio.run(scenario())
    assert lines[0] == "replica-final snapshot=" + "x" * _LONG
    assert lines[1:] == ["after", "no newline"]
