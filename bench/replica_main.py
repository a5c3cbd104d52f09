"""Launcher for a *traced* replica: wrap the layers, then run the CLI.

``python -m bench.replica_main <trace dir> run-replica --dir … --party …``
installs the span tracer of :mod:`bench.trace` in this process and
hands the remaining arguments to :func:`repro.cli.main` unchanged, so
the replica is the same program the untraced pass starts with
``python -m repro``.  On SIGUSR1 it writes its totals so far to
``<trace dir>/trace-<party>-<k>.json`` (k = 1, 2, …): the bench takes
one snapshot at each end of the measured window.
"""

from __future__ import annotations

import json
import os
import pathlib
import signal
import sys

from bench.trace import Tracer, install


def main(argv: list[str]) -> int:
    directory = pathlib.Path(argv[0])
    cli_args = argv[1:]
    party = cli_args[cli_args.index("--party") + 1]
    tracer = Tracer()
    install(tracer)
    written = 0

    def dump(signum, frame) -> None:
        nonlocal written
        written += 1
        path = directory / f"trace-{party}-{written}.json"
        partial = path.with_suffix(".tmp")
        partial.write_text(json.dumps(tracer.snapshot()))
        os.replace(partial, path)

    signal.signal(signal.SIGUSR1, dump)
    from repro.cli import main as cli_main

    return cli_main(cli_args)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
