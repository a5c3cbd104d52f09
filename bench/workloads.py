"""The four workloads, their inputs, and the model their outputs are
checked against.

Every workload submits ordered ``("set", key, value)`` operations with
16-byte values over a 256-key space to a replicated
:class:`~repro.smr.state_machine.KeyValueStore`.  The seed picks keys
and values (key material is fixed, see ``measure.KEY_SEED``); the
system under test receives the generated operations, never the seed or
the workload's name.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.crypto.groups import SchnorrGroup, default_group

__all__ = ["KEYS", "WORKLOADS", "Workload", "expected_snapshot", "operations"]

KEYS = 256
VALUE_BYTES = 16

# RFC 3526 group 5: the 1536-bit MODP safe prime (p = 2q + 1), with
# g = 4 generating the order-q subgroup of squares.  Embedded so that no
# run pays for prime generation.
_MODP_1536 = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
    "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
    "4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3DC2007CB8A163BF05"
    "98DA48361C55D39A69163FA8FD24CF5F83655D23DCA3AD961C62F356208552BB"
    "9ED529077096966D670C354E4ABC9804F1746C08CA237327FFFFFFFFFFFFFFFF",
    16,
)


def modp_1536_group() -> SchnorrGroup:
    return SchnorrGroup(p=_MODP_1536, q=(_MODP_1536 - 1) // 2, g=4)


@dataclass(frozen=True)
class Workload:
    """One set of inputs the benchmark runs (why each is here is in
    ``BENCHMARK.json`` and the README).

    ``backend`` is ``"tcp"`` (``run-replica`` subprocesses over loopback
    TCP) or ``"sim"`` (all nodes in this process under the lock-step
    scheduler).  ``window`` is the number of requests each client keeps
    in flight (closed loop); ``rate`` is each client's requests per
    second on a fixed schedule (open loop) — exactly one is non-zero.
    ``ops_per_second`` sizes the run: ``--seconds s`` submits
    ``round(ops_per_second * s)`` operations, a fixed amount of work
    that takes about ``s`` seconds on the two-core reference box, so
    history length — and with it memory and every exact count — is the
    same on every commit.
    """

    name: str
    backend: str
    n: int
    t: int
    group_name: str
    clients: int
    ops_per_second: float
    window: int = 0
    rate: float = 0.0
    recover: bool = False

    def group(self) -> SchnorrGroup:
        return modp_1536_group() if self.group_name == "modp1536" else default_group()

    def op_count(self, seconds: float) -> int:
        # Never fewer than twenty samples: the median needs ten beyond it.
        return max(20, round(self.ops_per_second * seconds))


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="tcp_n4_open6",
            backend="tcp", n=4, t=1, group_name="default256",
            clients=2, ops_per_second=6.0, rate=3.0,
        ),
        Workload(
            name="tcp_n4_closed48",
            backend="tcp", n=4, t=1, group_name="default256",
            clients=2, ops_per_second=120.0, window=24, recover=True,
        ),
        Workload(
            name="sim_n7_set16",
            backend="sim", n=7, t=2, group_name="default256",
            clients=1, ops_per_second=56.0, window=48,
        ),
        Workload(
            name="sim_n4_modp1536",
            backend="sim", n=4, t=1, group_name="modp1536",
            clients=1, ops_per_second=4.0, window=64,
        ),
    )
}


def operations(seed: int, client_index: int, count: int) -> list[tuple]:
    """The ``count`` operations client ``client_index`` submits, in order."""
    rng = random.Random(f"bench-ops/{seed}/{client_index}")
    return [
        ("set", f"key-{rng.randrange(KEYS):03d}", rng.randbytes(VALUE_BYTES))
        for _ in range(count)
    ]


def expected_snapshot(committed: list[tuple[tuple, object]]) -> tuple[object, list[str]]:
    """What ``KeyValueStore.snapshot()`` must be after exactly the given
    ``(operation, result)`` pairs committed, plus every way the results
    are inconsistent with *some* total order of those operations.

    Each ``set`` answers ``("ok", version)`` with the store's version
    counter, so the versions must be exactly ``1..len(committed)`` and
    the last write to a key is the one with the highest version.
    """
    errors: list[str] = []
    by_version: dict[int, tuple] = {}
    for operation, result in committed:
        if not (
            isinstance(result, tuple) and len(result) == 2
            and result[0] == "ok" and isinstance(result[1], int)
        ):
            errors.append(f"{operation!r} answered {result!r}")
        elif result[1] in by_version:
            errors.append(f"version {result[1]} answered twice")
        else:
            by_version[result[1]] = operation
    if sorted(by_version) != list(range(1, len(committed) + 1)):
        errors.append(
            f"versions are not 1..{len(committed)} "
            f"(got {len(by_version)} distinct, max {max(by_version, default=0)})"
        )
    data: dict[str, object] = {}
    for version in sorted(by_version):
        _, key, value = by_version[version]
        data[key] = value
    return (len(committed), tuple(sorted(data.items()))), errors
