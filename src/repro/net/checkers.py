"""Continuous safety and liveness checking for chaos runs.

The chaos engine (:mod:`repro.net.chaos`) tortures a live TCP cluster;
these checkers are the oracle deciding whether the run refuted the
paper's guarantees:

* **Safety** — the executed-operation journals of the honest replicas
  must be *prefix-consistent* (any two journals agree on every position
  both contain: the single total order of atomic broadcast, observed
  from the outside), and no operation the client holds a threshold-
  signed answer for may be missing from the longest honest journal —
  "no committed op is lost", including across crash/recovery.
* **Liveness** — operations submitted in a *quiescent window* (every
  partition healed, no pending lifecycle fault) must complete within a
  stated bound.  During active faults only safety is checked: the
  asynchronous model promises nothing about timing there.
* **Reconfiguration** — every planned membership change must be
  accepted by the ordered history, and by the quiescent window every
  live member of an epoch it opened must have entered that epoch with
  its pre-switch shares dead (``stale_shares_valid=False``).

Checkers are pure functions over plain data (journal entries as
dictionaries, probe records), so they are trivially unit-testable and
reusable against any journal source.
"""

from __future__ import annotations

import json
import math
import pathlib
from dataclasses import asdict, dataclass, field

__all__ = [
    "JournalEntry",
    "SafetyReport",
    "LivenessReport",
    "ReconfigReport",
    "read_journals",
    "check_safety",
    "check_liveness",
    "check_reconfigs",
    "opened_epochs",
    "percentile",
    "summarize_run",
    "violation_kinds",
]


@dataclass(frozen=True)
class JournalEntry:
    """One executed operation as recorded by a replica host.

    ``round`` is the atomic-broadcast round the operation was ordered
    in (-1 for records predating the batched protocol, or for
    client-side commit records where the round is unknown).  With
    batching, several entries share a round; rounds must never decrease
    along a journal.
    """

    client: int
    nonce: int
    op: tuple
    round: int = -1

    @classmethod
    def from_json(cls, data: dict) -> "JournalEntry":
        return cls(
            client=int(data["client"]),
            nonce=int(data["nonce"]),
            op=tuple(data["op"]),
            round=int(data.get("round", -1)),
        )

    def key(self) -> tuple:
        return (self.client, self.nonce)


def read_journals(
    directory: str | pathlib.Path, parties: list[int]
) -> dict[int, list[JournalEntry]]:
    """Load ``journal/exec-<party>.jsonl`` for every listed party.

    A missing journal (replica never started, or was killed before its
    first execution) reads as an empty log — an empty log is trivially
    a prefix of every other log, so this is not an error.
    """
    journals: dict[int, list[JournalEntry]] = {}
    base = pathlib.Path(directory) / "journal"
    for party in parties:
        path = base / f"exec-{party}.jsonl"
        entries: list[JournalEntry] = []
        if path.exists():
            for line in path.read_text().splitlines():
                line = line.strip()
                if line:
                    entries.append(JournalEntry.from_json(json.loads(line)))
        journals[party] = entries
    return journals


class _Verdict:
    """A checker's verdict; ``to_json`` is its fields, in order."""

    def to_json(self) -> dict:
        return asdict(self)


@dataclass
class SafetyReport(_Verdict):
    """Verdict of the prefix-consistency / no-lost-commit check.

    ``kinds`` classifies each issue with a stable machine-readable tag
    (``safety.divergence``, ``safety.round-regression``,
    ``safety.lost-commit``) so CI jobs and the sweep harness can gate
    and aggregate on violation *kind* without parsing prose.
    """

    ok: bool
    issues: list[str] = field(default_factory=list)
    longest: int = 0
    kinds: list[str] = field(default_factory=list)


def check_safety(
    journals: dict[int, list[JournalEntry]],
    committed: list[JournalEntry] | None = None,
) -> SafetyReport:
    """Honest journals must be pairwise prefix-consistent, and every
    client-committed operation must appear in the longest journal.

    ``committed`` holds the operations the client received a combined
    threshold signature for — the service vouched for them, so a
    recovery that loses one is a safety violation even if the surviving
    logs still agree with each other.
    """
    issues: list[str] = []
    kinds: list[str] = []

    def flag(kind: str, message: str) -> None:
        kinds.append(kind)
        issues.append(message)

    parties = sorted(journals)
    # Batched rounds: several journal entries may share an ordering
    # round, but rounds must never decrease along any single journal —
    # a decrease means a replica executed part of an earlier batch
    # after a later one (ordering violated across a batch boundary).
    for party in parties:
        last_round = -1
        for position, entry in enumerate(journals[party]):
            if entry.round < 0:
                continue  # legacy record without round information
            if entry.round < last_round:
                flag(
                    "safety.round-regression",
                    f"round regression in journal of replica {party} at "
                    f"position {position}: round {entry.round} after "
                    f"round {last_round}",
                )
                break
            last_round = entry.round
    for i, a in enumerate(parties):
        for b in parties[i + 1:]:
            log_a, log_b = journals[a], journals[b]
            for position in range(min(len(log_a), len(log_b))):
                if log_a[position] != log_b[position]:
                    flag(
                        "safety.divergence",
                        f"divergence at position {position}: "
                        f"replica {a} executed {log_a[position]}, "
                        f"replica {b} executed {log_b[position]}",
                    )
                    break  # one divergence per pair is enough evidence
    longest: list[JournalEntry] = []
    for party in parties:
        if len(journals[party]) > len(longest):
            longest = journals[party]
    if committed:
        executed_keys = {entry.key() for entry in longest}
        for entry in committed:
            if entry.key() not in executed_keys:
                flag(
                    "safety.lost-commit",
                    f"committed operation lost: client {entry.client} holds a "
                    f"signed answer for nonce {entry.nonce} ({entry.op!r}) but "
                    f"no honest journal of maximal length contains it",
                )
    return SafetyReport(
        ok=not issues, issues=issues, longest=len(longest), kinds=kinds
    )


@dataclass
class LivenessReport(_Verdict):
    """Verdict of the quiescent-window completion check.

    ``kinds`` carries the machine-readable violation tags
    (``liveness.stuck`` for a probe that never completed,
    ``liveness.slow`` for one that exceeded the bound).
    """

    ok: bool
    bound: float
    probes: list[dict] = field(default_factory=list)
    issues: list[str] = field(default_factory=list)
    kinds: list[str] = field(default_factory=list)


def check_liveness(probes: list[dict], bound: float) -> LivenessReport:
    """Every probe submitted in a quiescent window must have completed
    within ``bound`` (seconds on the TCP backend, delivery steps on the
    simulator; ``latency`` is ``None`` for a timeout)."""
    issues: list[str] = []
    kinds: list[str] = []
    for probe in probes:
        latency = probe.get("latency")
        if latency is None:
            kinds.append("liveness.stuck")
            issues.append(f"probe {probe.get('op')!r} never completed")
        elif latency > bound:
            kinds.append("liveness.slow")
            issues.append(
                f"probe {probe.get('op')!r} took {latency:.2f}s "
                f"(bound {bound:.2f}s)"
            )
    return LivenessReport(
        ok=not issues, bound=bound, probes=list(probes), issues=issues,
        kinds=kinds,
    )


@dataclass
class ReconfigReport(_Verdict):
    """Verdict of the planned reconfigurations.

    ``kinds``: ``reconfig.rejected`` for a change the ordered history
    did not accept (or never answered), ``reconfig.not-entered`` for a
    live member with no line saying it entered an epoch it belongs to,
    ``reconfig.stale-shares`` for one whose pre-switch shares still
    verify there.  ``epochs`` maps each opened epoch to its size.
    """

    ok: bool
    epochs: dict[int, int] = field(default_factory=dict)
    issues: list[str] = field(default_factory=list)
    kinds: list[str] = field(default_factory=list)


def _accepted(event: dict) -> bool:
    return event.get("result") == ["reconfig", "accepted", event.get("epoch")]


def opened_epochs(events: list[dict], n: int) -> dict[int, int]:
    """Epoch -> member count, for each epoch an accepted reconfiguration
    among the run's ``events`` opened, starting from ``n`` members."""
    epochs: dict[int, int] = {}
    accepted = [e for e in events if e.get("kind") == "reconfig" and _accepted(e)]
    for event in sorted(accepted, key=lambda e: e["epoch"]):
        n += {"add": 1, "remove": -1}.get(event.get("action"), 0)
        epochs[event["epoch"]] = n
    return epochs


def check_reconfigs(
    events: list[dict], entered: dict[int, list[dict]], n: int
) -> ReconfigReport:
    """Every reconfiguration event must read ``("reconfig", "accepted",
    epoch)``, and every live member in ``entered`` (party -> the fields
    of each epoch-entry line it printed, values as printed) must have
    entered every opened epoch whose members include it, with
    ``stale_shares_valid`` not ``True``.  A joiner's line has no such
    field: it held no shares to probe."""
    issues: list[str] = []
    kinds: list[str] = []

    def flag(kind: str, message: str) -> None:
        kinds.append(kind)
        issues.append(message)

    for event in events:
        if event.get("kind") == "reconfig" and not _accepted(event):
            flag(
                "reconfig.rejected",
                f"{event.get('action')} for epoch {event.get('epoch')} "
                f"answered {event.get('result')!r}",
            )
    epochs = opened_epochs(events, n)
    for party in sorted(entered):
        for epoch, members in sorted(epochs.items()):
            if party >= members:
                continue
            lines = [f for f in entered[party] if f.get("epoch") == str(epoch)]
            if not lines:
                flag(
                    "reconfig.not-entered",
                    f"replica {party} never said it entered epoch {epoch}",
                )
            elif any(f.get("stale_shares_valid") == "True" for f in lines):
                flag(
                    "reconfig.stale-shares",
                    f"replica {party}'s pre-switch shares verify in epoch {epoch}",
                )
    return ReconfigReport(ok=not issues, epochs=epochs, issues=issues, kinds=kinds)


# -- per-run summary extraction ------------------------------------------------------


def percentile(values: list[float], q: float) -> float | None:
    """Nearest-rank percentile (q in [0, 1]); ``None`` on empty input."""
    if not values:
        return None
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def violation_kinds(report: dict) -> list[str]:
    """The machine-readable violation tags of a run report (journal
    dict as written by ``chaos run`` or the sweep's simulator path).

    Journals written before ``kinds`` existed fall back to a generic
    per-checker tag so old artifacts still aggregate.
    """
    kinds: list[str] = []
    for checker in ("safety", "liveness", "reconfig"):
        verdict = report.get(checker) or {}
        tags = verdict.get("kinds")
        if tags is None:
            tags = [f"{checker}.violation"] if verdict.get("issues") else []
        kinds.extend(tags)
    return kinds


def summarize_run(report: dict) -> dict:
    """Schema-stable summary of one chaos/sweep run report.

    Extracts what the sweep aggregates per grid cell: commit counts,
    workload-op and probe latency percentiles, committed ops/sec, and
    agreement rounds per committed operation (the report's
    ``last_round`` — the highest round in an honest journal — over
    ``committed``; 1.0 is a round per request, batching reads below it,
    rounds that delivered nothing above; ``None`` for reports written
    before the field existed).
    Latencies are in the report's ``latency_unit`` (``seconds`` for TCP
    runs, ``steps`` for simulator runs — ops/sec is only computed for
    wall-clock units).  Pure function over the report dict, so it works
    on journals from disk as well as in-process results.
    """
    events = report.get("events", [])
    op_events = [e for e in events if e.get("kind") == "op"]
    op_latencies = [
        e["latency"] for e in op_events if e.get("latency") is not None
    ]
    probes = (report.get("liveness") or {}).get("probes", [])
    probe_latencies = [
        p["latency"] for p in probes if p.get("latency") is not None
    ]
    unit = report.get("latency_unit", "seconds")
    committed = int(report.get("committed", 0))
    ops_per_s: float | None = None
    if unit == "seconds":
        stamps = [e["at_actual"] for e in events if "at_actual" in e]
        span = max(stamps) - min(stamps) if len(stamps) >= 2 else 0.0
        if committed and span > 0:
            ops_per_s = committed / span
    last_round = report.get("last_round")
    rounds_per_commit: float | None = None
    if committed and last_round is not None:
        rounds_per_commit = round(last_round / committed, 3)
    return {
        "ok": bool(report.get("ok")),
        "committed": committed,
        "rounds_per_commit": rounds_per_commit,
        "ops": len(op_events),
        "probes": len(probes),
        "latency_unit": unit,
        "latency_p50": percentile(op_latencies, 0.5),
        "latency_p99": percentile(op_latencies, 0.99),
        "probe_p50": percentile(probe_latencies, 0.5),
        "ops_per_s": ops_per_s,
        "violations": violation_kinds(report),
    }
