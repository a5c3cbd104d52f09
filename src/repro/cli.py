"""Command-line interface: deal keys, run demos, inspect structures.

Gives the library a direct operational surface::

    python -m repro deal --n 4 --t 1 --out ./deployment
    python -m repro demo notary
    python -m repro demo directory --corrupt 1
    python -m repro structure example2
    python -m repro lint src/repro --format json
    python -m repro run-replica --dir ./deployment --party 2
    python -m repro run-client --dir ./deployment --op "set k v" --op "get k"
    python -m repro chaos run --scenario dealerless

Every simulator command is deterministic given ``--seed``; the
``run-replica`` / ``run-client`` / ``chaos`` family runs over real TCP
sockets (see docs/DEPLOYMENT.md) and is as deterministic as the
operating system's scheduler.
"""

from __future__ import annotations

import argparse
import random
import sys

__all__ = ["main"]


def _cmd_deal(args: argparse.Namespace) -> int:
    from .adversary import example1_access_formula, example1_structure
    from .adversary import example2_access_formula, example2_structure
    from .crypto import deal_system, default_group, small_group
    from .crypto.keystore import write_deployment

    rng = random.Random(args.seed)
    group = default_group() if args.full_strength else small_group()
    if args.structure == "example1":
        keys = deal_system(
            9, rng, structure=example1_structure(),
            access_formula=example1_access_formula(), group=group,
        )
    elif args.structure == "example2":
        keys = deal_system(
            16, rng, structure=example2_structure(),
            access_formula=example2_access_formula(), group=group,
        )
    elif args.hybrid:
        b, c = (int(x) for x in args.hybrid.split(","))
        keys = deal_system(args.n, rng, hybrid=(b, c), group=group,
                           clients=args.clients)
    else:
        keys = deal_system(args.n, rng, t=args.t, group=group,
                           clients=args.clients)
    paths = write_deployment(keys, args.out)
    print(f"dealt {keys.public.quorum.describe()}")
    for path in paths:
        print(f"  wrote {path}")
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    from .apps import (
        CaClient,
        CertificationAuthority,
        DirectoryClient,
        DirectoryService,
        NotaryClient,
        NotaryService,
    )
    from .net import SilentNode
    from .smr import build_service

    factories = {
        "directory": (DirectoryService, False),
        "ca": (CertificationAuthority, False),
        "notary": (NotaryService, True),
    }
    factory, causal = factories[args.service]
    deployment = build_service(
        args.n, factory, t=args.t, causal=causal, seed=args.seed
    )
    for server in range(args.corrupt):
        victim = args.n - 1 - server
        deployment.controller.corrupt(deployment.network, victim, SilentNode())
        print(f"corrupted server {victim} (silent)")
    raw_client = deployment.new_client()
    deployment.network.start()

    if args.service == "directory":
        client = DirectoryClient(raw_client)
        nonces = [client.bind("demo/name", "value-1"), client.resolve("demo/name")]
    elif args.service == "ca":
        client = CaClient(raw_client)
        nonces = [
            client.request_certificate("demo-user", 0xD3F0,
                                       {"name": "Demo", "email": "demo@example"}),
            client.lookup("demo-user"),
        ]
    else:
        client = NotaryClient(raw_client, confidential=True)
        nonces = [client.register(b"demo document")]
    results = deployment.run_until_complete(raw_client, nonces, max_steps=1_500_000)
    for nonce in nonces:
        print(f"request {nonce} ->", results[nonce].result)
    print(f"messages delivered: {deployment.network.delivered_count}")
    snapshots = {r.state_machine.snapshot() for r in deployment.honest_replicas()}
    deployment.network.run(max_steps=1_500_000)
    snapshots = {r.state_machine.snapshot() for r in deployment.honest_replicas()}
    print(f"honest replicas consistent: {len(snapshots) == 1}")
    return 0


def _parse_operation(text: str) -> tuple:
    """``"set key value"`` / ``"get key"`` -> a KeyValueStore operation."""
    parts = text.split()
    if len(parts) == 3 and parts[0] == "set":
        value: object = parts[2]
        try:
            value = int(parts[2])
        except ValueError:
            pass
        return ("set", parts[1], value)
    if len(parts) == 2 and parts[0] == "get":
        return ("get", parts[1])
    raise SystemExit(f"cannot parse operation {text!r} (use 'set K V' or 'get K')")


def _cmd_run_replica(args: argparse.Namespace) -> int:
    import asyncio

    from .net.runtime import serve_replica

    return asyncio.run(
        serve_replica(
            args.dir, args.party, recover=args.recover,
            byzantine=args.byzantine, journal=args.journal,
            checkpoint_every=args.checkpoint_every,
        )
    )


def _cmd_reconfig(args: argparse.Namespace) -> int:
    import asyncio

    from .net.cluster import submit_reconfigure

    result = asyncio.run(
        submit_reconfigure(
            args.dir, args.action, signer=args.signer, party=args.party,
            verify_key=args.verify_key, host=args.host, port=args.port,
            timeout=args.timeout,
        )
    )
    print(f"reconfigure {args.action}: {result!r}")
    return 0 if isinstance(result, tuple) and "accepted" in result else 1


def _cmd_run_client(args: argparse.Namespace) -> int:
    import asyncio

    from .crypto.dealer import CLIENT_BASE
    from .net.cluster import run_client_ops

    if args.op:
        operations = [_parse_operation(op) for op in args.op]
    else:
        operations = [("set", "demo", 1), ("get", "demo")]
    results = asyncio.run(
        run_client_ops(
            args.dir, operations,
            client_id=args.client if args.client is not None else CLIENT_BASE,
            timeout=args.timeout,
        )
    )
    for operation, result in zip(operations, results):
        print(f"{operation!r} -> {result!r}")
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from .net import chaos

    if args.chaos_command == "list":
        for name, scenario in sorted(chaos.builtin_scenarios().items()):
            print(
                f"{name}: n={scenario.n} t={scenario.t} seed={scenario.seed} "
                f"ops={scenario.ops} events={len(scenario.events)} "
                f"byzantine={dict(scenario.byzantine) or '{}'}"
            )
        return 0
    if args.chaos_command == "run":
        scenario = chaos.resolve_scenario(args.scenario, seed=args.chaos_seed)
        report = chaos.run_tcp(scenario, directory=args.dir, keep=args.keep)
        return chaos.record_run(
            report, args.journal, args.failure_json, scenario_ref=args.scenario
        )
    return chaos.replay_journal(args.journal)


def _cmd_structure(args: argparse.Namespace) -> int:
    from .adversary import (
        example1_structure,
        example2_structure,
        threshold_structure,
    )

    if args.which == "example1":
        structure = example1_structure()
    elif args.which == "example2":
        structure = example2_structure()
    else:
        structure = threshold_structure(args.n, args.t)
    print(structure.describe() if len(structure.maximal_sets) <= 40 else
          f"AdversaryStructure(n={structure.n}, |A*|={len(structure.maximal_sets)})")
    print("Q^3:", structure.satisfies_q3())
    print("max corruptible coalition:", structure.max_corruptible_size())
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    import json
    import pathlib

    from .net import sweep
    from .net.chaos import ScenarioError

    if args.grid is not None:
        path = pathlib.Path(args.grid)
        if not path.exists():
            print(f"sweep: no such grid file {args.grid}", file=sys.stderr)
            return 2
        try:
            spec = sweep.SweepSpec.from_json(json.loads(path.read_text()))
        except (ScenarioError, ValueError) as exc:
            print(f"sweep: invalid grid {args.grid}: {exc}", file=sys.stderr)
            return 2
    elif args.smoke:
        spec = sweep.smoke_spec()
    else:
        spec = sweep.nightly_spec()
    return sweep.run_sweep(
        spec,
        out=args.out,
        markdown=args.markdown,
        repro_dir=args.repro_dir,
        workers=args.workers,
        tcp_override=args.tcp,
    )


def _cmd_lint(args: argparse.Namespace) -> int:
    import pathlib

    from .analysis import engine, rules

    try:
        rule_ids = args.rules.split(",") if args.rules else None
        if rule_ids is not None:
            rules.rules_by_id(rule_ids)  # validate before any file IO
    except KeyError as exc:
        print(f"repro lint: {exc.args[0]}", file=sys.stderr)
        return 2

    paths = [pathlib.Path(p) for p in (args.paths or ["src/repro"])]
    if args.no_baseline:
        baseline_path = None
    elif args.baseline is not None:
        baseline_path = pathlib.Path(args.baseline)
    else:
        # Default: lint-baseline.json next to the first path's repo root
        # (the directory that contains src/), else the current directory.
        anchor = paths[0].resolve()
        baseline_path = pathlib.Path(engine.DEFAULT_BASELINE_NAME)
        for parent in (anchor, *anchor.parents):
            candidate = parent / engine.DEFAULT_BASELINE_NAME
            if candidate.exists():
                baseline_path = candidate
                break

    try:
        report = engine.run_lint(
            paths, rule_ids=rule_ids, baseline_path=baseline_path
        )
    except FileNotFoundError as exc:
        print(f"repro lint: {exc}", file=sys.stderr)
        return 2

    if args.write_baseline:
        target = baseline_path or pathlib.Path(engine.DEFAULT_BASELINE_NAME)
        engine.write_baseline(report, target)
        print(f"wrote {len(report.diagnostics) + len(report.baselined)} "
              f"finding(s) to {target}")
        return 0

    if args.format == "json":
        print(engine.format_json(report))
    elif args.format == "sarif":
        from .analysis import sarif

        print(sarif.format_sarif(report))
    else:
        print(report.format_text(verbose=args.verbose))
    return 0 if report.ok else 1


def main(argv: list[str] | None = None) -> int:
    """Entry point for ``python -m repro``."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Distributing Trust on the Internet — reproduction CLI",
    )
    parser.add_argument("--seed", type=int, default=0, help="deterministic seed")
    sub = parser.add_subparsers(dest="command", required=True)

    deal = sub.add_parser("deal", help="run the trusted dealer, write key files")
    deal.add_argument("--n", type=int, default=4)
    deal.add_argument("--t", type=int, default=1)
    deal.add_argument("--hybrid", help="b,c hybrid budgets (exclusive with --t)")
    deal.add_argument(
        "--structure", choices=["example1", "example2"],
        help="use a generalized structure from the paper",
    )
    deal.add_argument("--out", default="./deployment")
    deal.add_argument(
        "--full-strength", action="store_true",
        help="256-bit group instead of the fast test group",
    )
    deal.add_argument(
        "--clients", type=int, default=0,
        help="provision channel keys for this many client identities",
    )
    deal.set_defaults(func=_cmd_deal)

    demo = sub.add_parser("demo", help="run a replicated service end to end")
    demo.add_argument("service", choices=["directory", "ca", "notary"])
    demo.add_argument("--n", type=int, default=4)
    demo.add_argument("--t", type=int, default=1)
    demo.add_argument("--corrupt", type=int, default=1,
                      help="how many servers to silence")
    demo.set_defaults(func=_cmd_demo)

    run_replica = sub.add_parser(
        "run-replica",
        help="serve one replica over TCP from a deployment directory",
        description=(
            "Boot the party from what its own directory host-<party>/ in --dir "
            "holds: its record state.json if that has keys; else its seed "
            "bootstrap-<party>.json, running key generation with the other "
            "servers (dealerless), or joining the live cluster at the next "
            "epoch when a keyless record sits beside it (provisioned for an "
            "add); else public.json and server-<party>.json as dealt. Read "
            "cluster.json, then serve the replica until SIGTERM/SIGINT; after "
            "boot it writes only its record. With --recover, run Section-6 "
            "crash recovery (state transfer from peers) on startup."
        ),
    )
    run_replica.add_argument("--dir", required=True, help="deployment directory")
    run_replica.add_argument("--party", type=int, required=True)
    run_replica.add_argument("--recover", action="store_true",
                             help="rebuild state from peers before serving")
    run_replica.add_argument(
        "--byzantine", default=None,
        choices=["silent", "spam", "equivocate"],
        help="start this party corrupted (chaos testing)",
    )
    run_replica.add_argument(
        "--journal", action="store_true",
        help="append executed operations to journal/exec-<party>.jsonl",
    )
    run_replica.add_argument(
        "--checkpoint-every", type=int, default=0,
        help="persist an authenticated checkpoint every N executions",
    )
    run_replica.set_defaults(func=_cmd_run_replica)

    reconfig_cmd = sub.add_parser(
        "reconfig",
        help="submit a signed membership change to a live cluster",
        description=(
            "Sign a Reconfigure operation with a current member's identity "
            "key (its seed host-<signer>/bootstrap-<signer>.json, else its "
            "dealt server-<signer>.json) and order it through the running "
            "cluster's atomic broadcast. On commit the cluster reshares to "
            "the new membership and opens the next epoch."
        ),
    )
    reconfig_cmd.add_argument("--dir", required=True, help="deployment directory")
    reconfig_cmd.add_argument("action", choices=["add", "remove", "refresh"])
    reconfig_cmd.add_argument("--signer", type=int, default=0,
                              help="member whose key signs the change")
    reconfig_cmd.add_argument("--party", type=int, default=-1,
                              help="joining/leaving replica id")
    reconfig_cmd.add_argument("--verify-key", type=int, default=0,
                              help="joiner's identity verify key (add only)")
    reconfig_cmd.add_argument("--host", default="", help="joiner's host (add only)")
    reconfig_cmd.add_argument("--port", type=int, default=0,
                              help="joiner's port (add only)")
    reconfig_cmd.add_argument("--timeout", type=float, default=60.0)
    reconfig_cmd.set_defaults(func=_cmd_reconfig)

    run_client = sub.add_parser(
        "run-client",
        help="submit requests to a TCP cluster and await signed answers",
    )
    run_client.add_argument("--dir", required=True, help="deployment directory")
    run_client.add_argument("--client", type=int, default=None,
                            help="client identity (default: first dealt client)")
    run_client.add_argument("--op", action="append",
                            help="operation, e.g. 'set key value' or 'get key'")
    run_client.add_argument("--timeout", type=float, default=60.0)
    run_client.set_defaults(func=_cmd_run_client)

    chaos = sub.add_parser(
        "chaos",
        help="seeded fault injection against a live TCP cluster",
        description=(
            "Run declarative chaos scenarios — network partitions with "
            "scheduled heal, frame loss/corruption/duplication/reordering, "
            "SIGKILL and recovery, SIGSTOP/SIGCONT, corrupted-checkpoint "
            "restarts and Byzantine replicas — against a real TCP cluster, "
            "with continuous safety (prefix-consistent honest logs, no "
            "committed op lost) and liveness (quiescent-window completion "
            "bound) checking. The fault schedule is a deterministic "
            "function of the seed; 'replay' verifies it. See docs/CHAOS.md."
        ),
    )
    chaos_sub = chaos.add_subparsers(dest="chaos_command", required=True)
    chaos_run = chaos_sub.add_parser(
        "run", help="execute a scenario and write its run journal"
    )
    chaos_run.add_argument(
        "--scenario", default="torture",
        help="builtin scenario name, or path to a JSON spec, a run journal "
             "or a sweep repro bundle (see 'chaos list'; default: torture)",
    )
    chaos_run.add_argument("--seed", type=int, default=None, dest="chaos_seed",
                           help="override the scenario's seed")
    chaos_run.add_argument("--dir", default=None,
                           help="working directory (default: a temp dir)")
    chaos_run.add_argument("--keep", action="store_true",
                           help="keep the working directory afterwards")
    chaos_run.add_argument("--journal", default="chaos-journal.json",
                           help="where to write the run journal")
    chaos_run.add_argument(
        "--failure-json", default="chaos-failure.json", dest="failure_json",
        help="where to write a machine-readable failure record (violation "
             "kinds, seed, scenario) when a checker fires",
    )
    chaos_run.set_defaults(func=_cmd_chaos)
    chaos_replay = chaos_sub.add_parser(
        "replay",
        help="re-derive a recorded run's fault schedule and verify it "
             "('chaos run --scenario <journal>' runs it again)",
    )
    chaos_replay.add_argument("--journal", default="chaos-journal.json",
                              help="run journal written by 'chaos run', "
                                   "or a sweep repro bundle")
    chaos_replay.set_defaults(func=_cmd_chaos)
    chaos_list = chaos_sub.add_parser("list", help="list builtin scenarios")
    chaos_list.set_defaults(func=_cmd_chaos)

    structure = sub.add_parser("structure", help="inspect an adversary structure")
    structure.add_argument("which", choices=["threshold", "example1", "example2"])
    structure.add_argument("--n", type=int, default=4)
    structure.add_argument("--t", type=int, default=1)
    structure.set_defaults(func=_cmd_structure)

    sweep = sub.add_parser(
        "sweep",
        help="grid-driven chaos campaign over shapes, faults, latency and load",
        description=(
            "Expand a declarative sweep grid into concrete chaos scenarios "
            "and run them — in-process simulator cells for breadth plus a "
            "sampled subset on the real subprocess TCP cluster for depth — "
            "judging every run with the safety/liveness oracles. Writes a "
            "schema-stable SWEEP.json, an optional markdown table, and a "
            "self-contained repro bundle (accepted verbatim by 'chaos "
            "replay') for every violating cell. Exits 0 iff every cell "
            "matched its expectation. See docs/CHAOS.md."
        ),
    )
    sweep.add_argument("--smoke", action="store_true",
                       help="run the small PR-gate grid instead of the "
                            "nightly campaign")
    sweep.add_argument("--grid", default=None,
                       help="path to a JSON SweepSpec (overrides --smoke)")
    sweep.add_argument("--out", default="SWEEP.json",
                       help="aggregated report path (default: SWEEP.json)")
    sweep.add_argument("--markdown", default=None,
                       help="also render a markdown table to this path")
    sweep.add_argument("--repro-dir", default="sweep-repro", dest="repro_dir",
                       help="directory for failing-cell repro bundles")
    sweep.add_argument("--workers", type=int, default=None,
                       help="simulator worker processes (<=1 runs inline)")
    sweep.add_argument("--tcp", type=int, default=None,
                       help="override the grid's TCP cell count (0 disables)")
    sweep.set_defaults(func=_cmd_sweep)

    lint = sub.add_parser(
        "lint",
        help="run the protocol-invariant static analysis (rules RL001-RL005, RL008)",
        description=(
            "AST-based checks for the invariants the protocol stack relies on: "
            "quorum abstraction (RL001), verified-result gating (RL002), "
            "determinism (RL003), wire registration/handling (RL004), async "
            "hygiene (RL005) and stale reads across an await (RL008). "
            "See docs/STATIC_ANALYSIS.md."
        ),
    )
    lint.add_argument("paths", nargs="*", help="files or directories (default: src/repro)")
    lint.add_argument("--format", choices=["text", "json", "sarif"], default="text")
    lint.add_argument("--rules", help="comma-separated rule ids, e.g. RL001,RL003")
    lint.add_argument("--baseline", help="baseline file (default: nearest lint-baseline.json)")
    lint.add_argument("--no-baseline", action="store_true",
                      help="report every finding, ignoring the baseline")
    lint.add_argument("--write-baseline", action="store_true",
                      help="snapshot current findings into the baseline file")
    lint.add_argument("-v", "--verbose", action="store_true",
                      help="also summarize baselined findings")
    lint.set_defaults(func=_cmd_lint)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
