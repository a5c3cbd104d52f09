"""A host owns its files: each host keeps one record of its own, and
nothing writes the deployment directory after boot.

Every test drives hosts on the simulator (``SimCluster``) through the
cluster's verbs and reads only the hosts' attributes and the directory,
never a record's layout.
"""

import asyncio
import hashlib
import json
import pathlib
import random

import pytest

from repro.crypto import keystore
from repro.crypto.dealer import CLIENT_BASE
from repro.net.chaos import LifecycleEvent, Scenario, parameterize_scenario, run_timeline
from repro.net.cluster import deal_deployment
from repro.net.runtime import ReplicaHost, identity_key, provision_joiner
from repro.net.sweep import SimCluster

_ENTRY_KINDS = ("replica-epoch", "replica-stale-epoch")


async def _order(cluster, operation):
    """Submit ``operation`` and run the cell until it is answered."""
    answers = []
    await cluster.submit(operation, answers.append)
    await cluster.next_reply()
    assert answers and answers[0] is not None, operation
    return answers[0].result


def test_a_checkpoint_written_before_an_add_loads_after_it(tmp_path):
    """The checkpoint's MAC key is the party's identity, which an
    ``add`` does not change (it grows the channel keyring): a member
    killed after entering the new epoch restarts from its checkpoint."""
    scenario = parameterize_scenario("total-restart", n=4, t=1, seed=7)

    async def run():
        cluster = await SimCluster.boot(scenario, tmp_path)
        for i in range(2):
            await _order(cluster, ("set", f"k{i}", i))
        _, add = await cluster.reconfigure("add")
        assert await _order(cluster, add) == ("reconfig", "accepted", 1)
        await cluster.entered({1: 5})
        await cluster.kill(0)
        said = await cluster.restart(0)
        await cluster.close()
        return said

    assert asyncio.run(run()) == {"checkpoint": "loaded"}


def test_a_joiner_killed_before_the_add_restarts_from_its_seed(tmp_path):
    """Joiner 4 boots from the seed the operator's ``add`` put in its own
    directory.  Killed before the add is ordered, it restarts as any
    member does — no checkpoint yet — and joins from that seed again:
    every member, it included, enters epoch 1, and it holds the writes
    ordered before and after the add."""
    scenario = parameterize_scenario("total-restart", n=4, t=1, seed=7)

    async def run():
        cluster = await SimCluster.boot(scenario, tmp_path)
        await _order(cluster, ("set", "k0", 0))
        _, add = await cluster.reconfigure("add")
        await cluster.kill(4)
        said = await cluster.restart(4)
        assert await _order(cluster, add) == ("reconfig", "accepted", 1)
        entries = await cluster.entered({1: 5})
        assert await _order(cluster, ("set", "after", 1)) == ("ok", 2)
        await cluster.settle()
        joiner = cluster.replicas[4].host
        await cluster.close()
        return said, entries, joiner

    said, entries, joiner = asyncio.run(run())
    assert said == {"checkpoint": "absent"}
    assert sorted(entries) == [0, 1, 2, 3, 4]
    for party, said_entries in entries.items():
        assert [fields["epoch"] for fields in said_entries] == ["1"], party
    assert joiner.epoch == 1 and joiner.public.n == 5
    assert joiner.replica.state_machine.data == {"k0": 0, "after": 1}


def test_an_operator_signs_with_a_joiners_identity_key(tmp_path):
    """``identity_key`` reads a joiner's seed in ``host-<i>/``: the key
    an operator signs a ``reconfig --signer`` with once it is a member."""
    deal_deployment(tmp_path, 4, 1, random.Random(3))
    bundle = provision_joiner(tmp_path, 4, random.Random(4))
    assert identity_key(tmp_path, 4) == bundle.signing_key


def _outside_the_hosts(directory: pathlib.Path) -> dict[str, str]:
    """sha256 of every file outside ``host-*/`` and ``journal/``."""
    return {
        str(path.relative_to(directory)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.rglob("*"))
        if path.is_file()
        and not path.relative_to(directory).parts[0].startswith(("host-", "journal"))
    }


def test_no_host_writes_the_deployment_directory_after_boot(tmp_path):
    """A seeded cell refreshes, adds, removes and kills and restarts a
    member.  The only writer outside the hosts' own directories is the
    operator's ``add``, which records the joiner's address in
    ``cluster.json`` and its channel key in the client's bundle: every
    other byte — public bundle, party bundles — is as dealt."""
    scenario = Scenario(
        name="own-files",
        seed=5,
        ops=8,
        reconfigs=((3.0, "refresh"), (5.0, "add"), (7.5, "remove")),
        events=(
            LifecycleEvent(at=6.0, action="kill", party=1),
            LifecycleEvent(at=6.8, action="restart", party=1),
        ),
    )
    client_file = f"client-{CLIENT_BASE}.json"

    async def run():
        cluster = await SimCluster.boot(scenario, tmp_path)
        booted = _outside_the_hosts(tmp_path)
        texts = {name: (tmp_path / name).read_text() for name in ("cluster.json", client_file)}
        report = await run_timeline(scenario, cluster)
        return report, booted, texts

    report, booted, texts = asyncio.run(run())
    assert report["ok"], (report["safety"], report["liveness"], report["reconfig"])
    accepted = [e["result"][:2] for e in report["events"] if e["kind"] == "reconfig"]
    assert accepted == [["reconfig", "accepted"]] * 3
    after = _outside_the_hosts(tmp_path)
    moved = sorted(
        name for name in booted.keys() | after.keys() if booted.get(name) != after.get(name)
    )
    assert moved == sorted(["cluster.json", client_file])
    dealt = json.loads(texts["cluster.json"])["addresses"]
    addresses = json.loads((tmp_path / "cluster.json").read_text())["addresses"]
    assert sorted(addresses.keys() - dealt.keys()) == ["4"]
    assert {party: addresses[party] for party in dealt} == dealt
    _, dealt_keys = keystore.client_from_dict(json.loads(texts[client_file]))
    _, keys = keystore.load_client(tmp_path / client_file)
    assert {peer: keys[peer] for peer in dealt_keys} == dealt_keys
    assert sorted(keys.keys() - dealt_keys.keys()) == [4]


class _Killed(Exception):
    pass


@pytest.mark.parametrize("instant", ["before", "after"])
def test_a_host_killed_entering_an_epoch_restarts_into_one_epoch(
    tmp_path, monkeypatch, instant
):
    """Party 3 finishes a refresh's resharing after its peers entered
    epoch 1, and is killed inside its own entry, ``before`` or ``after``
    the durable write.  Restarted with recovery it stands in one epoch —
    the one it persisted, with that epoch's public bundle — its coin
    shares verify there, and it says the entry kind it persisted (none
    at epoch 0): never the peers' epoch over its own older shares."""
    scenario = parameterize_scenario("kill-at-entry", n=4, t=1, seed=7)

    async def run():
        cluster = await SimCluster.boot(scenario, tmp_path)
        await _order(cluster, ("set", "a", 1))
        victim = cluster.replicas[3].host
        held = []
        victim._complete_reshare = lambda protocol, output: held.append((protocol, output))
        _, refresh = await cluster.reconfigure("refresh")
        assert await _order(cluster, refresh) == ("reconfig", "accepted", 1)
        for party in range(3):
            await cluster.replicas[party].wait_for("replica-epoch", epoch=1)
        await cluster.settle()
        assert held and victim.epoch == 0
        publics = {
            0: keystore.public_to_dict(keystore.load_public(tmp_path / "public.json")),
            1: keystore.public_to_dict(cluster.replicas[0].host.public),
        }
        real = keystore.atomic_write_text

        def killed(path, text):
            if instant == "after":
                real(path, text)
            raise _Killed(path)

        monkeypatch.setattr(keystore, "atomic_write_text", killed)
        with pytest.raises(_Killed):
            ReplicaHost._complete_reshare(victim, *held[0])
        monkeypatch.setattr(keystore, "atomic_write_text", real)
        await cluster.kill(3)
        await cluster.restart(3)
        host = cluster.replicas[3].host
        await cluster.close()
        return host, publics

    host, publics = asyncio.run(run())
    entered = instant == "after"
    assert host.epoch == int(entered)
    assert keystore.public_to_dict(host.public) == publics[host.epoch]
    assert host.runtime.public is host.public and host.runtime.keys is host.keys
    share = host.keys.coin.share_for(("probe", host.epoch), random.Random(1))
    assert host.public.coin.verify_share(share)
    said = [(kind, fields["epoch"]) for kind, fields in host.events if kind in _ENTRY_KINDS]
    assert said == ([("replica-epoch", "1")] if entered else [])
