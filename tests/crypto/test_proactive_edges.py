"""Proactive refresh under partial participation and non-threshold
structures — the edge cases a live reconfiguring cluster actually hits.
Like ``test_proactive.py``, on the resharing path that ships."""

import random

import pytest

from repro.adversary.attributes import example2_access_formula, example2_structure
from repro.core.protocol import Context
from repro.crypto.dkg import (
    FeldmanTree,
    deal_verifiable,
    slot_commitment,
    tree_commitments,
    tree_consistent,
)
from repro.crypto.lsss import LsssScheme

from ..helpers import run_until_outputs
from .test_dkg import GROUP, _spawn_reshare, refreshed
from .test_proactive import _opens_key


def _refresh_without_3(seed):
    """A refresh of the n=4 sharing that party 3 sits out: the others
    flush it from the dealer set and finish.  Returns what a test needs
    to bring party 3 back."""
    scheme, quorum, old, _ = refreshed()
    network, runtimes, session, make = _spawn_reshare(
        scheme, old, quorum, scheme, quorum, range(4), seed, [0, 1, 2, 3],
        spawn_on=(0, 1, 2),
    )
    network.run()  # quiesce: everyone waits on dealer 3
    for party in (0, 1, 2):
        runtimes[party].instances[session].flush(Context(runtimes[party], session))
    new = run_until_outputs(network, runtimes, session, parties=(0, 1, 2))
    return scheme, old, new, network, runtimes, session, make


def test_refresh_survives_crashed_dealer():
    """A party that crashes before dealing simply drops out of the
    dealer set; the others' contributions still refresh."""
    scheme, old, new, *_ = _refresh_without_3(seed=51)
    assert new[0].qualified == (0, 1, 2)
    assert new[0].encryption_h == old[0].encryption_h
    assert _opens_key(scheme, new, (0, 2))
    assert new[0].enc_subshares != old[0].enc_subshares


def test_crashed_receiver_catches_up_from_stored_updates():
    """A party that was down for the whole round holds a stale share: it
    no longer interpolates with the new epoch.  On restart it needs no
    extra protocol round — the commits are verifiable, hence storable:
    from the transcript buffered for it (and without waiting for its own
    dealing, which the round already closed without) it computes the
    subshares it would have computed live."""
    scheme, old, new, network, runtimes, session, make = _refresh_without_3(seed=52)
    assert not _opens_key(scheme, new, (1, 3), stale={3: old[3]})
    runtimes[3].spawn(session, make(3)).flush(Context(runtimes[3], session))
    new.update(run_until_outputs(network, runtimes, session, parties=(3,)))
    assert new[3].digest == new[0].digest
    assert _opens_key(scheme, new, (1, 3))


def test_zero_sharing_missing_point_rejected():
    scheme, _, _, _ = refreshed(example1=True)
    sharing, tree = deal_verifiable(GROUP, scheme, 5, random.Random(33))
    # A point outside the dealt set (e.g. a joiner probing an old
    # epoch's resharing) has no subshare, and a slot under a gate the
    # tree does not commit to has no verification value to check one
    # against.
    assert sharing.share_of(9) == {}
    nested = max(sharing.all_slots(), key=len)
    assert len(nested) > 1
    pruned = {(): tree_commitments(tree)[()]}
    with pytest.raises(KeyError):
        slot_commitment(GROUP, pruned, nested)
    assert not tree_consistent(GROUP, scheme, FeldmanTree(nodes=()))


def test_refresh_lsss_example2_structure():
    """What every dealer of a refresh does, along the paper's Example 2
    formula (two-attribute grid, 16 parties): reshare one subshare
    under a tree pinned to its verification value.  Every qualified set
    recovers exactly that subshare, no corruptible coalition gains
    anything, and a second resharing of it looks unrelated."""
    rng = random.Random(34)
    scheme = LsssScheme(formula=example2_access_formula(), modulus=GROUP.q)
    sharing, tree = deal_verifiable(GROUP, scheme, 2001, rng)
    assert tree_consistent(GROUP, scheme, tree, root=GROUP.power_of_g(2001))
    commitments = tree_commitments(tree)
    for slot, value in sharing.all_slots().items():
        assert GROUP.power_of_g(value) == slot_commitment(GROUP, commitments, slot)
    structure = example2_structure()
    worst = max(structure.maximal_sets, key=len)
    assert scheme.reconstruct(sharing, set(range(16)) - worst) == 2001
    for bad in structure.maximal_sets[:4]:
        assert scheme.recombination(set(bad)) is None
    again, _ = deal_verifiable(GROUP, scheme, 2001, rng)
    before, after = sharing.all_slots(), again.all_slots()
    assert any(after[slot] != value for slot, value in before.items())


def test_refresh_lsss_nested_formula_slots_stable():
    """The refresh must preserve the slot *structure* (same leaves, same
    parties) for Example 1's nested formula — only values change."""
    scheme, _, old, new = refreshed(example1=True)
    assert set(old) == set(new)
    for party in new:
        assert set(new[party].enc_subshares) == set(old[party].enc_subshares)
        assert set(new[party].coin_subshares) == set(old[party].coin_subshares)
    assert set(new[0].coin_verification) == set(old[0].coin_verification)
    assert _opens_key(scheme, new, {0, 4, 6})


def test_refreshed_key_keeps_public_key():
    """The epoch's defining property: shares change, the public keys
    (what clients pin) do not — while the per-slot verification values,
    which only the servers use, are re-randomized."""
    _, _, old, new = refreshed()
    assert new[0].encryption_h == old[0].encryption_h
    assert new[0].verify_keys == old[0].verify_keys
    assert all(
        new[0].enc_verification[slot] != value
        for slot, value in old[0].enc_verification.items()
    )
