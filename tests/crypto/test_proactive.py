"""Proactive share refresh (Section 6 extension), on the path that
ships: an ordered ``refresh`` is a verifiable resharing onto the same
membership (``crypto/dkg.py``), so every case here runs against that."""

import random
from itertools import combinations

from repro.crypto.dkg import (
    ReshareCommit,
    VerifiableResharing,
    deal_verifiable,
    slot_commitment,
    tree_commitments,
    tree_consistent,
)
from repro.crypto.lsss import LsssSharing

from .test_dkg import GROUP, refreshed


def _opens_key(scheme, outputs, parties, stale=None) -> bool:
    """Do the parties' encryption-key subshares (``stale``: party ->
    output of an older epoch to use in its place) interpolate the key?"""
    held = {**outputs, **(stale or {})}
    subshares = {p: dict(held[p].enc_subshares) for p in parties}
    secret = scheme.reconstruct(LsssSharing(shares=subshares), set(parties))
    return GROUP.power_of_g(secret) == outputs[min(outputs)].encryption_h


def test_zero_sharing_verifies():
    """Every refreshed subshare opens its public verification value."""
    _, _, _, new = refreshed()
    for out in new.values():
        for slot, value in out.coin_subshares.items():
            assert GROUP.power_of_g(value) == out.coin_verification[slot]
        for slot, value in out.enc_subshares.items():
            assert GROUP.power_of_g(value) == out.enc_verification[slot]


def test_zero_sharing_with_nonzero_constant_rejected():
    """The refresh must add nothing to the secret: a dealer's resharing
    tree is pinned to its old verification value, so it provably deals
    the old subshare and nothing else."""
    scheme, _, old, _ = refreshed()
    slot, value = sorted(old[0].coin_subshares.items())[0]
    root = old[0].coin_verification[slot]
    _, honest = deal_verifiable(GROUP, scheme, value, random.Random(2))
    _, shifted = deal_verifiable(GROUP, scheme, value + 1, random.Random(2))
    assert tree_consistent(GROUP, scheme, honest, root=root)
    assert not tree_consistent(GROUP, scheme, shifted, root=root)


def test_tampered_subshare_rejected():
    scheme, _, _, _ = refreshed()
    sharing, tree = deal_verifiable(GROUP, scheme, 77, random.Random(3))
    commitments = tree_commitments(tree)
    slot, value = sorted(sharing.all_slots().items())[1]
    assert GROUP.power_of_g(value) == slot_commitment(GROUP, commitments, slot)
    assert GROUP.power_of_g(value + 1) != slot_commitment(GROUP, commitments, slot)


def test_refresh_preserves_secret_and_rerandomizes():
    _, _, old, new = refreshed()
    # Secret unchanged...
    assert {out.encryption_h for out in new.values()} == {old[0].encryption_h}
    # ...but every share differs (old epoch's exposures are useless).
    for party, out in new.items():
        for slot, value in out.coin_subshares.items():
            assert value != old[party].coin_subshares[slot]
        for slot, value in out.enc_subshares.items():
            assert value != old[party].enc_subshares[slot]


def test_mixing_epochs_breaks_reconstruction():
    """Shares from different epochs must not interpolate to the secret —
    the property that invalidates a mobile adversary's stale captures."""
    scheme, _, old, new = refreshed()
    assert _opens_key(scheme, new, (0, 2))
    assert not _opens_key(scheme, new, (0, 2), stale={0: old[0]})


def test_apply_refresh_rejects_invalid_update():
    """Receivers accept a dealer's commit only if every tree in it is
    rooted at that dealer's old verification value."""
    scheme, quorum, old, _ = refreshed()
    protocol = VerifiableResharing(
        GROUP, scheme, scheme, old[0].coin_verification, old[0].enc_verification,
        tuple(range(4)), quorum, {},
    )

    def commit_of_party_0(shift):
        rng = random.Random(6)
        entries = []
        for subshares in (old[0].coin_subshares, old[0].enc_subshares):
            dealt = {
                slot: deal_verifiable(GROUP, scheme, value + shift, rng)
                for slot, value in sorted(subshares.items())
            }
            entries.append(tuple(
                (slot, tree, tuple(sorted(sharing.all_slots().items())))
                for slot, (sharing, tree) in dealt.items()
            ))
        return ReshareCommit(coin=entries[0], enc=entries[1])

    assert protocol._commit_acceptable(commit_of_party_0(0))
    assert not protocol._commit_acceptable(commit_of_party_0(1))


def test_lsss_refresh_threshold_case():
    scheme, _, _, new = refreshed()
    assert all(_opens_key(scheme, new, pair) for pair in combinations(range(4), 2))


def test_lsss_refresh_generalized_case():
    """Refresh along the paper's Example 1 formula (9 parties)."""
    scheme, _, old, new = refreshed(example1=True)
    assert new[0].encryption_h == old[0].encryption_h
    assert _opens_key(scheme, new, {0, 4, 6})
    assert _opens_key(scheme, new, {5, 7, 8})
    assert new[4].enc_subshares != old[4].enc_subshares
