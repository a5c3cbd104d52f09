"""Dealerless key generation and verifiable resharing.

The headline properties: a cluster that never had a dealer ends up with
key material indistinguishable (API-wise) from a dealt one; bad dealers
are expelled rather than aborting the run; and resharing to a new
membership preserves the public keys while making every old share
useless.
"""

import functools
import random
from dataclasses import replace

import pytest

from repro.adversary.attributes import example1_access_formula, example1_structure
from repro.adversary.quorums import quorum_system_for
from repro.core.protocol import Context
from repro.core.reliable_broadcast import rbc_session
from repro.core.runtime import ProtocolRuntime
from repro.crypto.coin import CoinShareholder
from repro.crypto.dkg import (
    BootstrapPublic,
    DkgDefense,
    FeldmanTree,
    VerifiableResharing,
    build_party_keys,
    build_public_keys,
    deal_verifiable,
    dkg_session,
    key_generation,
    provision_bootstrap,
    reshare_session,
    secret_commitment,
    slot_commitment,
    tree_commitments,
    tree_consistent,
)
from repro.crypto.groups import small_group
from repro.crypto.keystore import (
    party_from_dict,
    party_to_dict,
    public_from_dict,
    public_to_dict,
)
from repro.crypto.lsss import LsssScheme, threshold_scheme
from repro.crypto.threshold_sig import QuorumCertShareholder
from repro.net.scheduler import FifoScheduler, RandomScheduler
from repro.net.simulator import Network

from ..helpers import run_until_outputs

GROUP = small_group()

# One PKI for the whole module (and for the proactive-refresh tests and
# benchmark E14, which reuse these drivers at up to n=16): smaller
# memberships simply use the first bundles, so signing keys stay stable
# across epochs.
BUNDLES = provision_bootstrap(list(range(16)), random.Random(0xB007), GROUP)


def _network(parties, quorum, seed):
    network = Network(RandomScheduler(), random.Random(seed))
    public = BootstrapPublic(n=len(parties), quorum=quorum)
    runtimes = {}
    for party in parties:
        runtime = ProtocolRuntime(party, network, public, BUNDLES[party], seed=seed)
        network.attach(party, runtime)
        runtimes[party] = runtime
    return network, runtimes


def _pki(parties):
    """The verify keys every party of a boot is provisioned with."""
    return {p: BUNDLES[p].signing_key.verify_key.h for p in parties}


def _run_dkg(n=4, t=1, seed=7, wrap=None, spawn_on=None, scheme=None, quorum=None):
    """Spawn a key generation at every party of ``spawn_on`` (default:
    all); ``wrap(party, protocol)`` may replace a party's methods to make
    it misbehave."""
    scheme = scheme or threshold_scheme(n, t, GROUP.q)
    quorum = quorum or quorum_system_for(n, t=t)
    network, runtimes = _network(list(range(n)), quorum, seed)
    session = dkg_session("test")
    for party in spawn_on if spawn_on is not None else range(n):
        protocol = key_generation(
            GROUP, scheme, quorum, _pki(range(n)), party, runtimes[party].rng
        )
        if wrap is not None:
            wrap(party, protocol)
        runtimes[party].spawn(session, protocol)
    return scheme, quorum, network, runtimes, session


@pytest.fixture(scope="module")
def dkg_4():
    """A completed 4-party DKG plus assembled dealer-compatible keys."""
    scheme, quorum, network, runtimes, session = _run_dkg()
    outputs = run_until_outputs(network, runtimes, session)
    public = build_public_keys(GROUP, scheme, quorum, 4, outputs[0])
    party_keys = {
        p: build_party_keys(p, public, BUNDLES[p].signing_key, outputs[p])
        for p in range(4)
    }
    return scheme, quorum, outputs, public, party_keys


# ===========================================================================
# Feldman tree primitives
# ===========================================================================


def test_deal_verifiable_matches_plain_deal():
    scheme = threshold_scheme(4, 1, GROUP.q)
    secret = 1234567
    sharing, _ = deal_verifiable(GROUP, scheme, secret, random.Random(3))
    plain = scheme.deal(secret, random.Random(3))
    assert sharing.shares == plain.shares


@pytest.mark.parametrize(
    "scheme",
    [
        threshold_scheme(4, 1, GROUP.q),
        LsssScheme(formula=example1_access_formula(), modulus=GROUP.q),
    ],
    ids=["threshold", "example1"],
)
def test_every_subshare_verifies_against_tree(scheme):
    rng = random.Random(5)
    secret = rng.randrange(GROUP.q)
    sharing, tree = deal_verifiable(GROUP, scheme, secret, rng)
    assert tree_consistent(GROUP, scheme, tree)
    assert tree_consistent(GROUP, scheme, tree, root=GROUP.power_of_g(secret))
    assert secret_commitment(tree) == GROUP.power_of_g(secret)
    commitments = tree_commitments(tree)
    for slot, value in sharing.all_slots().items():
        assert GROUP.power_of_g(value) == slot_commitment(GROUP, commitments, slot)


def test_tree_consistent_rejects_tampering():
    scheme = threshold_scheme(4, 1, GROUP.q)
    rng = random.Random(6)
    _, tree = deal_verifiable(GROUP, scheme, 99, rng)
    # wrong root pin
    assert not tree_consistent(GROUP, scheme, tree, root=GROUP.power_of_g(98))
    # a tampered coefficient on a single-gate tree stays internally
    # consistent (it commits to a different polynomial) — it is caught
    # by the root pin or by subshare verification, not by chaining
    path, commitments = tree.nodes[0]
    bad = (GROUP.mul(commitments[0], GROUP.g), *commitments[1:])
    tampered = FeldmanTree(nodes=((path, bad),))
    assert tree_consistent(GROUP, scheme, tampered)
    assert not tree_consistent(
        GROUP, scheme, tampered, root=GROUP.power_of_g(99)
    )
    sharing, _ = deal_verifiable(GROUP, scheme, 99, random.Random(6))
    slot, value = sorted(sharing.all_slots().items())[0]
    assert GROUP.power_of_g(value) != slot_commitment(
        GROUP, tree_commitments(tampered), slot
    )
    # missing / duplicated gates and junk values
    assert not tree_consistent(GROUP, scheme, FeldmanTree(nodes=()))
    assert not tree_consistent(GROUP, scheme, FeldmanTree(nodes=tree.nodes * 2))
    assert not tree_consistent(GROUP, scheme, "not a tree")
    # wrong polynomial degree for the gate
    short = ((path, commitments[:1]),)
    assert not tree_consistent(GROUP, scheme, FeldmanTree(nodes=short))
    # nested formula: break the parent-child chaining
    nested = LsssScheme(formula=example1_access_formula(), modulus=GROUP.q)
    _, ntree = deal_verifiable(GROUP, nested, 7, random.Random(7))
    assert tree_consistent(GROUP, nested, ntree)
    nodes = dict(ntree.nodes)
    child = next(p for p in nodes if p != ())
    nodes[child] = (GROUP.mul(nodes[child][0], GROUP.g), *nodes[child][1:])
    broken = FeldmanTree(nodes=tuple(sorted(nodes.items())))
    assert not tree_consistent(GROUP, nested, broken)


# ===========================================================================
# DKG happy path: dealer-equivalent key material
# ===========================================================================


def test_dkg_outputs_agree(dkg_4):
    _, quorum, outputs, public, _ = dkg_4
    digests = {out.digest for out in outputs.values()}
    assert len(digests) == 1
    for out in outputs.values():
        assert out.qualified == (0, 1, 2, 3)
        assert quorum.is_quorum(frozenset(p for p, _ in out.certificate))
        assert out.encryption_h == outputs[0].encryption_h
        assert out.coin_verification == outputs[0].coin_verification
    for party in range(4):
        assert (
            public.verify_keys[party].h == BUNDLES[party].signing_key.verify_key.h
        )


def test_dkg_coin_is_drop_in(dkg_4):
    _, _, _, public, party_keys = dkg_4
    rng = random.Random(11)
    values = set()
    for subset in ([0, 1], [2, 3], [1, 3]):
        shares = {
            p: party_keys[p].coin.share_for("dkg-coin", rng) for p in subset
        }
        for share in shares.values():
            assert public.coin.verify_share(share)
        values.add(public.coin.combine("dkg-coin", shares))
    assert len(values) == 1


def test_dkg_encryption_is_drop_in(dkg_4):
    _, _, _, public, party_keys = dkg_4
    rng = random.Random(12)
    ct = public.encryption.encrypt(b"no dealer was harmed", b"L", rng)
    shares = {
        p: party_keys[p].decryption.decryption_share(ct, rng) for p in (0, 3)
    }
    assert public.encryption.combine(ct, shares) == b"no dealer was harmed"


def test_dkg_service_certificates_work(dkg_4):
    _, _, _, public, party_keys = dkg_4
    rng = random.Random(13)
    statement = ("service-reply", b"digest", ("ok", 1))
    shares = {
        p: party_keys[p].service_signer.sign_share(statement, rng) for p in (1, 2)
    }
    certificate = public.service_signature.combine(statement, shares)
    assert public.service_signature.verify(statement, certificate)
    assert not public.service_signature.verify(("other",), certificate)


def test_dkg_keys_roundtrip_through_keystore(dkg_4):
    _, _, _, public, party_keys = dkg_4
    reloaded = public_from_dict(public_to_dict(public))
    assert reloaded.encryption.h == public.encryption.h
    assert reloaded.coin.verification == public.coin.verification
    rng = random.Random(14)
    share = party_keys[2].coin.share_for("persisted", rng)
    assert reloaded.coin.verify_share(share)
    party = party_from_dict(party_to_dict(party_keys[2]), reloaded)
    assert reloaded.coin.verify_share(party.coin.share_for("again", rng))


def test_every_way_to_a_bundle_counts_to_the_same_sets(dkg_4):
    """Dealt, DKG-built, and either reloaded from the keystore: one
    assembler, so the same certificate tags and the same verdict on the
    same signer sets (n = 4, t = 1: a quorum is 3, honest-containing 2)."""
    from repro.crypto.dealer import deal_system

    _, _, _, dkg_public, dkg_keys = dkg_4
    dealt = deal_system(4, random.Random(40), t=1, group=GROUP)

    def reloaded(public, keys):
        again = public_from_dict(public_to_dict(public))
        return again, {
            p: party_from_dict(party_to_dict(keys[p]), again) for p in keys
        }

    bundles = [
        (dealt.public, dealt.private),
        (dkg_public, dkg_keys),
        reloaded(dealt.public, dealt.private),
        reloaded(dkg_public, dkg_keys),
    ]
    schemes = ("cert_quorum", "service_signature")
    signers = ("cert_quorum", "service_signer")
    verdicts = []
    for public, keys in bundles:
        rng, row = random.Random(41), {}
        for scheme_name, signer_name in zip(schemes, signers):
            scheme = getattr(public, scheme_name)
            for signer_set in ((0,), (1, 2), (0, 1, 3), (0, 1, 2, 3)):
                shares = {
                    p: getattr(keys[p], signer_name).sign_share("stmt", rng)
                    for p in signer_set
                }
                assert scheme.verify_shares("stmt", shares) == shares
                try:
                    certificate = scheme.combine("stmt", shares)
                except ValueError:
                    row[scheme.tag, signer_set] = False
                else:
                    row[scheme.tag, signer_set] = scheme.verify("stmt", certificate)
        verdicts.append(row)
    assert all(row == verdicts[0] for row in verdicts)
    by_tag = {tag: [s for (t, s), ok in verdicts[0].items() if t == tag and ok]
              for tag, _ in verdicts[0]}
    assert by_tag == {
        "cert-quorum": [(0, 1, 3), (0, 1, 2, 3)],
        "service-signature": [(1, 2), (0, 1, 3), (0, 1, 2, 3)],
    }


# ===========================================================================
# Complaints, defenses, expulsion, crash-tolerance
# ===========================================================================


def _garble(party, protocol, victim=1):
    """Dealer 0's commit carries a corrupted coin subshare for
    ``victim``; everyone else is honest."""
    if party != 0:
        return
    make_commit = protocol._make_commit

    def garbled(ctx):
        commit = make_commit(ctx)
        slot = next(s for s, owner in protocol.new_scheme.slots() if owner == victim)
        ((old_slot, tree, table),) = commit.coin
        masked = tuple((s, v if s != slot else (v + 1) % GROUP.q) for s, v in table)
        return replace(commit, coin=((old_slot, tree, masked),))

    protocol._make_commit = garbled


def _garble_and_lie(party, protocol):
    """Dealer 0 garbles a subshare, then defends it with wrong values."""
    _garble(party, protocol)
    if party != 0:
        return
    defense_payload = protocol._defense_payload

    def lying(ctx, accuser):
        honest = defense_payload(ctx, accuser)
        return replace(
            honest,
            coin_values=tuple(
                (old_slot, tuple((s, (v + 1) % GROUP.q) for s, v in values))
                for old_slot, values in honest.coin_values
            ),
        )

    protocol._defense_payload = lying


def test_complaint_resolved_by_valid_defense():
    """A garbled subshare triggers a complaint; the (honest) dealer's
    public defense re-supplies the victim and nobody is expelled."""
    scheme, quorum, network, runtimes, session = _run_dkg(seed=21, wrap=_garble)
    outputs = run_until_outputs(network, runtimes, session)
    assert {out.digest for out in outputs.values()} == {outputs[0].digest}
    assert outputs[0].qualified == (0, 1, 2, 3)
    public = build_public_keys(GROUP, scheme, quorum, 4, outputs[0])
    party_keys = {
        p: build_party_keys(p, public, BUNDLES[p].signing_key, outputs[p])
        for p in range(4)
    }
    rng = random.Random(22)
    # The victim's repaired share is as good as anyone's.
    a = public.coin.combine(
        "after-defense",
        {p: party_keys[p].coin.share_for("after-defense", rng) for p in (0, 1)},
    )
    b = public.coin.combine(
        "after-defense",
        {p: party_keys[p].coin.share_for("after-defense", rng) for p in (2, 3)},
    )
    assert a == b


def test_invalid_defense_expels_dealer():
    """A dealer whose defense also fails verification is expelled; the
    run completes with the remaining contributors (graceful
    degradation, not abort)."""
    scheme, quorum, network, runtimes, session = _run_dkg(
        seed=23, wrap=_garble_and_lie
    )
    outputs = run_until_outputs(network, runtimes, session)
    assert {out.digest for out in outputs.values()} == {outputs[0].digest}
    assert outputs[0].qualified == (1, 2, 3)
    public = build_public_keys(GROUP, scheme, quorum, 4, outputs[0])
    # Expelled from the threshold secrets, not from the PKI: verify keys
    # come from the provisioned identities, so dealer 0 still signs
    # certificates (the quorum rules tolerate it if it is corrupted).
    assert public.verify_keys[0].h == BUNDLES[0].signing_key.verify_key.h
    party_keys = {
        p: build_party_keys(p, public, BUNDLES[p].signing_key, outputs[p])
        for p in (1, 2, 3)
    }
    rng = random.Random(24)
    a = public.coin.combine(
        "expelled",
        {p: party_keys[p].coin.share_for("expelled", rng) for p in (1, 2)},
    )
    b = public.coin.combine(
        "expelled",
        {p: party_keys[p].coin.share_for("expelled", rng) for p in (2, 3)},
    )
    assert a == b


def test_defense_that_overtakes_its_commit_clears_the_complaint():
    """Party 2 meets the honest dealer's defense before the dealer's
    commit: it holds the defense, and the commit's arrival clears the
    victim's complaint instead of stalling or expelling the dealer."""
    scheme, quorum, network, runtimes, session = _run_dkg(seed=21, wrap=_garble)
    dealer_rbc = rbc_session(0, session)

    class CommitAfterDefense(FifoScheduler):
        """FIFO, except dealer 0's commit traffic to party 2 waits until
        party 2 has received a defense."""

        released = False

        def select(self, pending, rng):
            for index, env in enumerate(pending):
                if env.recipient == 2 and isinstance(env.payload[1], DkgDefense):
                    self.released = True
                if self.released or env.recipient != 2 or env.payload[0] != dealer_rbc:
                    return index
            return None

    network.scheduler = scheduler = CommitAfterDefense()
    outputs = run_until_outputs(network, runtimes, session)
    assert scheduler.released, "the defense never overtook the commit"
    instance = runtimes[2].instances[session]
    assert instance.pending.get(0, set()) == set()
    assert {out.digest for out in outputs.values()} == {outputs[0].digest}
    assert outputs[0].qualified == (0, 1, 2, 3)


def test_defense_flood_from_uncommitted_dealer_is_bounded():
    """A dealer whose commit has not arrived cannot grow an honest
    party's memory with defenses: at most one is held per accuser, and
    none for an accuser that is not a receiver."""
    _, _, network, runtimes, session = _run_dkg(seed=25, spawn_on=(0, 1, 2))
    network.run()  # quiesce: dealer 3 never commits
    for i in range(20_000):
        runtimes[0].on_message(
            3, (session, DkgDefense(accuser=i, coin_values=(), enc_values=()))
        )
    held = runtimes[0].instances[session]._buffered_defenses
    assert sum(len(defenses) for defenses in held.values()) <= 4


def _flushed_boot():
    """A key generation dealer 3 never joins, settled by a flush at the
    other three: ``(scheme, quorum, outputs)``."""
    scheme, quorum, network, runtimes, session = _run_dkg(
        seed=25, spawn_on=(0, 1, 2)
    )
    network.run()  # quiesce: everyone still waits on dealer 3
    assert all(runtimes[p].result(session) is None for p in (0, 1, 2))
    for party in (0, 1, 2):
        runtimes[party].instances[session].flush(
            Context(runtimes[party], session)
        )
    outputs = run_until_outputs(network, runtimes, session, parties=(0, 1, 2))
    return scheme, quorum, outputs


def test_flush_drops_crashed_dealer():
    """A dealer that never shows up stalls settlement only until the
    hosts flush; then the session completes without it."""
    _, _, outputs = _flushed_boot()
    assert outputs[0].qualified == (0, 1, 2)
    assert {out.digest for out in outputs.values()} == {outputs[0].digest}


def test_flushed_dealer_keeps_signing_certificates():
    """A slow party flushed out of the boot contributed no secret, yet
    keeps its PKI identity: a certificate from {0, 2, 3} still reaches a
    quorum, so one later crash among {0, 1, 2} does not silence the
    cluster's certificates."""
    scheme, quorum, outputs = _flushed_boot()
    public = build_public_keys(GROUP, scheme, quorum, 4, outputs[0])
    assert sorted(public.verify_keys) == [0, 1, 2, 3]
    signers = {
        p: build_party_keys(p, public, BUNDLES[p].signing_key, outputs[p]).cert_quorum
        for p in (0, 2)
    }
    signers[3] = QuorumCertShareholder(
        party=3, public=public.cert_quorum, key=BUNDLES[3].signing_key
    )
    rng = random.Random(26)
    shares = {p: signer.sign_share("after-flush", rng) for p, signer in signers.items()}
    assert public.cert_quorum.verify_shares("after-flush", shares) == shares
    certificate = public.cert_quorum.combine("after-flush", shares)
    assert public.cert_quorum.verify("after-flush", certificate)


# ===========================================================================
# Verifiable resharing: membership change, key preservation
# ===========================================================================


def _spawn_reshare(
    old_scheme,
    old_outputs,
    old_quorum,
    new_scheme,
    new_quorum,
    new_members,
    seed,
    all_parties,
    spawn_on=None,
):
    """Spawn a resharing of ``old_outputs`` onto ``new_members`` at every
    party of ``spawn_on`` (default: all).  Returns the network, the
    runtimes, the session and the per-party protocol factory, so a test
    can flush, or spawn a latecomer, before running to the outputs."""
    new_verify_keys = _pki(new_members)
    network, runtimes = _network(all_parties, old_quorum, seed)
    session = reshare_session(1, "test")
    reference = old_outputs[min(old_outputs)]

    def make(party):
        old_out = old_outputs.get(party)
        return VerifiableResharing(
            GROUP,
            old_scheme,
            new_scheme,
            reference.coin_verification,
            reference.enc_verification,
            new_members=tuple(new_members),
            new_quorum=new_quorum,
            new_verify_keys=new_verify_keys,
            old_coin_subshares=old_out.coin_subshares if old_out else None,
            old_enc_subshares=old_out.enc_subshares if old_out else None,
        )

    for party in spawn_on if spawn_on is not None else all_parties:
        runtimes[party].spawn(session, make(party))
    return network, runtimes, session, make


def _run_reshare(
    old_scheme,
    old_outputs,
    old_quorum,
    new_members,
    new_t,
    seed,
    all_parties,
):
    new_scheme = threshold_scheme(len(new_members), new_t, GROUP.q)
    new_quorum = quorum_system_for(len(new_members), t=new_t)
    network, runtimes, session, _ = _spawn_reshare(
        old_scheme, old_outputs, old_quorum, new_scheme, new_quorum,
        new_members, seed, all_parties,
    )
    outputs = run_until_outputs(network, runtimes, session, parties=new_members)
    return new_scheme, new_quorum, outputs


@functools.lru_cache(maxsize=None)
def refreshed(example1=False):
    """A dealerless sharing and its proactive refresh (Section 6): a
    resharing onto the *same* membership and formula, which is what an
    ordered ``refresh`` runs.  n=4/t=1, or the paper's Example 1
    structure on 9 parties.  Returns ``(scheme, quorum, old, new)``."""
    if example1:
        n = 9
        scheme = LsssScheme(formula=example1_access_formula(), modulus=GROUP.q)
        quorum = quorum_system_for(n, structure=example1_structure())
    else:
        n = 4
        scheme, quorum = threshold_scheme(n, 1, GROUP.q), quorum_system_for(n, t=1)
    _, _, network, runtimes, session = _run_dkg(
        n, seed=41, scheme=scheme, quorum=quorum
    )
    old = run_until_outputs(network, runtimes, session)
    network, runtimes, session, _ = _spawn_reshare(
        scheme, old, quorum, scheme, quorum, range(n), 42, list(range(n))
    )
    return scheme, quorum, old, run_until_outputs(network, runtimes, session)


@pytest.fixture(scope="module")
def reshared_4_to_5(dkg_4):
    old_scheme, old_quorum, old_outputs, old_public, old_party_keys = dkg_4
    new_scheme, new_quorum, outputs = _run_reshare(
        old_scheme,
        old_outputs,
        old_quorum,
        new_members=[0, 1, 2, 3, 4],
        new_t=1,
        seed=31,
        all_parties=[0, 1, 2, 3, 4],
    )
    public = build_public_keys(GROUP, new_scheme, new_quorum, 5, outputs[0])
    party_keys = {
        p: build_party_keys(p, public, BUNDLES[p].signing_key, outputs[p])
        for p in range(5)
    }
    return new_scheme, outputs, public, party_keys


def test_reshare_preserves_public_keys(dkg_4, reshared_4_to_5):
    _, _, old_outputs, old_public, old_party_keys = dkg_4
    _, outputs, public, party_keys = reshared_4_to_5
    assert {out.digest for out in outputs.values()} == {outputs[0].digest}
    assert public.encryption.h == old_public.encryption.h
    rng = random.Random(32)
    # Same coin secret: each epoch opens H(C)^{Δx} under its own Δ (4!
    # and 5!), so the coin *values* differ by design, and the opened
    # elements agree once each is raised to the other epoch's Δ.
    name = "cross-epoch"
    old_opened = old_public.coin._recombine(
        {p: old_party_keys[p].coin.share_for(name, rng) for p in (0, 1)}
    )
    new_opened = public.coin._recombine(
        {p: party_keys[p].coin.share_for(name, rng) for p in (3, 4)}
    )
    old_delta, new_delta = old_public.coin.scheme.delta, public.coin.scheme.delta
    assert (old_delta, new_delta) == (24, 120)
    assert pow(old_opened, new_delta, GROUP.p) == pow(new_opened, old_delta, GROUP.p)
    # A ciphertext from the old epoch decrypts in both epochs.
    ct = old_public.encryption.encrypt(b"across the epoch", b"L", rng)
    epochs = ((old_public, old_party_keys, (0, 3)), (public, party_keys, (2, 4)))
    for epoch, keys, parties in epochs:
        shares = {p: keys[p].decryption.decryption_share(ct, rng) for p in parties}
        assert epoch.encryption.combine(ct, shares) == b"across the epoch"


def test_reshare_randomizes_verification(dkg_4, reshared_4_to_5):
    _, _, old_outputs, _, _ = dkg_4
    _, outputs, _, _ = reshared_4_to_5
    old = old_outputs[0].coin_verification
    new = outputs[0].coin_verification
    # Shared slot paths exist in both formulas but their values are
    # freshly randomized — this is what retires old shares.
    common = set(old) & set(new)
    assert common
    assert all(old[slot] != new[slot] for slot in common)


def test_old_shares_useless_in_new_epoch(dkg_4, reshared_4_to_5):
    _, _, old_outputs, _, _ = dkg_4
    _, _, public, _ = reshared_4_to_5
    rng = random.Random(33)
    stale = CoinShareholder(
        party=1, public=public.coin, subshares=dict(old_outputs[1].coin_subshares)
    )
    assert not public.coin.verify_share(stale.share_for("stale", rng))


def test_reshare_back_to_4_expels_departed_member(dkg_4, reshared_4_to_5):
    _, _, _, old_public, _ = dkg_4
    mid_scheme, mid_outputs, mid_public, _ = reshared_4_to_5
    new_scheme, new_quorum, outputs = _run_reshare(
        mid_scheme,
        mid_outputs,
        mid_public.quorum,
        new_members=[0, 1, 2, 3],
        new_t=1,
        seed=34,
        all_parties=[0, 1, 2, 3, 4],
    )
    public = build_public_keys(GROUP, new_scheme, new_quorum, 4, outputs[0])
    party_keys = {
        p: build_party_keys(p, public, BUNDLES[p].signing_key, outputs[p])
        for p in range(4)
    }
    # Still the original dealerless key, two reconfigurations later.
    assert public.encryption.h == old_public.encryption.h
    rng = random.Random(35)
    ct = old_public.encryption.encrypt(b"still here", b"L", rng)
    shares = {
        p: party_keys[p].decryption.decryption_share(ct, rng) for p in (1, 3)
    }
    assert public.encryption.combine(ct, shares) == b"still here"
    # The departed member's epoch-1 shares fail against epoch-2 keys.
    stale = CoinShareholder(
        party=4, public=public.coin, subshares=dict(mid_outputs[4].coin_subshares)
    )
    share = stale.share_for("departed", rng)
    assert not public.coin.verify_share(share)


def test_reshare_tolerates_crashed_old_dealer(dkg_4):
    """One old shareholder crashes mid-resharing: the rest form a
    qualified set and the new epoch still opens with the same key."""
    old_scheme, old_quorum, old_outputs, old_public, _ = dkg_4
    network, runtimes, session, _ = _spawn_reshare(
        old_scheme, old_outputs, old_quorum,
        threshold_scheme(5, 1, GROUP.q), quorum_system_for(5, t=1),
        new_members=(0, 1, 2, 3, 4), seed=36, all_parties=[0, 1, 2, 3, 4],
        spawn_on=(0, 1, 2, 4),  # party 3 never starts resharing
    )
    network.run()  # quiesce: dealer 3's resharing never arrives
    for party in (0, 1, 2, 4):
        runtimes[party].instances[session].flush(
            Context(runtimes[party], session)
        )
    # Party 3 still counts toward the NEW quorum's readies, but it is
    # down — completion must come from the other four (n-t of 5).
    outputs = run_until_outputs(
        network, runtimes, session, parties=(0, 1, 2, 4)
    )
    assert outputs[0].qualified == (0, 1, 2)
    assert outputs[0].encryption_h == old_public.encryption.h
