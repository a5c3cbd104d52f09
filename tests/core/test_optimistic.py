"""Optimistic atomic broadcast (Section 6): fast path, safe fallback."""

from helpers import ctx_for, make_network

from repro.core.optimistic import (
    OptAck,
    OptCommit,
    OptimisticAtomicBroadcast,
    OptOrder,
    opt_abc_session,
)
from repro.net.adversary import SilentNode
from repro.net.scheduler import FifoScheduler, RandomScheduler, StarvingScheduler

from repro.crypto.schnorr import Signature


def _spawn(rts, session, watchdog_limit=200):
    logs, insts = {}, {}
    for p, rt in rts.items():
        logs[p] = []
        insts[p] = rt.spawn(
            session,
            OptimisticAtomicBroadcast(
                on_deliver=lambda m, o, pp=p: logs[pp].append((m, o)),
                watchdog_limit=watchdog_limit,
            ),
        )
    return logs, insts


def _drive(net, rts, insts, session, done, budget=400_000, tickers=None):
    steps = 0
    while steps < budget and not done():
        progressed = net.step()
        if not progressed:
            for p in tickers if tickers is not None else rts:
                insts[p].tick(ctx_for(rts[p], session))
            if not net.pending and done():
                break
        steps += 1
    return steps


class TestFastPath:
    def test_total_order_and_fast_delivery(self, keys_4_1):
        net, rts = make_network(keys_4_1, RandomScheduler(), seed=1)
        session = opt_abc_session("fp")
        logs, insts = _spawn(rts, session)
        net.start()
        for k in range(4):
            insts[k].submit(ctx_for(rts[k], session), ("req", k))
        net.run(until=lambda: all(len(logs[p]) >= 4 for p in rts), max_steps=400_000)
        assert all(logs[p] == logs[0] for p in rts)
        assert all(origin.startswith("fast") for _, origin in logs[0])

    def test_fast_path_much_cheaper_than_randomized(self, keys_4_1):
        from repro.core.atomic_broadcast import AtomicBroadcast, abc_session

        # Optimistic.
        net, rts = make_network(keys_4_1, FifoScheduler(), seed=2)
        session = opt_abc_session("cost")
        logs, insts = _spawn(rts, session)
        net.start()
        insts[0].submit(ctx_for(rts[0], session), ("req", "x"))
        net.run(until=lambda: all(len(logs[p]) >= 1 for p in rts), max_steps=200_000)
        optimistic_msgs = net.trace.sent

        # Randomized.
        net2, rts2 = make_network(keys_4_1, FifoScheduler(), seed=2)
        session2 = abc_session("cost")
        logs2 = {p: [] for p in rts2}
        for p, rt in rts2.items():
            rt.spawn(session2, AtomicBroadcast(
                on_deliver=lambda m, r, pp=p: logs2[pp].append(m)))
        net2.start()
        rts2[0].instances[session2].submit(ctx_for(rts2[0], session2), ("req", "x"))
        net2.run(until=lambda: all(len(logs2[p]) >= 1 for p in rts2),
                 max_steps=400_000)
        randomized_msgs = net2.trace.sent

        assert optimistic_msgs * 2 < randomized_msgs

    def test_duplicate_submissions_ordered_once(self, keys_4_1):
        net, rts = make_network(keys_4_1, seed=3)
        session = opt_abc_session("dup")
        logs, insts = _spawn(rts, session)
        net.start()
        for p in rts:
            insts[p].submit(ctx_for(rts[p], session), ("req", "same"))
        net.run(until=lambda: all(len(logs[p]) >= 1 for p in rts), max_steps=200_000)
        net.run(max_steps=200_000)
        assert all(len(logs[p]) == 1 for p in rts)

    def test_forged_order_rejected(self, keys_4_1):
        net, rts = make_network(keys_4_1, seed=4, parties=[1])
        session = opt_abc_session("forge")
        logs, insts = _spawn(rts, session)
        net.start()
        fake = OptOrder(1, ("evil",), Signature(commit=1, response=1))
        net.send(0, 1, (session, fake))
        net.run(max_steps=1000)
        assert insts[1].orders == {}

    def test_equivocating_leader_cannot_split_order(self, keys_4_1):
        """A Byzantine leader sending different payloads for seq 1 to
        different servers: at most one digest can gather a strong quorum
        of acks, so no two honest servers deliver differently."""
        net, rts = make_network(keys_4_1, seed=5, parties=[1, 2, 3])
        session = opt_abc_session("equiv")
        logs, insts = _spawn(rts, session)

        class EquivocatingLeader(SilentNode):
            def __init__(self, keys):
                self.keys = keys
                self.fired = False

            def on_message(self, sender, payload):
                if self.fired:
                    return
                self.fired = True
                import random as _r

                rng = _r.Random(9)
                for target, value in ((1, ("A",)), (2, ("A",)), (3, ("B",))):
                    from repro.core.optimistic import _order_statement

                    sig = self.keys.private[0].signing_key.sign(
                        _order_statement(session, 1, value), rng
                    )
                    net.send(0, target, (session, OptOrder(1, value, sig)))

        net.attach(0, EquivocatingLeader(keys_4_1))
        net.start()
        net.send(1, 0, (session, "poke"))
        net.run(max_steps=100_000)
        delivered = {m for p in rts for m, _ in logs[p]}
        assert len(delivered) <= 1


    def test_flood_of_unordered_shares_is_bounded_and_harmless(self, keys_4_1):
        """One corrupted server naming 10,000 distinct (seq, digest)
        statements nobody ordered: an honest replica remembers at most
        one share per phase and sequence number within the horizon, and
        the next honest request still commits on the fast path."""
        from repro.core.optimistic import _SEQ_HORIZON

        net, rts = make_network(keys_4_1, FifoScheduler(), seed=10, parties=[0, 1, 2])
        net.attach(3, SilentNode())
        session = opt_abc_session("flood")
        logs, insts = _spawn(rts, session, watchdog_limit=10**9)
        net.start()
        junk = Signature(commit=1, response=1)
        for k in range(1, 10_001):
            for message in (OptAck(k, b"%d" % k, junk), OptCommit(k, b"x%d" % k, junk)):
                rts[1].on_message(3, (session, message))
        # The same sender again, other digests: its slots are taken.
        rts[1].on_message(3, (session, OptAck(1, b"again", junk)))
        held = insts[1].early
        assert sum(len(bucket) for bucket in held.values()) == 2 * _SEQ_HORIZON
        assert set(seq for _, seq in held) == set(range(1, _SEQ_HORIZON + 1))
        assert not insts[1].screens  # none for a statement without an ORDER
        insts[0].submit(ctx_for(rts[0], session), ("req", "after the flood"))
        net.run(until=lambda: all(len(logs[p]) >= 1 for p in rts), max_steps=200_000)
        assert all(logs[p] == [(("req", "after the flood"), "fast-seq-1")] for p in rts)
        # The ORDER for seq 1 claimed the slot; the junk share on another
        # digest went with it instead of staying behind.
        assert all(seq != 1 for _, seq in insts[1].early)


class TestFallback:
    def test_starved_leader_triggers_safe_fallback(self, keys_4_1):
        net, rts = make_network(
            keys_4_1, StarvingScheduler({0}, patience=10_000_000), seed=6,
        )
        session = opt_abc_session("fb")
        logs, insts = _spawn(rts, session, watchdog_limit=30)
        net.start()
        insts[1].submit(ctx_for(rts[1], session), ("req", "A"))
        insts[2].submit(ctx_for(rts[2], session), ("req", "B"))
        honest = [1, 2, 3]
        _drive(
            net, rts, insts, session,
            done=lambda: all(len(logs[p]) >= 2 for p in honest),
            tickers=honest,
        )
        assert all(logs[p] == logs[honest[0]] for p in honest)
        assert all(insts[p].mode == "pessimistic" for p in honest)

    def test_fast_deliveries_preserved_across_fallback(self, keys_4_1):
        """Payloads delivered on the fast path keep their positions: the
        fallback state exchange carries prepare certificates, so the
        decided prefix extends every honest delivery."""
        net, rts = make_network(keys_4_1, FifoScheduler(), seed=7)
        session = opt_abc_session("prefix")
        logs, insts = _spawn(rts, session, watchdog_limit=40)
        net.start()
        insts[0].submit(ctx_for(rts[0], session), ("req", "early"))
        net.run(until=lambda: all(len(logs[p]) >= 1 for p in rts), max_steps=200_000)
        prefix = [m for m, _ in logs[0]]

        # Now starve the leader and push another payload through fallback.
        net.scheduler = StarvingScheduler({0}, patience=10_000_000)
        insts[1].submit(ctx_for(rts[1], session), ("req", "late"))
        honest = [1, 2, 3]
        _drive(
            net, rts, insts, session,
            done=lambda: all(len(logs[p]) >= 2 for p in honest),
            tickers=honest,
        )
        for p in honest:
            assert [m for m, _ in logs[p]][: len(prefix)] == prefix
            assert ("req", "late") in [m for m, _ in logs[p]]
        assert all(logs[p] == logs[1] for p in honest)

    def test_quiet_system_never_falls_back(self, keys_4_1):
        """No pending payloads -> the watchdog stays quiet even when
        ticked heavily (no spurious complaints)."""
        net, rts = make_network(keys_4_1, seed=8)
        session = opt_abc_session("quiet")
        logs, insts = _spawn(rts, session, watchdog_limit=5)
        net.start()
        for _ in range(100):
            for p in rts:
                insts[p].tick(ctx_for(rts[p], session))
        net.run(max_steps=10_000)
        assert all(insts[p].mode == "fast" for p in rts)

    def test_submissions_after_fallback_are_delivered(self, keys_4_1):
        net, rts = make_network(
            keys_4_1, StarvingScheduler({0}, patience=10_000_000), seed=9
        )
        session = opt_abc_session("after")
        logs, insts = _spawn(rts, session, watchdog_limit=30)
        net.start()
        insts[1].submit(ctx_for(rts[1], session), ("req", "first"))
        honest = [1, 2, 3]
        _drive(
            net, rts, insts, session,
            done=lambda: all(len(logs[p]) >= 1 for p in honest),
            tickers=honest,
        )
        assert all(insts[p].mode == "pessimistic" for p in honest)
        insts[2].submit(ctx_for(rts[2], session), ("req", "second"))
        _drive(
            net, rts, insts, session,
            done=lambda: all(len(logs[p]) >= 2 for p in honest),
            tickers=honest,
        )
        assert all(logs[p] == logs[1] for p in honest)
