"""ServiceClient.call(): the completion-vs-deadline interleaving.

Regression for the RL008-class race this PR fixed: a signed answer that
lands during the *final* suspension (while ``wait_until`` is timing
out) must be returned, not misreported as a timeout — a false timeout
makes the caller retry a possibly state-mutating operation under a new
nonce, defeating the at-most-once argument.
"""

import asyncio
import random
from types import SimpleNamespace

import pytest

from repro.crypto.schnorr import Signature
from repro.smr.client import CompletedRequest, ServiceClient
from repro.smr.state_machine import Reply


def _client(network):
    return ServiceClient(
        client_id=0,
        network=network,
        public=SimpleNamespace(n=4),
        rng=random.Random(7),
    )


class _RacyNetwork:
    """wait_until consumes its full budget, then the reply lands *and*
    the TimeoutError fires — the losing side of the race."""

    def __init__(self) -> None:
        self.client: ServiceClient | None = None

    def send(self, sender, recipient, payload) -> None:
        pass

    async def wait_until(self, condition, timeout: float):
        await asyncio.sleep(timeout)
        nonce = next(iter(self.client._operations))
        self.client.completed[nonce] = CompletedRequest(
            nonce=nonce, result="done", signature=None
        )
        raise asyncio.TimeoutError


class _DeadNetwork:
    def send(self, sender, recipient, payload) -> None:
        pass

    async def wait_until(self, condition, timeout: float):
        await asyncio.sleep(timeout)
        raise asyncio.TimeoutError


def test_reply_landing_during_final_suspension_is_returned():
    async def scenario():
        network = _RacyNetwork()
        client = _client(network)
        network.client = client
        result = await client.call(
            ("put", "k", "v"), timeout=0.05, attempt_timeout=1.0, servers=[1, 2]
        )
        assert result.result == "done"

    asyncio.run(scenario())


def test_genuine_timeout_still_raises():
    async def scenario():
        client = _client(_DeadNetwork())
        with pytest.raises(asyncio.TimeoutError):
            await client.call(
                ("put", "k", "v"), timeout=0.05, attempt_timeout=0.02, servers=[1]
            )

    asyncio.run(scenario())


def test_a_call_that_gives_up_forgets_its_request():
    """A timed-out call leaves no pending record behind: an answer that
    lands later is a duplicate, not a completion nobody awaits."""
    async def scenario():
        client = _client(_DeadNetwork())
        for key in ("a", "b", "c"):
            with pytest.raises(asyncio.TimeoutError):
                await client.call(
                    ("put", key, "v"), timeout=0.03, attempt_timeout=0.01, servers=[1]
                )
        assert client._pending == {}

    asyncio.run(scenario())


def test_an_answer_after_giving_up_is_a_duplicate():
    """A reply for a call that timed out completes nothing: the caller
    was told it failed, so no completion may appear behind its back."""
    async def scenario():
        client = _client(_DeadNetwork())
        with pytest.raises(asyncio.TimeoutError):
            await client.call(("put", "k", "v"), timeout=0.03, attempt_timeout=0.01, servers=[1])
        nonce = next(iter(client._operations))
        late = Reply(1, client.client_id, nonce, ("ok", 1), Signature(commit=5, response=7))
        client.on_message(1, (client.session, late))
        assert client.duplicate_replies == 1
        assert nonce not in client.completed

    asyncio.run(scenario())


def test_resubmissions_and_counters_survive_the_race():
    async def scenario():
        network = _RacyNetwork()
        client = _client(network)
        network.client = client
        await client.call(
            ("put", "k", "v"), timeout=0.2, attempt_timeout=0.3, servers=[1]
        )
        # The single wait consumed the whole window: no resubmission
        # happened before the completion was honoured.
        assert client.resubmissions == 0

    asyncio.run(scenario())
