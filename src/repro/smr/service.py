"""One-call assembly of a replicated trusted service.

Glues the dealer, the simulated network, the per-server protocol
runtimes, the replicas and any number of clients into a running
deployment — the shape every example, test and benchmark uses.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

from ..adversary.formulas import Formula
from ..adversary.structures import AdversaryStructure
from ..crypto.dealer import CLIENT_BASE, SystemKeys, deal_system
from ..crypto.groups import SchnorrGroup, small_group
from ..net.adversary import CorruptionController
from ..net.scheduler import RandomScheduler, Scheduler
from ..net.simulator import Network
from ..core.atomic_broadcast import AbcConfig
from ..core.protocol import Context
from ..core.runtime import ProtocolRuntime
from .client import ServiceClient
from .replica import Replica, service_session
from .state_machine import StateMachine

__all__ = ["ServiceDeployment", "build_service"]


@dataclass
class ServiceDeployment:
    """A complete running service: servers, replicas, network, clients."""

    keys: SystemKeys
    network: Network
    runtimes: dict[int, ProtocolRuntime]
    replicas: dict[int, Replica]
    controller: CorruptionController
    clients: list[ServiceClient] = field(default_factory=list)
    _client_rng: random.Random = field(default_factory=lambda: random.Random(777))
    # What stack makes every replica from.
    state_machine_factory: Callable[[], StateMachine] | None = None
    abc_config: AbcConfig | None = None
    causal: bool = False

    @property
    def n(self) -> int:
        return self.keys.public.n

    def new_client(self) -> ServiceClient:
        """Attach a fresh client to the network."""
        client_id = CLIENT_BASE + len(self.clients)
        client = ServiceClient(
            client_id,
            self.network,
            self.keys.public,
            random.Random(self._client_rng.randrange(1 << 48)),
        )
        self.network.attach(client_id, client)
        self.clients.append(client)
        return client

    def run_until_complete(
        self, client: ServiceClient, nonces: list[int], max_steps: int = 400_000
    ) -> dict[int, object]:
        """Drive the network until the client's requests complete."""
        self.network.run(
            max_steps=max_steps,
            until=lambda: all(nonce in client.completed for nonce in nonces),
        )
        return {nonce: client.completed[nonce] for nonce in nonces}

    def stack(self, party: int, seed: int) -> ProtocolRuntime:
        """``party``'s honest server: a runtime with a replica of the
        service spawned on it, recorded as the party's; the node to attach."""
        runtime = ProtocolRuntime(
            party, self.network, self.keys.public, self.keys.private[party], seed=seed
        )
        replica = Replica(
            self.state_machine_factory(), causal=self.causal,
            abc_config=self.abc_config,
        )
        runtime.spawn(service_session(), replica)
        self.runtimes[party] = runtime
        self.replicas[party] = replica
        return runtime

    def rejoin(self, party: int, *, seed: int) -> Replica:
        """Crash-recovery (Section 6): a *fresh* runtime and replica —
        the volatile state is gone — take ``party``'s place on the
        network and start the peer state transfer that replays the
        agreed log.  Returns the new replica."""
        runtime = self.stack(party, seed)
        self.network.recover(party, runtime)
        replica = self.replicas[party]
        replica.begin_recovery(Context(runtime, service_session()))
        return replica

    def honest_replicas(self) -> list[Replica]:
        return [
            self.replicas[p]
            for p in sorted(self.replicas)
            if p not in self.controller.corrupted
        ]


def build_service(
    n: int,
    state_machine_factory: Callable[[], StateMachine],
    t: int | None = None,
    structure: AdversaryStructure | None = None,
    hybrid: tuple[int, int] | None = None,
    access_formula: Formula | None = None,
    causal: bool = False,
    scheduler: Scheduler | None = None,
    seed: int = 0,
    group: SchnorrGroup | None = None,
    abc_config: AbcConfig | None = None,
) -> ServiceDeployment:
    """Deal keys, build the network, and start one replica per server.

    The default group is the fast 64-bit test group; pass
    ``repro.crypto.default_group()`` for cryptographically sized keys.
    """
    dealer_rng = random.Random(seed)
    keys = deal_system(
        n,
        dealer_rng,
        t=t,
        structure=structure,
        hybrid=hybrid,
        access_formula=access_formula,
        group=group or small_group(),
    )
    network = Network(scheduler or RandomScheduler(), random.Random(seed + 1))
    deployment = ServiceDeployment(
        keys=keys,
        network=network,
        runtimes={},
        replicas={},
        controller=CorruptionController(keys.public.quorum),
        state_machine_factory=state_machine_factory,
        abc_config=abc_config,
        causal=causal,
    )
    for party in range(n):
        network.attach(party, deployment.stack(party, seed))
    return deployment
