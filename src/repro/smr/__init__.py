"""Secure state machine replication (Section 5)."""

from .client import CompletedRequest, ServiceClient
from .replica import Replica, SubmitEncrypted, SubmitRequest, service_session
from .state_machine import KeyValueStore, Reply, Request, StateMachine

__all__ = [
    "CompletedRequest",
    "ServiceClient",
    "Replica",
    "SubmitEncrypted",
    "SubmitRequest",
    "service_session",
    "ServiceDeployment",
    "build_service",
    "KeyValueStore",
    "Reply",
    "Request",
    "StateMachine",
]


def __getattr__(name: str) -> object:  # the simulated assembly, not in replicas
    from importlib import import_module

    return getattr(import_module(".service", __name__), name)
