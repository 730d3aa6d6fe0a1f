"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.core.policies import (
    BoundlessPolicy,
    BoundsCheckPolicy,
    FailureObliviousPolicy,
    RedirectPolicy,
    StandardPolicy,
)
from repro.errors import SegmentationFault
from repro.memory.context import MemoryContext
from repro.servers.base import Request, Response, Server
from repro.servers.profile import ServerProfile, register_profile, unregister_profile


@pytest.fixture
def fo_ctx() -> MemoryContext:
    """A memory context under the failure-oblivious policy."""
    return MemoryContext(FailureObliviousPolicy())


@pytest.fixture
def bc_ctx() -> MemoryContext:
    """A memory context under the bounds-check (CRED) policy."""
    return MemoryContext(BoundsCheckPolicy())


@pytest.fixture
def std_ctx() -> MemoryContext:
    """A memory context under the unchecked standard policy."""
    return MemoryContext(StandardPolicy())


@pytest.fixture(params=["standard", "bounds-check", "failure-oblivious", "boundless", "redirect"])
def any_policy_name(request) -> str:
    """Every registered policy name, for parametrized policy-agnostic tests."""
    return request.param


POLICY_CLASSES = {
    "standard": StandardPolicy,
    "bounds-check": BoundsCheckPolicy,
    "failure-oblivious": FailureObliviousPolicy,
    "boundless": BoundlessPolicy,
    "redirect": RedirectPolicy,
}


class FragileServer(Server):
    """Toy server: one "crash" request kills it, and every restart dies at boot.

    Models a persistent trigger (Pine's poisoned mailbox): the first boot
    succeeds, but once crashed, the monitor's restarts keep hitting the same
    startup fault.
    """

    name = "toy-fragile"
    # Boot mutates the shared config (the boots counter), so consecutive
    # boots differ and the image-replay restart model does not apply.
    checkpoint_restarts = False

    def startup(self) -> None:
        boots = self.config.setdefault("boots", [])
        boots.append(1)
        if len(boots) > 1:
            raise SegmentationFault(0, "persistent trigger hit during restart boot")

    def handle(self, request: Request) -> Response:
        if request.kind == "crash":
            raise SegmentationFault(0, "request smashed the heap")
        return Response.ok(body=b"ok")


@pytest.fixture
def fragile_profile():
    profile = register_profile(ServerProfile(
        name="toy-fragile",
        server_cls=FragileServer,
        description="toy server whose restarts fail (stability regression test)",
    ))
    yield profile
    unregister_profile(profile.name)
