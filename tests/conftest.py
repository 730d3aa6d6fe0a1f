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

    def startup(self) -> None:
        if self.restarts:
            raise SegmentationFault(0, "persistent trigger hit during restart boot")

    def restart(self):
        # Consecutive boots differ, so replaying the first boot's image would
        # be wrong: every restart reboots from scratch.
        return self.restart_from_scratch()

    def handle(self, request: Request) -> Response:
        if request.kind == "crash":
            raise SegmentationFault(0, "request smashed the heap")
        return Response.ok(body=b"ok")


def stream_fields(tally) -> dict:
    """Every tally field an export re-derives: all of them but the index
    (a report labels an instance by its scenario id)."""
    fields = tally.as_dict()
    del fields["index"]
    return fields


@pytest.fixture
def fragile_profile():
    profile = register_profile(ServerProfile(
        name="toy-fragile",
        server_cls=FragileServer,
        description="toy server whose restarts fail (stability regression test)",
    ))
    yield profile
    unregister_profile(profile.name)
