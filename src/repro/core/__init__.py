"""Core failure-oblivious computing mechanisms.

This package is the paper's primary contribution: the *continuation code* that
runs when a dynamic bounds check detects an invalid access.  It is independent
of the simulated memory substrate (``repro.memory``) and of any particular
server; a policy object simply answers "what should happen now?" for each
invalid read or write.

Public API
----------
* :class:`~repro.core.policy.AccessPolicy` — the policy interface.
* :class:`~repro.core.policies.StandardPolicy` — unchecked (paper's *Standard* build).
* :class:`~repro.core.policies.BoundsCheckPolicy` — terminate at first error (CRED).
* :class:`~repro.core.policies.FailureObliviousPolicy` — discard writes, manufacture reads.
* :class:`~repro.core.policies.BoundlessPolicy` — boundless memory blocks variant (§5.1).
* :class:`~repro.core.policies.RedirectPolicy` — redirect-into-unit variant (§5.1).
* :class:`~repro.core.manufacture.ManufacturedValueSequence` — the read value generator.
* :class:`~repro.core.errorlog.MemoryErrorLog` — the optional error log of §3.
"""

from repro.core.errorlog import MemoryErrorLog
from repro.core.manufacture import ManufacturedValueSequence
from repro.core.policy import AccessDecision, AccessPolicy, PolicyStatistics
from repro.core.policies import (
    BoundlessPolicy,
    BoundsCheckPolicy,
    FailureObliviousPolicy,
    RedirectPolicy,
    StandardPolicy,
    POLICY_NAMES,
)

__all__ = [
    "AccessDecision",
    "AccessPolicy",
    "PolicyStatistics",
    "StandardPolicy",
    "BoundsCheckPolicy",
    "FailureObliviousPolicy",
    "BoundlessPolicy",
    "RedirectPolicy",
    "POLICY_NAMES",
    "ManufacturedValueSequence",
    "MemoryErrorLog",
]
