"""Stability experiments: long mixed workloads with periodic attack injection.

The paper's stability sections (§4.2.4, §4.3.4, §4.4.4, §4.5.4, §4.6.4) deploy
the failure-oblivious build of each server into daily use, periodically feed
it the attack input, and check that it keeps performing all requests
flawlessly.  They also read the memory-error log to observe benign errors
(Sendmail's wake-up error, Midnight Commander's blank-configuration-line
error).

:func:`run_stability_experiment` reproduces the shape of those experiments: a
long, seeded, mostly-legitimate request stream with attacks injected every N
requests, served by :func:`~repro.fleet.scheduler.run_fleet` — which boots
the server, runs the session setup, restarts it on death (under the fleet's
one :class:`~repro.recovery.supervisor.RecoverySupervisor`) and tallies every
outcome.  With ``shards=K`` the same stream is split into K contiguous
chunks, each served by its own clone of the boot image: the §4.3.2-style
restart-under-attack soak.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.fleet.scheduler import FleetResult, InstanceSpec, run_fleet, split_contiguous
from repro.workloads.streams import mixed_stream


def run_stability_experiment(
    server_name: str,
    policy_name: str,
    total_requests: int = 200,
    attack_every: int = 25,
    seed: int = 20040101,
    scale: float = 0.25,
    config: Optional[Dict[str, object]] = None,
    shards: int = 1,
    **fleet_options: object,
) -> FleetResult:
    """Serve one server's mixed stream through a fleet of ``shards`` instances.

    Instance *i* serves stream chunk *i*; the default single shard is the
    paper's stability run, read as ``result.instances[0]``.  A "death" in
    the paper's sense is ``server_deaths`` (boot-time deaths included).
    ``fleet_options`` pass through to :func:`~repro.fleet.scheduler.run_fleet`
    (e.g. ``workers``, ``recovery``, ``max_seconds``).
    """
    stream = mixed_stream(
        server_name, total_requests=total_requests, attack_every=attack_every, seed=seed
    )
    specs = [
        InstanceSpec(server_name, policy_name, config=config, requests=chunk)
        for chunk in split_contiguous(stream.requests, shards)
    ]
    return run_fleet(specs, seed=seed, scale=scale, **fleet_options)
