"""Fleet soak service: a heterogeneous multi-server traffic scheduler.

This package is the one run path for long request streams: the §4.x.4
stability runs and the sharded soak (:mod:`repro.harness.stability`) are
small fleets, and the same scheduler drives the "millions of users" shape —
many server instances (any mix of profiles x policies), each cloned
from a post-boot checkpoint image, fed mixed benign/attack request streams
whose arrival times come from seeded stochastic processes, with streaming
telemetry sinks so runs are bounded by counters and SQLite batches instead of
ring memory or flat JSONL files.

* :mod:`repro.fleet.traffic` — the workload model: per-instance arrival
  processes (Poisson / bursty / ramp / uniform) over mixed benign/attack
  generators, merged into one virtual-arrival-time timeline.  Deterministic
  per (seed, instance index), so traffic never depends on worker count.
* :mod:`repro.fleet.scheduler` — :func:`~repro.fleet.scheduler.run_fleet`:
  boots one template per (server, policy, config) group, clones instances
  from the template images over the fork pool, interleaves each shard's
  instances by arrival time, restores dead instances O(dirty-bytes), and
  tallies per instance (serial == pooled by construction).
* :mod:`repro.fleet.report` — per-instance availability/error tables, both
  from a live :class:`~repro.fleet.scheduler.FleetResult` and re-derived
  from a SQLite export (``repro fleet report``).
"""

from repro.fleet.report import fleet_report_from_trace, format_fleet_table
from repro.fleet.scheduler import (
    FleetResult,
    InstanceSpec,
    InstanceTally,
    expand_instances,
    run_fleet,
)
from repro.fleet.traffic import (
    ARRIVALS,
    ArrivalProcess,
    BurstyArrivals,
    FleetRequest,
    PoissonArrivals,
    RampArrivals,
    TrafficModel,
    UniformArrivals,
    derive_seed,
    make_arrival,
)

__all__ = [
    "ARRIVALS",
    "ArrivalProcess",
    "BurstyArrivals",
    "FleetRequest",
    "FleetResult",
    "InstanceSpec",
    "InstanceTally",
    "PoissonArrivals",
    "RampArrivals",
    "TrafficModel",
    "UniformArrivals",
    "derive_seed",
    "expand_instances",
    "fleet_report_from_trace",
    "format_fleet_table",
    "make_arrival",
    "run_fleet",
]
