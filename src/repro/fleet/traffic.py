"""The fleet workload model: seeded arrival processes over mixed request streams.

A fleet run drives N server instances at once, so the workload is not one
request list but a *timeline*: per-instance streams of mixed benign/attack
requests (the :func:`~repro.workloads.streams.mixed_stream` recipe), each
paired with virtual arrival times drawn from that instance's arrival process
(Poisson, bursty, ramp, or uniform), merged into one sequence ordered by
``(arrival time, instance, per-instance seq)``.

Everything is deterministic in ``(seed, instance index)`` alone:

* each instance's request content is the
  :func:`~repro.workloads.streams.mixed_stream` seeded with
  ``derive_seed(seed, "traffic", index)`` (or the instance's own request
  list, when it carries one),
* each instance's arrival times from
  ``random.Random(derive_seed(seed, "arrival", index))``,

so the timeline is bit-identical regardless of how many scheduler shards or
fork-pool workers later consume it — the invariance the serial-vs-pooled
regression tests pin down.  :func:`derive_seed` hashes with SHA-256 rather
than Python's per-process-salted ``hash()`` so derived seeds survive process
boundaries and interpreter restarts.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.servers.base import Request
from repro.workloads.streams import mixed_stream


def derive_seed(*parts: object) -> int:
    """Derive a child RNG seed from a root seed plus distinguishing labels.

    Stable across processes and Python versions (unlike ``hash()``, which is
    salted per process): the parts' ``repr`` is SHA-256 hashed and the first
    8 bytes become the seed.  Used for per-instance traffic streams, arrival
    processes, and per-shard worker RNGs, so no derived stream ever depends
    on worker count or spawn order.
    """
    digest = hashlib.sha256(repr(parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


# ---------------------------------------------------------------------------
# Arrival processes
# ---------------------------------------------------------------------------


class ArrivalProcess:
    """Base class: generates inter-arrival gaps (virtual seconds) from an RNG."""

    name = "arrival"

    def inter_arrivals(self, count: int, rng: random.Random) -> List[float]:
        """``count`` successive gaps between request arrivals."""
        raise NotImplementedError

    def arrival_times(self, count: int, rng: random.Random) -> List[float]:
        """Cumulative arrival times for ``count`` requests, starting at the first gap."""
        times: List[float] = []
        now = 0.0
        for gap in self.inter_arrivals(count, rng):
            now += gap
            times.append(now)
        return times


@dataclass
class PoissonArrivals(ArrivalProcess):
    """Memoryless arrivals: exponential gaps at ``rate`` requests/virtual-second."""

    rate: float = 100.0
    name = "poisson"

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ValueError("rate must be positive")

    def inter_arrivals(self, count: int, rng: random.Random) -> List[float]:
        return [rng.expovariate(self.rate) for _ in range(count)]


@dataclass
class UniformArrivals(ArrivalProcess):
    """Evenly spaced arrivals at ``rate`` requests/virtual-second (no jitter)."""

    rate: float = 100.0
    name = "uniform"

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ValueError("rate must be positive")

    def inter_arrivals(self, count: int, rng: random.Random) -> List[float]:
        gap = 1.0 / self.rate
        return [gap] * count

    def arrival_times(self, count: int, rng: random.Random) -> List[float]:
        gap = 1.0 / self.rate
        return [gap * (index + 1) for index in range(count)]


@dataclass
class BurstyArrivals(ArrivalProcess):
    """Bursts of back-to-back arrivals separated by long idle gaps.

    Models flash crowds / mail fetch storms: requests arrive in bursts of
    (on average) ``burst_size``, tightly spaced at ``rate`` within a burst,
    with an idle gap ``idle_factor`` times the mean in-burst gap between
    bursts.  The long-run average rate is below ``rate``; what matters for
    the scheduler is the ordering pressure bursts create when several
    instances' bursts collide.
    """

    rate: float = 100.0
    burst_size: int = 8
    idle_factor: float = 20.0
    name = "bursty"

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ValueError("rate must be positive")
        if self.burst_size < 1:
            raise ValueError("burst_size must be >= 1")
        if self.idle_factor < 1.0:
            raise ValueError("idle_factor must be >= 1")

    def inter_arrivals(self, count: int, rng: random.Random) -> List[float]:
        gaps: List[float] = []
        in_burst_gap = 1.0 / self.rate
        remaining_in_burst = 0
        for _ in range(count):
            if remaining_in_burst <= 0:
                # Start a new burst after an idle gap (geometric burst length
                # keeps the process memoryless at the burst level).
                gaps.append(rng.expovariate(1.0 / (in_burst_gap * self.idle_factor)))
                remaining_in_burst = 1 + rng.randrange(2 * self.burst_size - 1)
            else:
                gaps.append(rng.expovariate(self.rate))
            remaining_in_burst -= 1
        return gaps


@dataclass
class RampArrivals(ArrivalProcess):
    """Arrivals that accelerate linearly from ``start_rate`` to ``end_rate``.

    Models a ramping load test: the instantaneous rate interpolates between
    the endpoints over the stream, so early requests are sparse and late
    requests dense (or the reverse, for a ramp-down).
    """

    start_rate: float = 20.0
    end_rate: float = 200.0
    name = "ramp"

    def __post_init__(self) -> None:
        if self.start_rate <= 0 or self.end_rate <= 0:
            raise ValueError("rates must be positive")

    def inter_arrivals(self, count: int, rng: random.Random) -> List[float]:
        gaps: List[float] = []
        for index in range(count):
            frac = index / max(count - 1, 1)
            rate = self.start_rate + (self.end_rate - self.start_rate) * frac
            gaps.append(rng.expovariate(rate))
        return gaps


#: Named arrival-process constructors for the CLI: name -> rate -> process.
ARRIVALS: Dict[str, Callable[[float], ArrivalProcess]] = {
    "poisson": lambda rate: PoissonArrivals(rate=rate),
    "uniform": lambda rate: UniformArrivals(rate=rate),
    "bursty": lambda rate: BurstyArrivals(rate=rate),
    "ramp": lambda rate: RampArrivals(start_rate=max(rate / 10.0, 1e-6), end_rate=rate),
}


def make_arrival(name: str, rate: float = 100.0) -> ArrivalProcess:
    """Construct a registered arrival process by name at the given peak rate."""
    try:
        factory = ARRIVALS[name]
    except KeyError:
        raise KeyError(
            f"unknown arrival process {name!r} (choose from {sorted(ARRIVALS)})"
        ) from None
    return factory(rate)


# ---------------------------------------------------------------------------
# The timeline
# ---------------------------------------------------------------------------


@dataclass
class FleetRequest:
    """One scheduled request: which instance, when (virtual), and what."""

    __slots__ = ("instance", "at", "seq", "request")

    instance: int
    at: float
    seq: int
    request: Request


@dataclass
class InstanceTraffic:
    """The traffic recipe for one fleet instance (content + arrival shape).

    ``requests``, when given, is the instance's whole request content: it
    replaces the generated mixed stream and takes no share of the fleet's
    ``total_requests``.
    """

    server: str
    arrival: ArrivalProcess = field(default_factory=PoissonArrivals)
    weight: float = 1.0
    attack_every: int = 10
    requests: Optional[Sequence[Request]] = None

    def __post_init__(self) -> None:
        if self.weight < 0:
            raise ValueError("weight must be >= 0")


def split_by_weight(total: int, weights: Sequence[float]) -> List[int]:
    """Apportion ``total`` requests across weights (largest-remainder method).

    Deterministic, exact (counts sum to ``total``), and independent of any
    scheduler parameter — the per-instance request counts are part of the
    workload definition.
    """
    if total < 0:
        raise ValueError("total must be >= 0")
    if not weights:
        return []
    weight_sum = float(sum(weights))
    if weight_sum <= 0:
        raise ValueError("weights must sum to a positive value")
    shares = [total * weight / weight_sum for weight in weights]
    counts = [int(share) for share in shares]
    remainders = sorted(
        range(len(weights)),
        key=lambda index: (counts[index] + 1 - shares[index], index),
    )
    for index in remainders[: total - sum(counts)]:
        counts[index] += 1
    return counts


class TrafficModel:
    """Composes per-instance arrival processes into one fleet timeline.

    Parameters
    ----------
    instances:
        One :class:`InstanceTraffic` per fleet instance, in instance order.
    total_requests:
        Requests across the whole fleet, apportioned by instance weight among
        the instances that carry no request list of their own.
    seed:
        Root seed; all per-instance randomness derives from it via
        :func:`derive_seed`, never from global state.
    """

    def __init__(
        self,
        instances: Sequence[InstanceTraffic],
        total_requests: int,
        seed: int = 20040101,
    ) -> None:
        if not instances:
            raise ValueError("a fleet needs at least one instance")
        if total_requests <= 0:
            raise ValueError("total_requests must be positive")
        self.instances = list(instances)
        self.total_requests = total_requests
        self.seed = seed
        shares = iter(split_by_weight(total_requests, [
            traffic.weight for traffic in self.instances if traffic.requests is None
        ]))
        self.counts = [
            len(traffic.requests) if traffic.requests is not None else next(shares)
            for traffic in self.instances
        ]

    def instance_requests(self, index: int) -> List[Request]:
        """The request content for one instance (mixed benign/attack)."""
        traffic = self.instances[index]
        if traffic.requests is not None:
            return list(traffic.requests)
        if self.counts[index] == 0:
            # A small fleet's weight split can leave an instance no requests.
            return []
        return mixed_stream(
            traffic.server,
            total_requests=self.counts[index],
            attack_every=traffic.attack_every,
            seed=derive_seed(self.seed, "traffic", index),
        ).requests

    def instance_arrivals(self, index: int) -> List[float]:
        """The virtual arrival times for one instance's requests."""
        traffic = self.instances[index]
        rng = random.Random(derive_seed(self.seed, "arrival", index))
        return traffic.arrival.arrival_times(self.counts[index], rng)

    def timeline(self) -> List[FleetRequest]:
        """The merged fleet timeline, ordered by (arrival, instance, seq).

        Ties (identical virtual arrival times, e.g. two uniform processes at
        the same rate) break by instance index then per-instance sequence, so
        the ordering is total and reproducible.
        """
        merged: List[FleetRequest] = []
        for index in range(len(self.instances)):
            arrivals = self.instance_arrivals(index)
            requests = self.instance_requests(index)
            merged.extend(
                FleetRequest(instance=index, at=at, seq=seq, request=request)
                for seq, (at, request) in enumerate(zip(arrivals, requests))
            )
        merged.sort(key=lambda fr: (fr.at, fr.instance, fr.seq))
        return merged

    def describe(self) -> str:
        """One-line workload summary for reports and logs."""
        shapes = ", ".join(
            f"{traffic.server}:{traffic.arrival.name}" for traffic in self.instances
        )
        return (
            f"{self.total_requests} requests over {len(self.instances)} "
            f"instances (seed {self.seed}; {shapes})"
        )


__all__ = [
    "ARRIVALS",
    "ArrivalProcess",
    "BurstyArrivals",
    "FleetRequest",
    "InstanceTraffic",
    "PoissonArrivals",
    "RampArrivals",
    "TrafficModel",
    "UniformArrivals",
    "derive_seed",
    "make_arrival",
    "split_by_weight",
]
