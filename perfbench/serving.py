"""The benchmark's workloads and their end-to-end measurement.

Every workload drives the serving stack only through its public entry
points -- ``ChildProcessPool.dispatch``, ``run_fleet``, ``ENGINE.build_server``
and ``Server.start`` -- and checks every output it gets back.  The workload
seed shapes the generated requests; the program under test only ever sees
those requests.

A run has three phases, in order:

1. set-up, :data:`SETUP_WARMUP` times untimed, then timed
   :data:`SETUP_REPS` times; the median is ``setup_s``;
2. closed-loop windows (the next request goes out when the previous one
   returns), a fixed amount of work each; their median rate is
   ``goodput_rps``;
3. open-loop windows of :data:`OPEN_WINDOW_S` at the workload's fixed
   offered rate; the p90 of all their latencies is ``latency_p90_ms`` (the
   p50 and p99 are reported ungated, as ``loadgen.latency_p50_ms`` and
   ``loadgen.latency_p99_ms``).

Each loop phase runs against a freshly built pool or set of instances, so
one phase's history never loads the other.

Every time is reported at the host's usual speed (see
:class:`~measure.HostSpeed`): only the :data:`KEEP_SHARE` of set-up
repetitions and windows the host entered least slowed count; their times
are divided, and their goodput multiplied, by the slowdown measured around
them; and an open-loop window's schedule is stretched by the slowdown
measured just before it.  The host's speed changes within a fraction of a
second, so windows are short.  The values as measured, over every window
and uncorrected, are printed beside them.
"""

from __future__ import annotations

import contextlib
import gc
import itertools
import math
import random
import resource
import string
import time
from dataclasses import dataclass, field
from statistics import median
from typing import Dict, List, Optional, Tuple

from measure import (GcRecorder, HostSpeed, OpenLoopResult, Slowdown, least_slowed,
                     percentile, run_open_loop)
from repro.core.policies import POLICY_NAMES
from repro.errors import RequestOutcome, RequestResult
from repro.fleet import scheduler
from repro.fleet.scheduler import FleetResult, InstanceSpec, InstanceTally
from repro.fleet.traffic import InstanceTraffic, TrafficModel, derive_seed, make_arrival
from repro.harness.engine import ENGINE
from repro.recovery.faults import FaultInjector
from repro.recovery.supervisor import RecoveryPolicy, RecoverySupervisor
from repro.servers.apache import ChildProcessPool, default_site_files
from repro.servers.base import Request
from repro.workloads.attacks import apache_vulnerable_config

FAILURE_OBLIVIOUS = "failure-oblivious"
BOUNDS_CHECK = "bounds-check"

#: Set-up is short next to machine noise, so it is repeated and the median kept.
SETUP_REPS = 21
#: Set-ups done before the timed ones: a fresh interpreter's first few run
#: up to four times slower.
SETUP_WARMUP = 5
#: Share of the windows (and set-up repetitions) the metrics are taken over:
#: those the host slowed least.
KEEP_SHARE = 0.5
#: Share of the measured seconds given to closed-loop windows; open-loop
#: windows get the rest.
CLOSED_SHARE = 0.5
#: Length of one open-loop window.
OPEN_WINDOW_S = 0.2
#: Closed-loop windows per run, at least.
MIN_CLOSED_WINDOWS = 2

# -- apache-* ---------------------------------------------------------------
#: The §4.3.2 setup: a four-child pre-fork pool under 60% attack traffic.
APACHE_POOL_SIZE = 4
APACHE_ATTACK_SHARE = 0.6
HOME_PAGE = "/index.html"
#: Requests served before the first window.  A fresh pool's first few dozen
#: requests run several times slower (first touch of new heaps).
APACHE_WARMUP = 400
#: Length of the seeded request mix; the run cycles through it.
APACHE_MIX = 4096
#: Requests in one closed-loop window.  The number of windows is sized from
#: --seconds and the build's usual capacity, so every run does the same work:
#: the pool keeps every result in its children's histories, and its memory
#: and collector costs grow with the requests served.
APACHE_WINDOW = 250

# -- fleet-soak --------------------------------------------------------------
FLEET_SERVERS = ("sendmail", "minic-sendmail", "pine", "mutt", "midnight-commander")
FLEET_ATTACK_EVERY = 20
FLEET_FAULT_EVERY = 101
#: Matches run_fleet's own default, so the open-loop instances are the ones
#: run_fleet would clone.
FLEET_SCALE = 0.25
FLEET_HISTORY = 256
#: Requests in each closed-loop window, one run_fleet call.
FLEET_REQUESTS_PER_RUN = 300
#: Fleet seeds the closed-loop windows take in turn, so that a run's goodput
#: covers more than one window's worth of distinct requests.
FLEET_WINDOW_SEEDS = 4


def fleet_specs() -> List[InstanceSpec]:
    """Five failure-oblivious mail/file servers plus one bounds-check Commander."""
    specs = [
        InstanceSpec(server=name, policy=FAILURE_OBLIVIOUS, attack_every=FLEET_ATTACK_EVERY)
        for name in FLEET_SERVERS
    ]
    specs.append(
        InstanceSpec(server="midnight-commander", policy=BOUNDS_CHECK,
                     attack_every=FLEET_ATTACK_EVERY)
    )
    return specs


@dataclass
class Tally:
    """Operations attempted and failed, over the whole run."""

    attempted: int = 0
    failed: int = 0
    legit_attempted: int = 0
    legit_served: int = 0
    #: Legitimate requests the supervisor quarantined; availability leaves
    #: them out of its denominator, as ``FleetResult.availability`` does.
    legit_quarantined: int = 0
    problems: List[str] = field(default_factory=list)

    def fail(self, count: int, problem: str) -> None:
        self.failed += count
        if len(self.problems) < 10:
            self.problems.append(problem)

    @property
    def availability(self) -> float:
        eligible = self.legit_attempted - self.legit_quarantined
        return self.legit_served / eligible if eligible > 0 else 1.0


def verdict_holds(policy: str, result: RequestResult) -> bool:
    """The build's verdict on an attack: failure-oblivious survives it,
    bounds-check terminates."""
    if policy == BOUNDS_CHECK:
        return result.outcome is RequestOutcome.TERMINATED_BY_CHECK
    return not result.fatal


def optional(context):
    """``context`` (a tracer or a recorder), or a no-op when it is None."""
    return context if context is not None else contextlib.nullcontext()


class Workload:
    """One traffic mix: set-up, then closed- and open-loop windows.

    ``start(phase)`` builds what a phase's windows run against, for
    ``phase`` in ``"closed"`` and ``"open"``; ``stop(phase)`` checks it and
    releases it.  Closed-loop windows are a fixed amount of work; their
    count is ``closed_windows(seconds)``.
    """

    name = ""
    why = ""
    #: Offered rate of the open-loop windows.
    offered_rps = 0.0
    #: Usual closed-loop capacity, which sizes the closed-loop work.
    closed_rps = 0.0
    #: Requests per closed-loop window.
    window_requests = 1

    def __init__(self, seed: int, seconds: float) -> None:
        self.seed = seed

    def closed_windows(self, seconds: float) -> int:
        closed = seconds * CLOSED_SHARE * self.closed_rps / self.window_requests
        return max(MIN_CLOSED_WINDOWS, round(closed))

    def open_windows(self, seconds: float) -> int:
        return max(1, round(seconds * (1 - CLOSED_SHARE) / OPEN_WINDOW_S))

    def setup_once(self, tally: Tally) -> None:
        raise NotImplementedError

    def start(self, phase: str, seconds: float, tally: Tally) -> None:
        raise NotImplementedError

    def closed_window(self, tally: Tally, tracer=None) -> float:
        """Serve one closed-loop window; return its goodput."""
        raise NotImplementedError

    def open_window(self, tally: Tally, slowdown: float) -> OpenLoopResult:
        """Serve one open-loop window at the offered rate, its schedule
        stretched by the host's ``slowdown``."""
        raise NotImplementedError

    def stop(self, phase: str, tally: Tally) -> None:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# apache-*
# ---------------------------------------------------------------------------


def attack_url(rng: random.Random) -> str:
    """A URL that matches the >10-capture rewrite rule (§4.3.1).

    Every capture group may be empty, so any run lengths overflow the
    capture-offset buffer; the seed varies them and the trailing payload.
    """
    groups = "".join(letter * rng.randint(0, 3) for letter in "abcdefghijklm")
    payload = "".join(
        rng.choice(string.ascii_letters) for _ in range(rng.randint(4, 32))
    )
    return f"/r/{groups}/{payload}"


class ApacheAttack(Workload):
    """The §4.3.2 pool: attack URLs mixed with home-page fetches.

    Each loop phase gets its own pool, warmed up before it is timed.  Each
    build's open loop is offered about a third of the pool's closed-loop
    capacity, so both are compared at the same relative load.
    """

    window_requests = APACHE_WINDOW

    def __init__(self, seed: int, seconds: float, policy: str) -> None:
        super().__init__(seed, seconds)
        self.policy = policy
        self.expected_body = default_site_files()[HOME_PAGE]
        rng = random.Random(seed)
        #: None is a home-page fetch, a string an attack URL.
        self.mix: List[Optional[str]] = [
            attack_url(rng) if rng.random() < APACHE_ATTACK_SHARE else None
            for _ in range(APACHE_MIX)
        ]
        #: The running phase's pool, and the attacks it was sent.
        self.pool: Optional[ChildProcessPool] = None
        self.attacks = 0
        self.position = 0

    def build_pool(self) -> ChildProcessPool:
        return ChildProcessPool(
            POLICY_NAMES[self.policy],
            pool_size=APACHE_POOL_SIZE,
            config=apache_vulnerable_config(),
        )

    def next_request(self) -> Request:
        url = self.mix[self.position % APACHE_MIX]
        self.position += 1
        if url is None:
            return Request(kind="get", payload={"url": HOME_PAGE})
        self.attacks += 1
        return Request(kind="get", payload={"url": url}, is_attack=True)

    def record(self, request: Request, result: RequestResult, tally: Tally) -> bool:
        """Check one reply; return whether it was correct."""
        tally.attempted += 1
        if request.is_attack:
            ok = verdict_holds(self.policy, result)
            if not ok:
                tally.fail(1, f"attack {request.payload['url']}: {result.outcome.value}")
            return ok
        tally.legit_attempted += 1
        ok = (
            result.outcome is RequestOutcome.SERVED
            and result.response is not None
            and result.response.body == self.expected_body
        )
        if ok:
            tally.legit_served += 1
        else:
            tally.fail(1, f"home page: {result.outcome.value}, wrong or missing body")
        return ok

    def setup_once(self, tally: Tally) -> None:
        self.build_pool().close()

    def start(self, phase: str, seconds: float, tally: Tally) -> None:
        self.pool = self.build_pool()
        self.attacks = 0
        for _ in range(APACHE_WARMUP):
            request = self.next_request()
            self.record(request, self.pool.dispatch(request), tally)

    def closed_window(self, tally: Tally, tracer=None) -> float:
        send = self.pool.dispatch
        if tracer is not None:
            send = tracer.root("loadgen.request", send)
        clock = time.perf_counter
        served = 0
        with optional(tracer):
            began = clock()
            for _ in range(self.window_requests):
                request = self.next_request()
                ok = self.record(request, send(request), tally)
                served += ok and not request.is_attack
            elapsed = clock() - began
        return served / elapsed

    def open_window(self, tally: Tally, slowdown: float) -> OpenLoopResult:
        count = max(1, round(OPEN_WINDOW_S * self.offered_rps))
        offsets = [index * slowdown / self.offered_rps for index in range(count)]

        def serve(_index: int) -> Tuple[bool, bool]:
            request = self.next_request()
            ok = self.record(request, self.pool.dispatch(request), tally)
            return not request.is_attack, ok

        return run_open_loop(offsets, serve)

    def stop(self, phase: str, tally: Tally) -> None:
        """Failure-oblivious children never die; bounds-check ones die once
        per attack."""
        pool, self.pool = self.pool, None
        pool.close()
        expected = self.attacks if self.policy == BOUNDS_CHECK else 0
        if pool.child_deaths != expected:
            tally.fail(
                abs(pool.child_deaths - expected),
                f"{phase}-loop pool: {pool.child_deaths} child deaths, expected {expected}",
            )


class ApacheFoAttack(ApacheAttack):
    name = "apache-fo-attack"
    why = ("failure-oblivious Apache pool under 60% rewrite-overflow attacks: "
           "the out-of-bounds continuation path works, no child restarts")
    closed_rps = 3000.0
    offered_rps = 1500.0

    def __init__(self, seed: int, seconds: float) -> None:
        super().__init__(seed, seconds, FAILURE_OBLIVIOUS)


class ApacheBcAttack(ApacheAttack):
    name = "apache-bc-attack"
    why = ("the same stream under bounds-check: every attack kills a child "
           "and the pool clones a replacement, so restarts dominate")
    closed_rps = 1800.0
    offered_rps = 600.0

    def __init__(self, seed: int, seconds: float) -> None:
        super().__init__(seed, seconds, BOUNDS_CHECK)


# ---------------------------------------------------------------------------
# fleet-soak
# ---------------------------------------------------------------------------


def check_instance(instance: InstanceTally, tally: Tally) -> None:
    """Conservation and the build verdicts for one fleet instance's tally."""
    legit = instance.requests - instance.attack_requests
    tally.attempted += instance.requests
    tally.legit_attempted += legit
    tally.legit_served += instance.legitimate_served
    tally.legit_quarantined += instance.quarantined
    label = f"{instance.server}/{instance.policy}#{instance.index}"
    # Conservation: every legitimate request was served, failed (dropped
    # ones included) or quarantined; every attack survived, was quarantined
    # or was dropped.
    unaccounted_attacks = (
        instance.attack_requests - instance.attacks_survived - instance.quarantined_attacks
    )
    if (legit != instance.legitimate_served + instance.legitimate_failed + instance.quarantined
            or not 0 <= unaccounted_attacks <= instance.dropped):
        tally.fail(instance.requests, f"{label}: tally does not conserve requests")
        return
    unserved = legit - instance.legitimate_served
    if unserved:
        tally.fail(unserved, f"{label}: {unserved} legitimate requests not served")
    if instance.policy == BOUNDS_CHECK:
        wrong = instance.attack_requests - instance.quarantined_attacks
    else:
        wrong = instance.attack_requests - instance.attacks_survived
    if wrong:
        tally.fail(wrong, f"{label}: {wrong} attacks contradict the {instance.policy} verdict")


def traffic_model(seed: int, total_requests: int) -> TrafficModel:
    """The request content and order run_fleet generates for the fleet specs."""
    return TrafficModel(
        [
            InstanceTraffic(
                server=spec.server,
                arrival=make_arrival(spec.arrival, spec.rate),
                attack_every=spec.attack_every,
            )
            for spec in fleet_specs()
        ],
        total_requests=total_requests,
        seed=seed,
    )


def repeats_a_directory(model: TrafficModel) -> bool:
    """Whether some instance is asked to create the same directory twice.

    Midnight Commander's benign requests are ``mkdir`` calls on a random
    name out of a million, and it rightly rejects a name that exists, so
    about one seed in four would carry a legitimate request that cannot be
    served.
    """
    for index in range(len(model.instances)):
        paths = [request.payload["path"] for request in model.instance_requests(index)
                 if request.kind == "mkdir"]
        if len(paths) != len(set(paths)):
            return True
    return False


class FleetSoak(Workload):
    """Supervised mail/file-server fleet with periodic attacks and faults.

    Closed-loop windows are whole ``run_fleet`` calls, on each of
    :data:`FLEET_WINDOW_SEEDS` fleet seeds in turn; every seed runs at least
    twice, and its runs must agree.  Open-loop windows
    replay the fleet's timeline, in its (virtual-time) order but evenly
    spaced at the offered rate, through the same six instances booted once
    for the phase and each kept under a ``RecoverySupervisor``.
    """

    name = "fleet-soak"
    why = ("supervised fleet of mail/file servers, mostly benign: per-byte "
           "accessor loops, heap walks, mini-C, snapshots and rollbacks")
    closed_rps = 600.0
    offered_rps = 200.0
    window_requests = FLEET_REQUESTS_PER_RUN

    def __init__(self, seed: int, seconds: float) -> None:
        super().__init__(seed, seconds)
        # The fleet seeds are the first of the seed and its derived successors
        # whose streams never repeat a directory name.  Longer runs extend
        # each instance's stream, so checking the longest covers the others.
        # The first also drives set-up and the open-loop windows.
        longest = max(self.window_requests, self.open_requests(seconds))
        candidates = itertools.chain(
            [seed], (derive_seed(seed, "fleet-soak", n) for n in itertools.count(1))
        )
        usable = (candidate for candidate in candidates
                  if not repeats_a_directory(traffic_model(candidate, longest)))
        self.window_seeds = list(itertools.islice(usable, FLEET_WINDOW_SEEDS))
        self.fleet_seed = self.window_seeds[0]
        self.windows_run = 0
        #: Each window seed's tallies from its first run.
        self.reference: Dict[int, List[Dict[str, object]]] = {}
        self.supervised: List[Tuple[str, RecoverySupervisor]] = []
        self.timeline: list = []

    def open_requests(self, seconds: float) -> int:
        return self.open_windows(seconds) * round(OPEN_WINDOW_S * self.offered_rps)

    def closed_windows(self, seconds: float) -> int:
        return max(2 * len(self.window_seeds), super().closed_windows(seconds))

    def run_fleet(self, total_requests: int, seed: int) -> FleetResult:
        # Looked up on the module at call time so the traced run's wrapper
        # around run_fleet is the one called.
        return scheduler.run_fleet(
            fleet_specs(),
            total_requests=total_requests,
            seed=seed,
            recovery=RecoveryPolicy(),
            fault_every=FLEET_FAULT_EVERY,
        )

    def setup_once(self, tally: Tally) -> None:
        for instance in self.run_fleet(len(fleet_specs()), self.fleet_seed).instances:
            check_instance(instance, tally)

    def start(self, phase: str, seconds: float, tally: Tally) -> None:
        """Boot the open-loop instances the way run_fleet boots a template;
        closed-loop windows need nothing beyond run_fleet."""
        if phase != "open":
            return
        for index, spec in enumerate(fleet_specs()):
            server = ENGINE.build_server(
                spec.server, spec.policy, plant_attack=True, scale=FLEET_SCALE
            )
            server.limit_history(FLEET_HISTORY)
            server.start()
            for request in ENGINE.profile(spec.server).make_follow_ups():
                server.process(request)
            injector = FaultInjector(
                derive_seed(self.fleet_seed, "faults", index), every=FLEET_FAULT_EVERY
            )
            self.supervised.append(
                (spec.policy, RecoverySupervisor(server, RecoveryPolicy(), injector=injector))
            )
        timeline = traffic_model(self.fleet_seed, self.open_requests(seconds)).timeline()
        self.timeline = list(reversed(timeline))

    def closed_window(self, tally: Tally, tracer=None) -> float:
        seed = self.window_seeds[self.windows_run % len(self.window_seeds)]
        self.windows_run += 1
        began = time.perf_counter()
        with optional(tracer):
            result = self.run_fleet(self.window_requests, seed)
        elapsed = time.perf_counter() - began
        for instance in result.instances:
            check_instance(instance, tally)
        tallies = result.tally()
        reference = self.reference.setdefault(seed, tallies)
        if reference is not tallies:
            # The same seed must reproduce every per-instance count.
            for got, want, instance in zip(tallies, reference, result.instances):
                if got != want:
                    tally.fail(instance.requests,
                               f"instance {instance.index}: tallies differ between runs")
        return result.legitimate_served / elapsed

    def open_window(self, tally: Tally, slowdown: float) -> OpenLoopResult:
        count = round(OPEN_WINDOW_S * self.offered_rps)
        window = [self.timeline.pop() for _ in range(min(count, len(self.timeline)))]
        offsets = [index * slowdown / self.offered_rps for index in range(len(window))]

        def serve(index: int) -> Tuple[bool, bool]:
            scheduled = window[index]
            request = scheduled.request
            policy, supervisor = self.supervised[scheduled.instance]
            result = supervisor.submit(request)
            tally.attempted += 1
            if request.is_attack:
                ok = verdict_holds(policy, result)
                if not ok:
                    tally.fail(1, f"attack on {supervisor.server.name}/{policy}: "
                                  f"{result.outcome.value}")
                return False, ok
            tally.legit_attempted += 1
            ok = result.outcome is RequestOutcome.SERVED
            if ok:
                tally.legit_served += 1
            else:
                tally.fail(1, f"{request.describe()}: {result.outcome.value}")
            return True, ok

        return run_open_loop(offsets, serve)

    def stop(self, phase: str, tally: Tally) -> None:
        for _policy, supervisor in self.supervised:
            supervisor.server.stop()
        self.supervised = []


WORKLOADS = {cls.name: cls for cls in (ApacheFoAttack, ApacheBcAttack, FleetSoak)}


# ---------------------------------------------------------------------------
# The end-to-end measurement
# ---------------------------------------------------------------------------


@dataclass
class Report:
    """One run's outcome: metrics plus the operations behind them."""

    metrics: Dict[str, Tuple[float, str]]
    tally: Tally
    #: Numbers the traced run borrows from an untraced one, plus sample sizes.
    detail: Dict[str, float]

    @property
    def correct(self) -> bool:
        return self.tally.failed == 0


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_phase(workload: Workload, phase: str, seconds: float, tally: Tally,
              count: int, window, speed: HostSpeed,
              recorder: Optional[GcRecorder] = None) -> List[Tuple[object, Slowdown]]:
    """Start a phase, run ``window()`` ``count`` times, stop the phase.

    Returns each window's result paired with the host's slowdown around it.
    """
    gc.collect()
    workload.start(phase, seconds, tally)
    try:
        speed.begin()
        with optional(recorder):
            return [(window(), speed.window()) for _ in range(count)]
    finally:
        workload.stop(phase, tally)


def measure_end_to_end(workload: Workload, seconds: float) -> Report:
    """Set up, then the closed- and the open-loop windows, tracing off."""
    tally = Tally()
    clock = time.perf_counter
    speed = HostSpeed()
    for _ in range(SETUP_WARMUP):
        workload.setup_once(tally)
    speed.begin()
    setups = []
    for _ in range(SETUP_REPS):
        began = clock()
        workload.setup_once(tally)
        setups.append((clock() - began, speed.window()))
    recorder = GcRecorder()
    closed = run_phase(workload, "closed", seconds, tally, workload.closed_windows(seconds),
                       lambda: workload.closed_window(tally), speed, recorder)
    opened = run_phase(workload, "open", seconds, tally, workload.open_windows(seconds),
                       lambda: workload.open_window(tally, speed.latest), speed, recorder)
    windows = [result for result, _slowdown in opened]
    latencies = sorted(itertools.chain.from_iterable(w.latencies_ms for w in windows))
    late = sorted(itertools.chain.from_iterable(w.late_ms for w in windows))
    usual = sorted(itertools.chain.from_iterable(
        (latency / slowdown.mean for latency in w.latencies_ms)
        for w, slowdown in least_slowed(opened, KEEP_SHARE)
    ))
    metrics = {
        "goodput_rps": (median(g * slowdown.mean
                               for g, slowdown in least_slowed(closed, KEEP_SHARE)), "req/s"),
        "latency_p90_ms": (percentile(usual, 90), "ms"),
        "availability": (tally.availability, "ratio"),
        "setup_s": (median(t / slowdown.mean
                           for t, slowdown in least_slowed(setups, KEEP_SHARE)), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    detail = {
        "goodput_rps": metrics["goodput_rps"][0],
        "measured.goodput_rps": median(g for g, _slowdown in closed),
        "measured.latency_p50_ms": finite(percentile(latencies, 50)),
        "measured.latency_p90_ms": finite(percentile(latencies, 90)),
        "measured.setup_s": median(t for t, _slowdown in setups),
        "host_slowdown": median(speed.slowdowns),
        "latency_samples": len(latencies),
        "loadgen.latency_p50_ms": finite(percentile(usual, 50)),
        "loadgen.latency_p99_ms": finite(percentile(latencies, 99)),
        "loadgen.late_p99_ms": percentile(late, 99),
        "loadgen.backlog_max": max(w.backlog_max for w in windows),
        "failed_ratio": tally.failed / max(tally.attempted, 1),
    }
    detail.update(recorder.summary())
    return Report(metrics=metrics, tally=tally, detail=detail)


def measure_traced(workload: Workload, seconds: float, tracer) -> Tuple[float, Tally]:
    """Only the closed-loop windows, each traced; return their goodput at
    the host's usual speed."""
    tally = Tally()
    closed = run_phase(workload, "closed", seconds, tally,
                       workload.closed_windows(seconds),
                       lambda: workload.closed_window(tally, tracer=tracer), HostSpeed())
    return median(g * slowdown.mean for g, slowdown in least_slowed(closed, KEEP_SHARE)), tally


def finite(value: float) -> float:
    """JSON has no infinity: a percentile that landed on a failed request
    is reported as 1e9 ms (and the run is marked incorrect anyway)."""
    return value if math.isfinite(value) else 1e9
