"""The fleet scheduler: N cloned server instances under one traffic timeline.

:func:`run_fleet` is the one run path for every long request stream in the
repository: the stability experiments are a one-instance fleet, and the
sharded soak is a fleet of one (server, policy) whose instance *i* serves
stream chunk *i* (see :func:`~repro.harness.stability.run_stability_experiment`).
A fleet instantiates any mix of profiles x policies and drives them with the
:class:`~repro.fleet.traffic.TrafficModel` timeline, interleaved by virtual
arrival time; an instance may instead carry its own request list
(:attr:`InstanceSpec.requests`).  The mechanics reuse the checkpoint substrate end
to end:

* one **template** is booted per distinct ``(server, policy, config)`` group
  and its post-boot :class:`~repro.servers.base.ProcessImage` captured; every
  instance of the group is then cloned via
  :meth:`~repro.servers.base.Server.adopt_image` (boot cost paid once per
  group, not per instance).  A server class with ``checkpoint_restarts``
  False has no image to clone, so each of its instances boots itself;
* a dead instance is restored O(dirty-bytes) from its image by the monitor
  (or rebooted from scratch, for the ``checkpoint_restarts`` False classes);
* instances are partitioned into ``shards`` **contiguous groups of
  instances** and fanned over the same forked pool.  Instances are
  independent processes, so per-instance tallies cannot observe the
  partition: shard boundaries depend only on ``shards`` (never ``workers``),
  the timeline is generated in the parent, and each worker's RNG is seeded
  from ``(seed, shard index)`` — pooled runs are bit-identical to serial.

Requests that arrive while their instance is down (or after the wall-clock
budget expires) are **dropped**: the scheduler emits a synthetic
:class:`~repro.telemetry.events.RequestEnd` with outcome ``"dropped"`` on the
instance's bus.  That one decision is what makes ``repro fleet report``
exact — the live tallies and any streaming export (SQLite spills merged in
shard order, JSONL session spills) see the *same* event stream, so counts
re-derived from an export equal the live ones by construction.  Monitor
restarts flow through the stream too
(:class:`~repro.telemetry.events.RollbackPerformed` with
``to_boot_image=True`` and no request id); only boot failures and the
clone-time boot retry remain live-only bookkeeping (no sink is attached
yet when they happen).

PR 10 adds the self-healing mode: ``run_fleet(recovery=...)`` wraps every
live instance in a
:class:`~repro.recovery.supervisor.RecoverySupervisor` (incremental
snapshots, rollback + retry on fatal faults, poison-request quarantine),
optionally driven by per-instance seeded fault injection — all of it
flowing through the same event stream, so the export-equals-live property
extends to rollbacks, quarantines, and injected faults.
"""

from __future__ import annotations

import multiprocessing
import os
import shutil
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple, TypeVar

from repro.errors import FATAL_OUTCOMES, RequestOutcome
from repro.fleet.traffic import (
    FleetRequest,
    InstanceTraffic,
    TrafficModel,
    derive_seed,
    make_arrival,
)
from repro.memory.shared_image import SharedImageStore
from repro.recovery.faults import FAULT_KINDS, FaultInjector
from repro.recovery.supervisor import RecoveryPolicy, RecoverySupervisor
from repro.servers.base import ProcessImage, Request, Server, bounded_history_limit
from repro.servers.profile import ServerProfile
from repro.telemetry.events import (
    FaultInjected,
    RequestEnd,
    RequestQuarantined,
    RollbackPerformed,
    SnapshotTaken,
)
from repro.telemetry.session import current_session
from repro.telemetry.sinks import Sink
from repro.telemetry.sqlite import SqliteSink, merge_sqlite
from repro.telemetry.stats import StatsSink

#: Outcome stamped on the synthetic RequestEnd the scheduler emits for a
#: request that never reached a live server (instance down past restart).
#: Distinct from every RequestOutcome value.
DROPPED_OUTCOME = "dropped"

#: Outcome stamped on requests dropped because the wall-clock budget
#: (``max_seconds``) expired.  A distinct outcome so an export alone answers
#: "did this run hit its deadline, and how much of the tail was cut?".
DEADLINE_OUTCOME = "dropped-deadline"

T = TypeVar("T")

#: Outcome strings carried by RequestEnd events after which the process is gone.
_FATAL_VALUES = frozenset(outcome.value for outcome in FATAL_OUTCOMES)

#: State inherited by forked shard workers (set immediately before the pool
#: is created, cleared after; never pickled).
_POOL_FLEET: Optional["_FleetRun"] = None

#: The most recent run's shared-image store (test hook: lets the leak test
#: assert that the run's /dev/shm segments were actually released).
_LAST_IMAGE_STORE: Optional[SharedImageStore] = None


def _share_process_image(store: SharedImageStore, image: ProcessImage) -> ProcessImage:
    """Rebind a boot image's address-space payload into shared memory.

    Everything a clone restores stays bit-identical; only where the template
    segment bytes live changes (one shared block instead of one ``bytes``
    copy per image per process).
    """
    shared_ctx = store.share_image(image.ctx)
    if shared_ctx is image.ctx:
        return image
    return replace(image, ctx=shared_ctx)


class FleetTallySink(Sink):
    """Tally one instance's event stream into the :class:`InstanceTally` counts.

    Request outcomes come from :class:`~repro.telemetry.events.RequestEnd`
    events, skipping startup traces (``__startup__``) so that restart boots
    mid-run do not perturb the workload statistics.  A fatal outcome is a
    server death; a non-fatal attack was survived; a legitimate request was
    served or failed.

    A dropped legitimate request (the scheduler's synthetic ``"dropped"``
    RequestEnd for a request arriving while its instance is down) counts as
    failed service; a dropped attack counts as neither survived nor fatal —
    the attack never ran.  Because drops are ordinary events, re-feeding an
    export through this sink reproduces the live tallies.

    The recovery events extend the same contract:

    * :class:`~repro.telemetry.events.RollbackPerformed` carrying a
      ``request_id`` cancels that attempt's failure count for legitimate
      requests — the supervisor's retry or quarantine is the terminal word
      on the request, so the rolled-back attempt must not count as failed
      service (``server_deaths`` stands: the attempt really did kill the
      server);
    * :class:`~repro.telemetry.events.RequestQuarantined` is the terminal
      disposition of a poison request (tallied separately — neither served
      nor failed, and excluded from the availability denominator);
    * deadline drops (:data:`DEADLINE_OUTCOME`) count as drops *and* feed a
      ``deadline_dropped`` counter, so a wall-clock-budget run is
      interpretable from its export alone.
    """

    def __init__(self) -> None:
        self.legitimate_served = 0
        self.legitimate_failed = 0
        self.attacks_survived = 0
        self.server_deaths = 0
        self.memory_errors = 0
        self.error_sites: Dict[str, int] = {}
        self.legitimate_dropped = 0
        self.attacks_dropped = 0
        self.deadline_dropped = 0
        self.rollbacks = 0
        self.boot_restarts = 0
        self.quarantined = 0
        self.quarantined_attacks = 0
        self.snapshots = 0
        self.faults_injected = 0

    def emit(self, event: object) -> None:
        if isinstance(event, RequestEnd):
            if event.kind == "__startup__":
                return
            if event.outcome in (DROPPED_OUTCOME, DEADLINE_OUTCOME):
                if event.outcome == DEADLINE_OUTCOME:
                    self.deadline_dropped += 1
                if event.is_attack:
                    self.attacks_dropped += 1
                else:
                    self.legitimate_dropped += 1
                return
            self.memory_errors += event.memory_errors
            for site, count in event.error_sites:
                self.error_sites[site] = self.error_sites.get(site, 0) + count
            fatal = event.outcome in _FATAL_VALUES
            if fatal:
                self.server_deaths += 1
            if event.is_attack:
                if not fatal:
                    self.attacks_survived += 1
            elif event.outcome == RequestOutcome.SERVED.value:
                self.legitimate_served += 1
            else:
                self.legitimate_failed += 1
        elif isinstance(event, RollbackPerformed):
            if event.to_boot_image:
                self.boot_restarts += 1
            else:
                self.rollbacks += 1
            if event.request_id is not None and not event.is_attack:
                # Cancel the rolled-back attempt's failure: its RequestEnd
                # already counted legitimate_failed, but retry/quarantine is
                # the terminal disposition for this request.
                self.legitimate_failed -= 1
        elif isinstance(event, RequestQuarantined):
            if event.is_attack:
                self.quarantined_attacks += 1
            else:
                self.quarantined += 1
        elif isinstance(event, SnapshotTaken):
            self.snapshots += 1
        elif isinstance(event, FaultInjected):
            self.faults_injected += 1


# ---------------------------------------------------------------------------
# Specs
# ---------------------------------------------------------------------------


@dataclass
class InstanceSpec:
    """One line of a fleet spec: ``count`` instances of a (server, policy).

    ``weight`` scales each instance's share of the fleet's total requests;
    ``arrival``/``rate`` pick its arrival process
    (:data:`~repro.fleet.traffic.ARRIVALS`); ``attack_every`` mixes the
    server's documented attack into its benign stream at that period
    (0 disables attacks).  ``requests``, when given, is each instance's
    whole request list: it replaces the generated stream (``weight`` and
    ``attack_every`` then do not apply) and takes no share of the fleet's
    ``total_requests``.
    """

    server: str
    policy: str
    count: int = 1
    weight: float = 1.0
    attack_every: int = 10
    arrival: str = "poisson"
    rate: float = 100.0
    config: Optional[Dict[str, object]] = None
    requests: Optional[Sequence[Request]] = None

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError("count must be >= 1")
        if self.weight <= 0:
            raise ValueError("weight must be positive")


@dataclass
class FleetInstance:
    """One expanded instance (an InstanceSpec line contributes ``count`` of these)."""

    index: int
    server: str
    policy: str
    weight: float
    attack_every: int
    arrival: str
    rate: float
    config: Optional[Dict[str, object]] = None
    requests: Optional[Sequence[Request]] = None

    @property
    def group_key(self) -> Tuple[str, str, str]:
        """Instances sharing a key share one booted template image."""
        config = self.config or {}
        return (self.server, self.policy, repr(sorted(config.items())))

    @property
    def label(self) -> str:
        return f"{self.server}/{self.policy}"


def expand_instances(specs: Sequence[InstanceSpec]) -> List[FleetInstance]:
    """Expand spec lines into concrete instances, indexed in spec order.

    The index doubles as the instance's scenario id in telemetry exports, so
    spec order is the export order.
    """
    if not specs:
        raise ValueError("a fleet needs at least one InstanceSpec")
    expanded: List[FleetInstance] = []
    for spec in specs:
        for _ in range(spec.count):
            expanded.append(
                FleetInstance(
                    index=len(expanded),
                    server=spec.server,
                    policy=spec.policy,
                    weight=spec.weight,
                    attack_every=spec.attack_every,
                    arrival=spec.arrival,
                    rate=spec.rate,
                    config=dict(spec.config) if spec.config else None,
                    requests=spec.requests,
                )
            )
    return expanded


# ---------------------------------------------------------------------------
# Tallies
# ---------------------------------------------------------------------------


@dataclass
class InstanceTally:
    """Per-instance counts (the rows of ``repro fleet report``).

    All fields except ``boot_deaths`` and ``restarts`` are derived from the
    instance's event stream, so an export re-derives them exactly; the two
    live-only fields track monitor work no request event can carry.
    """

    index: int
    server: str
    policy: str
    requests: int = 0
    attack_requests: int = 0
    legitimate_served: int = 0
    legitimate_failed: int = 0
    dropped: int = 0
    deadline_dropped: int = 0
    attacks_survived: int = 0
    server_deaths: int = 0
    boot_deaths: int = 0
    restarts: int = 0
    rollbacks: int = 0
    quarantined: int = 0
    quarantined_attacks: int = 0
    snapshots: int = 0
    faults_injected: int = 0
    memory_errors_logged: int = 0
    error_sites: Dict[str, int] = field(default_factory=dict)

    @property
    def legitimate_requests(self) -> int:
        return self.requests - self.attack_requests

    @property
    def availability(self) -> float:
        """Fraction of legitimate requests served (1.0 when none arrived).

        Quarantined requests are excluded from the denominator: the
        supervisor's retry budget established they are poison inputs, and
        the interesting ratio is how the server treated the traffic it could
        have served.
        """
        eligible = self.legitimate_requests - self.quarantined
        if eligible <= 0:
            return 1.0
        return self.legitimate_served / eligible

    @property
    def flawless(self) -> bool:
        """The paper's stability criterion: every legitimate request served,
        and the server never went down (at boot or while serving)."""
        return (
            self.server_deaths == 0
            and self.boot_deaths == 0
            and self.legitimate_failed == 0
        )

    def as_dict(self) -> Dict[str, object]:
        """Order-independent tally dict (what serial == pooled compares)."""
        tally = asdict(self)
        tally["error_sites"] = dict(sorted(self.error_sites.items()))
        return tally


@dataclass
class FleetResult:
    """Outcome of one fleet run (per-instance tallies in instance order)."""

    instances: List[InstanceTally]
    shard_count: int
    workers: int
    seed: int
    boot_fatal: Dict[str, bool]
    wall_seconds: float
    stats: StatsSink
    sqlite_path: Optional[str] = None
    deadline_hit: bool = False

    def _sum(self, field_name: str) -> int:
        return sum(getattr(tally, field_name) for tally in self.instances)

    @property
    def total_requests(self) -> int:
        return self._sum("requests")

    @property
    def attack_requests(self) -> int:
        return self._sum("attack_requests")

    @property
    def legitimate_requests(self) -> int:
        return self.total_requests - self.attack_requests

    @property
    def legitimate_served(self) -> int:
        return self._sum("legitimate_served")

    @property
    def legitimate_failed(self) -> int:
        return self._sum("legitimate_failed")

    @property
    def dropped(self) -> int:
        return self._sum("dropped")

    @property
    def deadline_dropped(self) -> int:
        return self._sum("deadline_dropped")

    @property
    def attacks_survived(self) -> int:
        return self._sum("attacks_survived")

    @property
    def server_deaths(self) -> int:
        return self._sum("server_deaths")

    @property
    def restarts(self) -> int:
        return self._sum("restarts")

    @property
    def rollbacks(self) -> int:
        return self._sum("rollbacks")

    @property
    def quarantined(self) -> int:
        return self._sum("quarantined") + self._sum("quarantined_attacks")

    @property
    def snapshots(self) -> int:
        return self._sum("snapshots")

    @property
    def faults_injected(self) -> int:
        return self._sum("faults_injected")

    @property
    def availability(self) -> float:
        """Fleet-wide fraction of legitimate requests served.

        Like the per-instance ratio, quarantined legitimate requests are
        excluded from the denominator.
        """
        eligible = self.legitimate_requests - self._sum("quarantined")
        if eligible <= 0:
            return 1.0
        return self.legitimate_served / eligible

    @property
    def requests_per_sec(self) -> float:
        """End-to-end fleet throughput (templates + all shards, wall clock)."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.total_requests / self.wall_seconds

    def tally(self) -> List[Dict[str, object]]:
        """Per-instance tally dicts (the serial == pooled invariant)."""
        return [tally.as_dict() for tally in self.instances]


# ---------------------------------------------------------------------------
# The run plan (inherited across the fork)
# ---------------------------------------------------------------------------


@dataclass
class _FleetGroup:
    """One booted template: its image plus whether the boot was fatal.

    ``image`` is None for server classes with ``checkpoint_restarts`` False,
    whose instances boot themselves.
    """

    image: object
    boot_fatal: bool


@dataclass
class _FleetRun:
    """Everything a shard worker needs, inherited across the fork."""

    instances: List[FleetInstance]
    groups: Dict[Tuple[str, str, str], _FleetGroup]
    shard_instances: List[List[FleetInstance]]
    shard_timelines: List[List[FleetRequest]]
    seed: int
    scale: float
    history_limit: Optional[int]
    restart_on_death: bool
    stats_every: int
    spill_dir: Optional[str]
    deadline: Optional[float]
    recovery: Optional[RecoveryPolicy] = None
    fault_rate: float = 0.0
    fault_every: Optional[int] = None
    fault_kinds: Tuple[str, ...] = FAULT_KINDS

    @property
    def inject_faults(self) -> bool:
        return self.fault_rate > 0.0 or self.fault_every is not None

    def build_clone(self, instance: FleetInstance) -> Server:
        from repro.harness.engine import ENGINE

        server = ENGINE.build_server(
            instance.server, instance.policy, config=instance.config,
            plant_attack=True, scale=self.scale,
        )
        server.limit_history(self.history_limit)
        image = self.groups[instance.group_key].image
        if image is None:
            # No image to clone (checkpoint_restarts False): the instance
            # boots itself, and its monitor restarts reboot from scratch.
            _boot_for_service(server, ENGINE.profile(instance.server))
        else:
            server.adopt_image(image)
        return server


@dataclass
class _FleetShardOutcome:
    """One shard's results: its instances' tallies plus the shard aggregates."""

    index: int
    tallies: List[InstanceTally]
    stats: StatsSink
    spill_path: Optional[str]
    deadline_hit: bool
    wall_seconds: float


def split_contiguous(items: Sequence[T], parts: int) -> List[List[T]]:
    """Split ``items`` into ``parts`` contiguous, near-equal chunks.

    Used for the scheduler's shards (groups of instances) and the sharded
    soak's stream chunks.  Boundaries depend only on ``parts`` — never on
    ``workers`` — which is what keeps pooled tallies identical to serial;
    because instances are independent processes, the instance partition
    cannot change any per-instance tally.  ``parts`` is capped at the item
    count, so no chunk is empty (unless ``items`` is).
    """
    if parts <= 0:
        raise ValueError("parts must be positive")
    items = list(items)
    parts = min(parts, max(len(items), 1))
    base, extra = divmod(len(items), parts)
    chunks: List[List[T]] = []
    position = 0
    for index in range(parts):
        size = base + (1 if index < extra else 0)
        chunks.append(items[position:position + size])
        position += size
    return chunks


def _boot_for_service(server: Server, profile: ServerProfile) -> bool:
    """Boot ``server`` and run the profile's session setup; True if the boot
    was fatal.

    The setup requests (e.g. Mutt re-opening the INBOX after the planted
    startup folder was rejected) bring the server to its serving state; no
    tally sink is attached yet, so they are not counted.
    """
    fatal = server.start().fatal
    if not fatal:
        for setup_request in profile.make_follow_ups():
            server.process(setup_request)
    return fatal


# ---------------------------------------------------------------------------
# Shard execution
# ---------------------------------------------------------------------------


def _drop(
    server: Server, fleet_request: FleetRequest, outcome: str = DROPPED_OUTCOME
) -> None:
    """Emit the synthetic dropped RequestEnd for a request that never ran."""
    request = fleet_request.request
    server.ctx.bus.emit(
        RequestEnd(
            request_id=request.request_id,
            kind=request.kind,
            outcome=outcome,
            is_attack=request.is_attack,
        )
    )


def _run_fleet_shard(run: "_FleetRun", index: int) -> _FleetShardOutcome:
    """Drive one shard's instances through its slice of the timeline.

    Every per-shard random source is seeded from ``(seed, shard index)`` —
    the worker that happens to execute the shard contributes nothing — and
    all request content/order was fixed in the parent, so this function is a
    pure function of the run plan.
    """
    import random as _random

    _random.seed(derive_seed(run.seed, "worker", index))
    started = time.perf_counter()
    instances = run.shard_instances[index]
    timeline = run.shard_timelines[index]
    stats = StatsSink(flush_every=run.stats_every)
    spill_path: Optional[str] = None
    sqlite_sink: Optional[SqliteSink] = None
    if run.spill_dir is not None:
        spill_path = os.path.join(run.spill_dir, f"shard-{index:04d}.sqlite")
        sqlite_sink = SqliteSink(spill_path)

    servers: Dict[int, Server] = {}
    sinks: Dict[int, FleetTallySink] = {}
    supervisors: Dict[int, RecoverySupervisor] = {}
    boot_deaths: Dict[int, int] = {}
    restarts: Dict[int, int] = {}
    for instance in instances:
        server = run.build_clone(instance)
        boot_deaths[instance.index] = 0
        restarts[instance.index] = 0
        if not server.alive:
            # Fatal boot image (Pine/Mutt style persistent triggers): the
            # failed boot is a death, the monitor retries once up front, and
            # the request loop retries per request.
            boot_deaths[instance.index] += 1
            if run.restart_on_death:
                server.restart()
                restarts[instance.index] += 1
                if not server.alive:
                    boot_deaths[instance.index] += 1
        sinks[instance.index] = server.add_telemetry_sink(FleetTallySink())
        server.add_telemetry_sink(stats.view(instance.server, instance.policy))
        if sqlite_sink is not None:
            server.add_telemetry_sink(
                sqlite_sink.scoped(dict(server.ctx.bus.scope), instance.index)
            )
        if run.recovery is not None and server.alive:
            # Self-healing mode: every live instance gets a supervisor (its
            # base snapshot is this post-clone state) and, when fault
            # injection is on, a per-*instance* injector — the schedule is a
            # pure function of (seed, instance index), so serial and pooled
            # runs inject identically.
            injector = None
            if run.inject_faults:
                injector = FaultInjector(
                    derive_seed(run.seed, "faults", instance.index),
                    rate=run.fault_rate,
                    every=run.fault_every,
                    kinds=run.fault_kinds,
                )
            supervisors[instance.index] = RecoverySupervisor(
                server, run.recovery, injector=injector
            )
        servers[instance.index] = server

    session = current_session()
    if session is not None and session.scenario_id is not None:
        # Inside an engine scenario (e.g. a ``stability`` spec) every event
        # keeps that scenario's id; only a top-level fleet stamps instances.
        session = None
    deadline_hit = False

    def dispatch(server: Server, fleet_request: FleetRequest) -> None:
        nonlocal deadline_hit
        if deadline_hit:
            _drop(server, fleet_request, DEADLINE_OUTCOME)
            return
        if run.deadline is not None and time.monotonic() > run.deadline:
            # Budget exhausted: the rest of the timeline is dropped through
            # the event stream, so exports stay exact even in wall-clock mode.
            deadline_hit = True
            _drop(server, fleet_request, DEADLINE_OUTCOME)
            return
        supervisor = supervisors.get(fleet_request.instance)
        if supervisor is not None:
            # The supervisor owns the recovery path: the server is alive
            # when submit returns (rollback, retry, quarantine, or
            # boot-image degradation all end with a serving instance).
            supervisor.submit(fleet_request.request)
            return
        if not server.alive:
            if run.restart_on_death:
                server.restart()
                restarts[fleet_request.instance] += 1
                # Monitor restarts also flow through the event stream (boot
                # retries at clone time stay live-only: no sink is attached
                # yet), so exports can count restart work.
                server.ctx.bus.emit(RollbackPerformed(
                    snapshot_index=0, request_id=None, to_boot_image=True,
                ))
                if not server.alive:
                    boot_deaths[fleet_request.instance] += 1
            if not server.alive:
                _drop(server, fleet_request)
                return
        server.process(fleet_request.request)

    # Dispatch in batches: the timeline is walked in order, but the maximal
    # consecutive run of requests for one instance — the stretch between two
    # virtual-time barriers, where the schedule stays on one process — pays
    # the server lookup and the session scenario scope once, not per request.
    # Request order (and hence every tally) is bit-identical to the
    # one-request-at-a-time loop this replaces.
    position = 0
    total = len(timeline)
    while position < total:
        instance_index = timeline[position].instance
        end = position + 1
        while end < total and timeline[end].instance == instance_index:
            end += 1
        server = servers[instance_index]
        if session is not None:
            # Stamp each instance's events with its index as the scenario id,
            # so JSONL session exports merge in instance order like the
            # engine's scenarios do.
            with session.scenario_scope(instance_index):
                for offset in range(position, end):
                    dispatch(server, timeline[offset])
        else:
            for offset in range(position, end):
                dispatch(server, timeline[offset])
        position = end

    tallies: List[InstanceTally] = []
    for instance in instances:
        server = servers[instance.index]
        server.stop()
        sink = sinks[instance.index]
        instance_requests = [
            fr for fr in timeline if fr.instance == instance.index
        ]
        supervisor = supervisors.get(instance.index)
        tallies.append(
            InstanceTally(
                index=instance.index,
                server=instance.server,
                policy=instance.policy,
                requests=len(instance_requests),
                attack_requests=sum(
                    1 for fr in instance_requests if fr.request.is_attack
                ),
                legitimate_served=sink.legitimate_served,
                legitimate_failed=sink.legitimate_failed + sink.legitimate_dropped,
                dropped=sink.legitimate_dropped + sink.attacks_dropped,
                deadline_dropped=sink.deadline_dropped,
                attacks_survived=sink.attacks_survived,
                server_deaths=sink.server_deaths,
                boot_deaths=boot_deaths[instance.index],
                restarts=restarts[instance.index]
                + (supervisor.boot_restarts if supervisor is not None else 0),
                rollbacks=sink.rollbacks,
                quarantined=sink.quarantined,
                quarantined_attacks=sink.quarantined_attacks,
                snapshots=sink.snapshots,
                faults_injected=sink.faults_injected,
                memory_errors_logged=sink.memory_errors,
                error_sites=dict(sink.error_sites),
            )
        )
    stats.flush()
    if sqlite_sink is not None:
        sqlite_sink.close()
    return _FleetShardOutcome(
        index=index,
        tallies=tallies,
        stats=stats,
        spill_path=spill_path,
        deadline_hit=deadline_hit,
        wall_seconds=time.perf_counter() - started,
    )


def _pool_run_fleet_shard(index: int) -> _FleetShardOutcome:
    """Entry point inside a forked worker (the plan travels via the fork)."""
    return _run_fleet_shard(_POOL_FLEET, index)


# ---------------------------------------------------------------------------
# The driver
# ---------------------------------------------------------------------------


def run_fleet(
    specs: Sequence[InstanceSpec],
    total_requests: int = 2000,
    seed: int = 20040101,
    workers: Optional[int] = None,
    shards: Optional[int] = None,
    scale: float = 0.25,
    restart_on_death: bool = True,
    history_limit: Optional[int] = 256,
    allow_unbounded_history: bool = False,
    sqlite_path: Optional[str] = None,
    stats_every: int = 10_000,
    max_seconds: Optional[float] = None,
    recovery: Optional[RecoveryPolicy] = None,
    fault_rate: float = 0.0,
    fault_every: Optional[int] = None,
    fault_kinds: Sequence[str] = FAULT_KINDS,
) -> FleetResult:
    """Run a fleet soak: boot one template per group, clone, schedule, tally.

    ``shards`` defaults to the instance count (one shard per instance —
    maximal parallelism); any smaller value groups contiguous instances.
    ``workers`` of None/0/1 runs the shards serially through the *same*
    shard function, so pooled runs are tally-identical to serial ones by
    construction.  ``sqlite_path`` streams every event to per-shard SQLite
    spill databases merged (in shard order) into one database at that path.
    ``max_seconds`` is a wall-clock budget: past it, remaining requests are
    dropped through the event stream (tallies then depend on machine speed —
    use the request-count budget for reproducible runs).

    ``recovery`` switches every live instance into self-healing mode: a
    :class:`~repro.recovery.supervisor.RecoverySupervisor` per instance
    replaces boot-image restarts with last-good-snapshot rollbacks, bounded
    retries, and poison-request quarantine.  ``fault_rate``/``fault_every``
    add a per-instance seeded
    :class:`~repro.recovery.faults.FaultInjector` (kinds drawn from
    ``fault_kinds``); fault injection implies supervision, so a default
    :class:`~repro.recovery.supervisor.RecoveryPolicy` is used when faults
    are requested without an explicit policy.

    The per-request history of every instance is bounded (``history_limit``),
    and — because a fleet is the 10^6-request path — an unbounded history is
    refused unless ``allow_unbounded_history=True`` is passed explicitly.
    """
    global _POOL_FLEET
    if recovery is None and (fault_rate > 0.0 or fault_every is not None):
        recovery = RecoveryPolicy()
    history_limit = bounded_history_limit(
        history_limit, allow_unbounded=allow_unbounded_history, harness="run_fleet"
    )
    instances = expand_instances(specs)
    model = TrafficModel(
        [
            InstanceTraffic(
                server=instance.server,
                arrival=make_arrival(instance.arrival, instance.rate),
                weight=instance.weight,
                attack_every=instance.attack_every,
                requests=instance.requests,
            )
            for instance in instances
        ],
        total_requests=total_requests,
        seed=seed,
    )
    timeline = model.timeline()

    shard_count = len(instances) if shards is None else shards
    shard_groups = split_contiguous(instances, shard_count)
    shard_of = {
        instance.index: shard_index
        for shard_index, group in enumerate(shard_groups)
        for instance in group
    }
    shard_timelines: List[List[FleetRequest]] = [[] for _ in shard_groups]
    for fleet_request in timeline:
        shard_timelines[shard_of[fleet_request.instance]].append(fleet_request)

    started = time.perf_counter()
    from repro.harness.engine import ENGINE

    global _LAST_IMAGE_STORE
    store = SharedImageStore()
    _LAST_IMAGE_STORE = store
    groups: Dict[Tuple[str, str, str], _FleetGroup] = {}
    boot_fatal: Dict[str, bool] = {}
    for instance in instances:
        key = instance.group_key
        if key in groups:
            continue
        template = ENGINE.build_server(
            instance.server, instance.policy, config=instance.config,
            plant_attack=True, scale=scale,
        )
        template.limit_history(history_limit)
        fatal = _boot_for_service(template, ENGINE.profile(instance.server))
        image = None
        if template.checkpoint_restarts:
            # Re-checkpoint after session setup: every clone AND every
            # monitor restart restores the serving state, paid once per
            # group.  One shared copy of the template bytes per group:
            # clones (serial or across the fork) restore straight out of the
            # shared block.
            image = template.boot_image if fatal else template.recheckpoint()
            image = _share_process_image(store, image)
        groups[key] = _FleetGroup(image=image, boot_fatal=fatal)
        boot_fatal[instance.label] = fatal
        template.stop()

    spill_dir: Optional[str] = None
    if sqlite_path is not None:
        spill_dir = sqlite_path + ".spills"
        os.makedirs(spill_dir, exist_ok=True)

    run = _FleetRun(
        instances=instances,
        groups=groups,
        shard_instances=shard_groups,
        shard_timelines=shard_timelines,
        seed=seed,
        scale=scale,
        history_limit=history_limit,
        restart_on_death=restart_on_death,
        stats_every=stats_every,
        spill_dir=spill_dir,
        deadline=(time.monotonic() + max_seconds) if max_seconds is not None else None,
        recovery=recovery,
        fault_rate=fault_rate,
        fault_every=fault_every,
        fault_kinds=tuple(fault_kinds),
    )

    count = 0 if workers is None else int(workers)
    outcomes: List[_FleetShardOutcome] = []
    try:
        if count > 1 and len(shard_groups) > 1:
            try:
                context = multiprocessing.get_context("fork")
            except ValueError:
                context = None
            if context is not None:
                _POOL_FLEET = run
                try:
                    with ProcessPoolExecutor(
                        max_workers=min(count, len(shard_groups)), mp_context=context
                    ) as pool:
                        outcomes = list(
                            pool.map(_pool_run_fleet_shard, range(len(shard_groups)))
                        )
                finally:
                    _POOL_FLEET = None
        if not outcomes:
            outcomes = [
                _run_fleet_shard(run, index) for index in range(len(shard_groups))
            ]
    finally:
        # Release the shared template images whether the run finished or a
        # worker died mid-run: the parent created the /dev/shm segments, so
        # the parent closes and unlinks them (children only ever inherited
        # the mapping).  Nothing restores from the images past this point.
        store.close()

    stats = StatsSink(flush_every=0)
    tallies: List[InstanceTally] = []
    deadline_hit = False
    for outcome in outcomes:
        tallies.extend(outcome.tallies)
        stats.merge(outcome.stats)
        deadline_hit = deadline_hit or outcome.deadline_hit
    tallies.sort(key=lambda tally: tally.index)

    if sqlite_path is not None:
        spills = [
            outcome.spill_path for outcome in outcomes
            if outcome.spill_path is not None
        ]
        merge_sqlite(spills, sqlite_path)
        shutil.rmtree(spill_dir, ignore_errors=True)

    return FleetResult(
        instances=tallies,
        shard_count=len(shard_groups),
        workers=count,
        seed=seed,
        boot_fatal=boot_fatal,
        wall_seconds=time.perf_counter() - started,
        stats=stats,
        sqlite_path=sqlite_path,
        deadline_hit=deadline_hit,
    )


__all__ = [
    "DEADLINE_OUTCOME",
    "DROPPED_OUTCOME",
    "FleetInstance",
    "FleetResult",
    "FleetTallySink",
    "InstanceSpec",
    "InstanceTally",
    "expand_instances",
    "run_fleet",
    "split_contiguous",
]
