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

* one **template** is booted per distinct ``(server, policy, config)`` group,
  runs its session set-up, and has its serving
  :class:`~repro.servers.base.ProcessImage` captured once, straight into a
  :class:`~repro.memory.shared_image.SharedImageStore` (only the touched
  blocks are copied); every instance of the group is then cloned via
  :meth:`~repro.servers.base.Server.adopt_image` (boot cost paid once per
  group, not per instance), and its supervisor starts any snapshot chain
  from that adopted image instead of a fresh full checkpoint;
* every instance runs under one
  :class:`~repro.recovery.supervisor.RecoverySupervisor`, the one restart
  path.  Without ``recovery`` it is the paper's terminate-and-restart
  monitor: a dead instance is restored O(dirty-bytes) from its image before
  the next request.  With ``recovery=RecoveryPolicy(...)`` it adds
  incremental snapshots, rollback + retry on fatal faults and poison-request
  quarantine, optionally driven by per-instance seeded fault injection;
* instances are partitioned into ``shards`` **contiguous groups of
  instances** and fanned over the same forked pool.  Instances are
  independent processes, so per-instance tallies cannot observe the
  partition: shard boundaries depend only on ``shards`` (never ``workers``),
  the timeline is generated in the parent, and each worker's RNG is seeded
  from ``(seed, shard index)`` — pooled runs are bit-identical to serial.

Requests that arrive while their instance is down past its restart (or
after the wall-clock budget expires) are **dropped**: a synthetic
:class:`~repro.telemetry.events.RequestEnd` with outcome ``"dropped"`` is
emitted on the instance's bus.  That one decision is what makes ``repro
fleet report`` exact.  Each instance has one live sink,
:class:`FleetTallySink`, attached before the clone boots, and the one export
path is a :class:`~repro.telemetry.session.TelemetrySession` (JSONL spills
merged in scenario order).  Both see the *same* event stream — boots,
restarts (:class:`~repro.telemetry.events.RollbackPerformed` with
``to_boot_image=True``), rollbacks, quarantines, injected faults and drops —
so counts re-derived from an export equal the live ones by construction
(both come from :meth:`FleetTallySink.tally`).  Under a session every fleet
reserves a block of scenario ids, one per instance, so several fleets in one
session (the stability table, the per-build soaks) export as distinct
instances.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
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
from repro.recovery.supervisor import DROPPED_OUTCOME, RecoveryPolicy, RecoverySupervisor
from repro.servers.base import ProcessImage, Request
from repro.telemetry.events import (
    FaultInjected,
    RequestEnd,
    RequestQuarantined,
    RollbackPerformed,
    SnapshotTaken,
)
from repro.telemetry.session import current_session
from repro.telemetry.sinks import Sink

#: Outcome stamped on requests dropped because the wall-clock budget
#: (``max_seconds``) expired.  A distinct outcome so an export alone answers
#: "did this run hit its deadline, and how much of the tail was cut?".
DEADLINE_OUTCOME = "dropped-deadline"

T = TypeVar("T")

#: Outcome strings carried by RequestEnd events after which the process is gone.
_FATAL_VALUES = frozenset(outcome.value for outcome in FATAL_OUTCOMES)


class FleetTallySink(Sink):
    """Tally one instance's event stream into an :class:`InstanceTally`.

    Request outcomes come from :class:`~repro.telemetry.events.RequestEnd`
    events.  A fatal outcome is a server death; a non-fatal attack was
    survived; a legitimate request was served or failed.  Startup traces
    (``__startup__``: the clone's boot and every restart's) are no requests,
    so they only count a death when the boot was fatal.

    A dropped legitimate request (the supervisor's synthetic ``"dropped"``
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

    The request count follows the same terminal-disposition rule: every
    non-startup ``RequestEnd`` (drops included) and every
    ``RequestQuarantined`` adds one, and a ``RollbackPerformed`` with a
    request id takes its attempt back out.
    """

    def __init__(self) -> None:
        self._tally = InstanceTally(index=0, server="", policy="")

    def _count_request(self, is_attack: bool, step: int) -> None:
        self._tally.requests += step
        if is_attack:
            self._tally.attack_requests += step

    def emit(self, event: object) -> None:
        tally = self._tally
        if isinstance(event, RequestEnd):
            if event.kind == "__startup__":
                if event.outcome in _FATAL_VALUES:
                    tally.server_deaths += 1
                return
            self._count_request(event.is_attack, 1)
            if event.outcome in (DROPPED_OUTCOME, DEADLINE_OUTCOME):
                tally.dropped += 1
                if event.outcome == DEADLINE_OUTCOME:
                    tally.deadline_dropped += 1
                if not event.is_attack:
                    tally.legitimate_failed += 1
                return
            tally.memory_errors_logged += event.memory_errors
            for site, count in event.error_sites:
                tally.error_sites[site] = tally.error_sites.get(site, 0) + count
            fatal = event.outcome in _FATAL_VALUES
            if fatal:
                tally.server_deaths += 1
            if event.is_attack:
                if not fatal:
                    tally.attacks_survived += 1
            elif event.outcome == RequestOutcome.SERVED.value:
                tally.legitimate_served += 1
            else:
                tally.legitimate_failed += 1
        elif isinstance(event, RollbackPerformed):
            if event.to_boot_image:
                tally.restarts += 1
            else:
                tally.rollbacks += 1
            if event.request_id is not None:
                # A rolled-back attempt is not a request, and a legitimate
                # one's failure is cancelled: its RequestEnd already counted
                # both, but retry/quarantine is the terminal disposition.
                self._count_request(event.is_attack, -1)
                if not event.is_attack:
                    tally.legitimate_failed -= 1
        elif isinstance(event, RequestQuarantined):
            self._count_request(event.is_attack, 1)
            if event.is_attack:
                tally.quarantined_attacks += 1
            else:
                tally.quarantined += 1
        elif isinstance(event, SnapshotTaken):
            tally.snapshots += 1
        elif isinstance(event, FaultInjected):
            tally.faults_injected += 1

    def tally(self, index: int, server: str, policy: str) -> InstanceTally:
        """A copy of the stream-derived tally, labelled as instance ``index``."""
        return replace(
            self._tally, index=index, server=server, policy=policy,
            error_sites=dict(self._tally.error_sites),
        )


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

    The index, offset by the fleet's reserved block of scenario ids, is the
    instance's scenario id in a session export, so spec order is the export
    order.
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

    Every count comes from the instance's event stream
    (:meth:`FleetTallySink.tally`), so an export re-derives it exactly.
    ``server_deaths`` counts every death, fatal boots and restarts included;
    ``restarts`` counts boot-image restarts.
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
        return self.server_deaths == 0 and self.legitimate_failed == 0

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
class _FleetRun:
    """Everything a shard worker needs, inherited across the fork."""

    instances: List[FleetInstance]
    #: One (shared-memory) serving image per group; fatal boots included.
    images: Dict[Tuple[str, str, str], ProcessImage]
    shard_instances: List[List[FleetInstance]]
    shard_timelines: List[List[FleetRequest]]
    seed: int
    scale: float
    deadline: Optional[float]
    recovery: Optional[RecoveryPolicy] = None
    fault_rate: float = 0.0
    fault_every: Optional[int] = None
    fault_kinds: Tuple[str, ...] = FAULT_KINDS
    #: First of the scenario ids reserved for this fleet's instances in the
    #: active telemetry session (instance *i* stamps ``scenario_base + i``);
    #: None when no session is active.
    scenario_base: Optional[int] = None

    def supervise_clone(
        self, instance: FleetInstance
    ) -> Tuple[RecoverySupervisor, FleetTallySink]:
        """Clone ``instance`` from its group image, under its tally sink and
        supervisor.

        The sink is attached before the clone adopts the image, so the stream
        carries the clone's boot (a fatal one is a death) and the
        supervisor's construction-time restart of a boot-fatal clone.  When
        fault injection is on, the injector is per *instance*: its schedule
        is a pure function of (seed, instance index), so serial and pooled
        runs inject identically.
        """
        from repro.harness.engine import ENGINE

        server = ENGINE.build_server(
            instance.server, instance.policy, config=instance.config,
            plant_attack=True, scale=self.scale,
        )
        sink = server.add_telemetry_sink(FleetTallySink())
        server.adopt_image(self.images[instance.group_key])
        injector = None
        if self.fault_rate > 0.0 or self.fault_every is not None:
            injector = FaultInjector(
                derive_seed(self.seed, "faults", instance.index),
                rate=self.fault_rate,
                every=self.fault_every,
                kinds=self.fault_kinds,
            )
        return RecoverySupervisor(server, self.recovery, injector=injector), sink


@dataclass
class _FleetShardOutcome:
    """One shard's results: its instances' tallies and whether it hit the deadline."""

    index: int
    tallies: List[InstanceTally]
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


# ---------------------------------------------------------------------------
# Shard execution
# ---------------------------------------------------------------------------


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
    session = current_session() if run.scenario_base is not None else None

    def scenario(instance_index: int):
        # Stamp each instance's events with its reserved scenario id, so
        # JSONL session exports merge in instance order and several fleets
        # in one session never share an id.
        if session is None:
            return nullcontext()
        return session.scenario_scope(run.scenario_base + instance_index)

    clones: Dict[int, Tuple[RecoverySupervisor, FleetTallySink]] = {}
    for instance in instances:
        with scenario(instance.index):
            clones[instance.index] = run.supervise_clone(instance)

    deadline_hit = False

    def dispatch(supervisor: RecoverySupervisor, fleet_request: FleetRequest) -> None:
        nonlocal deadline_hit
        if not deadline_hit and run.deadline is not None and time.monotonic() > run.deadline:
            deadline_hit = True
        if deadline_hit:
            # Budget exhausted: the rest of the timeline is dropped through
            # the event stream, so exports stay exact even in wall-clock mode.
            supervisor.drop(fleet_request.request, DEADLINE_OUTCOME)
            return
        supervisor.submit(fleet_request.request)

    # Dispatch in batches: the timeline is walked in order, but the maximal
    # consecutive run of requests for one instance — the stretch between two
    # virtual-time barriers, where the schedule stays on one process — pays
    # the supervisor lookup and the session scenario scope once, not per
    # request.  Request order (and hence every tally) is bit-identical to a
    # one-request-at-a-time loop.
    position = 0
    total = len(timeline)
    while position < total:
        instance_index = timeline[position].instance
        end = position + 1
        while end < total and timeline[end].instance == instance_index:
            end += 1
        supervisor = clones[instance_index][0]
        with scenario(instance_index):
            for offset in range(position, end):
                dispatch(supervisor, timeline[offset])
        position = end

    tallies: List[InstanceTally] = []
    for instance in instances:
        supervisor, sink = clones[instance.index]
        supervisor.server.stop()
        tallies.append(sink.tally(instance.index, instance.server, instance.policy))
    return _FleetShardOutcome(
        index=index,
        tallies=tallies,
        deadline_hit=deadline_hit,
        wall_seconds=time.perf_counter() - started,
    )


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
    max_seconds: Optional[float] = None,
    recovery: Optional[RecoveryPolicy] = None,
    fault_rate: float = 0.0,
    fault_every: Optional[int] = None,
    fault_kinds: Sequence[str] = FAULT_KINDS,
) -> FleetResult:
    """Run a fleet soak: boot one template per group, clone, schedule, tally.

    Each template boots, runs its profile's follow-up requests as session
    set-up, and is captured once into the run's
    :class:`~repro.memory.shared_image.SharedImageStore` (plain ``bytes``
    when shared memory is unavailable).  No full copy of a segment is made:
    the capture writes the image's touched blocks into the shared block, and
    a supervised clone's snapshot 0 is the image it adopted.

    ``shards`` defaults to the instance count (one shard per instance —
    maximal parallelism); any smaller value groups contiguous instances.
    ``workers`` of None/0/1 runs the shards serially through the *same*
    shard function, so pooled runs are tally-identical to serial ones by
    construction.  To export the run, call it inside a
    :class:`~repro.telemetry.session.TelemetrySession`: each instance stamps
    its own scenario id, so ``repro fleet report`` rebuilds the tallies from
    the merged JSONL.  ``max_seconds`` is a wall-clock budget: past it,
    remaining requests are dropped through the event stream (tallies then
    depend on machine speed — use the request-count budget for reproducible
    runs).

    Every instance runs under a
    :class:`~repro.recovery.supervisor.RecoverySupervisor`.  Without
    ``recovery`` it restarts a dead instance from its image before the next
    request; ``recovery`` switches every instance into self-healing mode,
    replacing those restarts with last-good-snapshot rollbacks, bounded
    retries, and poison-request quarantine.  ``fault_rate``/``fault_every``
    add a per-instance seeded
    :class:`~repro.recovery.faults.FaultInjector` (kinds drawn from
    ``fault_kinds``); fault injection implies a policy, so a default
    :class:`~repro.recovery.supervisor.RecoveryPolicy` is used when faults
    are requested without an explicit one.

    No instance keeps per-request results: the tallies come from each
    instance's event stream alone, so a 10^6-request run holds only the
    servers' own state.
    """
    if recovery is None and (fault_rate > 0.0 or fault_every is not None):
        recovery = RecoveryPolicy()
    instances = expand_instances(specs)
    session = current_session()
    # Reserved in the parent, before any fork: every worker stamps the same
    # ids, and a later fleet in the same session continues past this block.
    scenario_base = session.reserve_scenarios(len(instances)) if session is not None else None
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
    from repro.harness.engine import ENGINE, fork_map

    store = SharedImageStore()
    images: Dict[Tuple[str, str, str], ProcessImage] = {}
    boot_fatal: Dict[str, bool] = {}
    for instance in instances:
        key = instance.group_key
        if key in images:
            continue
        template = ENGINE.build_server(
            instance.server, instance.policy, config=instance.config,
            plant_attack=True, scale=scale,
        )
        # Session setup (e.g. Mutt re-opening the INBOX after the planted
        # startup folder was rejected) brings the template to its serving
        # state before the one capture, so that is the image every clone AND
        # every restart restores.  The capture writes the touched blocks
        # straight into the shared block: clones (serial or across the fork)
        # restore out of one shared copy per group.
        fatal = template.start(
            setup=ENGINE.profile(instance.server).make_follow_ups(), store=store
        ).fatal
        images[key] = template.boot_image
        boot_fatal[instance.label] = fatal
        template.stop()

    run = _FleetRun(
        instances=instances,
        images=images,
        shard_instances=shard_groups,
        shard_timelines=shard_timelines,
        seed=seed,
        scale=scale,
        deadline=(time.monotonic() + max_seconds) if max_seconds is not None else None,
        recovery=recovery,
        fault_rate=fault_rate,
        fault_every=fault_every,
        fault_kinds=tuple(fault_kinds),
        scenario_base=scenario_base,
    )

    count = 0 if workers is None else int(workers)
    try:
        outcomes = fork_map(_run_fleet_shard, run, len(shard_groups), count)
    finally:
        # Release the shared template images whether the run finished or a
        # worker died mid-run: the parent created the /dev/shm segments, so
        # the parent closes and unlinks them (children only ever inherited
        # the mapping).  Nothing restores from the images past this point.
        store.close()

    tallies: List[InstanceTally] = []
    deadline_hit = False
    for outcome in outcomes:
        tallies.extend(outcome.tallies)
        deadline_hit = deadline_hit or outcome.deadline_hit
    tallies.sort(key=lambda tally: tally.index)

    return FleetResult(
        instances=tallies,
        shard_count=len(shard_groups),
        workers=count,
        seed=seed,
        boot_fatal=boot_fatal,
        wall_seconds=time.perf_counter() - started,
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
