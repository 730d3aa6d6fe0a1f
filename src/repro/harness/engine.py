"""The experiment engine: runs any (profile, policy, workload) combination.

This module is the declarative facade the rest of the harness is built on.
A :class:`ScenarioSpec` names *what* to run — a registered
:class:`~repro.servers.profile.ServerProfile`, a build policy, a workload
shape, and sizing knobs — and :class:`ExperimentEngine` knows *how* to run
every workload shape against any profile:

``performance``
    The benign request-time measurement of Figures 2-6: each of the profile's
    figure rows measured under a baseline build and a treatment build, with
    the slowdown ratio.
``attack``
    The security/resilience scenario of §4.2.2-§4.6.2: boot with the
    documented error trigger planted, deliver the attack, then check that
    legitimate follow-up requests are still served.

The long-stream experiments are not engine shapes: the stability runs and
the sharded soak call
:func:`~repro.harness.stability.run_stability_experiment`, and §4.3.2's
throughput under attack calls
:func:`~repro.harness.throughput.run_throughput_experiment`.

New servers participate in every shape by registering a profile (zero engine
edits).  The module-level :data:`ENGINE` is the engine the experiment
registry runs.  :func:`fork_map` is the fork fan-out that both
:meth:`ExperimentEngine.run_many` and the fleet scheduler's shards use.
"""

from __future__ import annotations

import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.policies import POLICY_NAMES
from repro.errors import RequestOutcome, RequestResult
from repro.harness.timing import TimingResult, measure_paired, slowdown
from repro.servers.base import Server
from repro.servers.profile import ServerProfile, get_profile, profile_names
from repro.telemetry.events import ScenarioEnd, ScenarioStart
from repro.telemetry.session import current_session

__all__ = [
    "ScenarioSpec",
    "ExperimentEngine",
    "FigureRow",
    "ScenarioResult",
    "SecurityCell",
    "ENGINE",
    "fork_map",
]


#: The ``(task, plan)`` a :func:`fork_map` pool's workers run.  Set immediately
#: before the pool is created and cleared after; workers inherit it across the
#: fork, so the plan (an engine with its specs, a fleet run with its shared
#: images) is never pickled.
_FORK_PLAN: Optional[tuple] = None


def _fork_call(index: int) -> object:
    """Entry point inside a forked worker: run item ``index`` of the plan."""
    task, plan = _FORK_PLAN
    return task(plan, index)


def fork_map(
    task: Callable[[object, int], object], plan: object, count: int, workers: Optional[int]
) -> List[object]:
    """``[task(plan, i) for i in range(count)]``, fanned over forked workers.

    With ``workers`` above 1 and more than one item, the items run in a
    forked process pool of ``min(workers, count)`` processes; otherwise — and
    where fork is unavailable, e.g. on Windows — they run serially in-process
    through the same ``task``, so both paths do the same work.  Results come
    back in index order.
    """
    global _FORK_PLAN
    if workers is not None and workers > 1 and count > 1:
        try:
            context = multiprocessing.get_context("fork")
        except ValueError:
            context = None
        if context is not None:
            _FORK_PLAN = (task, plan)
            try:
                with ProcessPoolExecutor(
                    max_workers=min(workers, count), mp_context=context
                ) as pool:
                    return list(pool.map(_fork_call, range(count)))
            finally:
                _FORK_PLAN = None
    return [task(plan, index) for index in range(count)]


def _run_timed(plan: tuple, index: int) -> Tuple[object, float]:
    """Run spec ``index`` of an ``(engine, specs)`` plan, returning (result,
    wall-clock seconds).

    The spec index rides along as the scenario id so that telemetry exported
    from different workers merges back in spec order.
    """
    engine, specs = plan
    started = time.perf_counter()
    result = engine.run(specs[index], scenario_id=index)
    return result, time.perf_counter() - started


# ---------------------------------------------------------------------------
# Scenario specification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScenarioSpec:
    """A declarative description of one experiment run.

    Only ``server`` is mandatory.  The defaults are those of the performance
    figures (full-size workload, twenty repetitions, Standard vs Failure
    Oblivious); the attack-shaped experiments conventionally pass
    ``scale=0.25``.
    """

    #: Registered profile name (e.g. ``"pine"``).
    server: str
    #: Treatment build for the run (the paper's contribution by default).
    policy: str = "failure-oblivious"
    #: Workload shape: ``"performance"`` or ``"attack"``.
    workload: str = "performance"
    #: Workload scale factor (data volumes relative to the defaults).
    scale: float = 1.0
    #: Baseline build the performance shape compares against.
    baseline_policy: str = "standard"
    #: Figure rows to measure (None means all of the profile's rows).
    kinds: Optional[Tuple[str, ...]] = None
    #: Measured repetitions per figure cell (the paper uses at least twenty).
    repetitions: int = 20
    #: Extra configuration merged over the profile's benchmark configuration.
    config: Optional[Mapping[str, object]] = None

    def with_(self, **changes: object) -> "ScenarioSpec":
        """A copy of the spec with the given fields replaced."""
        return replace(self, **changes)


# ---------------------------------------------------------------------------
# Result shapes
# ---------------------------------------------------------------------------


@dataclass
class FigureRow:
    """One row of a request-time figure: a request kind under two builds."""

    server: str
    request_kind: str
    baseline: TimingResult
    failure_oblivious: TimingResult

    @property
    def slowdown(self) -> float:
        """Failure-oblivious time divided by baseline time (the paper's column)."""
        return slowdown(self.baseline, self.failure_oblivious)


@dataclass
class ScenarioResult:
    """Outcome of one attack scenario (one server under one policy)."""

    server: str
    policy: str
    boot: RequestResult
    attack: Optional[RequestResult]
    follow_ups: List[RequestResult] = field(default_factory=list)

    @property
    def survived_attack(self) -> bool:
        """True if the server was still alive after boot and the attack."""
        if self.boot.fatal:
            return False
        return self.attack is None or not self.attack.fatal

    @property
    def continued_service(self) -> bool:
        """True if every legitimate follow-up request was served successfully."""
        return bool(self.follow_ups) and all(
            result.outcome is RequestOutcome.SERVED for result in self.follow_ups
        )

    @property
    def vulnerable(self) -> bool:
        """True if the attack crashed, exploited, or hung the server."""
        outcomes = [self.boot.outcome]
        if self.attack is not None:
            outcomes.append(self.attack.outcome)
        return any(
            outcome in (RequestOutcome.CRASHED, RequestOutcome.EXPLOITED, RequestOutcome.HUNG)
            for outcome in outcomes
        )

    @property
    def memory_errors_logged(self) -> int:
        """Memory errors recorded across boot, attack, and follow-ups."""
        total = len(self.boot.memory_errors)
        if self.attack is not None:
            total += len(self.attack.memory_errors)
        return total + sum(len(result.memory_errors) for result in self.follow_ups)


@dataclass
class SecurityCell:
    """One cell of the security matrix: a compact view of a scenario result."""

    server: str
    policy: str
    boot_outcome: RequestOutcome
    attack_outcome: Optional[RequestOutcome]
    continued_service: bool
    memory_errors_logged: int

    @classmethod
    def from_scenario(cls, scenario: ScenarioResult) -> "SecurityCell":
        """Condense a full scenario result into a matrix cell."""
        return cls(
            server=scenario.server,
            policy=scenario.policy,
            boot_outcome=scenario.boot.outcome,
            attack_outcome=scenario.attack.outcome if scenario.attack else None,
            continued_service=scenario.continued_service,
            memory_errors_logged=scenario.memory_errors_logged,
        )


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------


class ExperimentEngine:
    """Runs declarative :class:`ScenarioSpec`\\ s against registered profiles.

    The engine holds no per-server knowledge: everything server-specific comes
    from the :class:`~repro.servers.profile.ServerProfile` registry, so a new
    server participates in every workload shape the moment its profile is
    registered.
    """

    # -- registry access -----------------------------------------------------------

    def profile(self, server_name: str) -> ServerProfile:
        """Look up a profile by name (KeyError with the known names otherwise)."""
        return get_profile(server_name)

    def profile_names(self) -> List[str]:
        """Sorted names of the profiles this engine can run."""
        return profile_names()

    # -- server construction -------------------------------------------------------

    def build_server(
        self,
        server_name: str,
        policy_name: str,
        config: Optional[Mapping[str, object]] = None,
        plant_attack: bool = False,
        scale: float = 1.0,
    ) -> Server:
        """Construct (but do not start) a server under the named policy.

        ``plant_attack`` merges in the profile's attack configuration (the
        poisoned mailbox, the vulnerable rewrite rule, ...); ``config`` is
        merged last so explicit overrides always win.
        """
        profile = self.profile(server_name)
        if policy_name not in POLICY_NAMES:
            raise KeyError(
                f"unknown policy {policy_name!r}; expected one of {sorted(POLICY_NAMES)}"
            )
        merged: Dict[str, object] = profile.build_config(scale)
        if plant_attack:
            merged.update(profile.make_attack_config())
        if config:
            merged.update(config)
        policy_cls = POLICY_NAMES[policy_name]
        return profile.server_cls(policy_cls, config=merged)

    # -- dispatch ------------------------------------------------------------------

    def run(self, spec: ScenarioSpec, scenario_id: Optional[int] = None) -> object:
        """Run one scenario, dispatching on its workload shape.

        When a telemetry session is active the run is bracketed with
        :class:`~repro.telemetry.events.ScenarioStart` /
        :class:`~repro.telemetry.events.ScenarioEnd` events and every event
        emitted in between is stamped with the scenario id (``scenario_id``
        when given — ``run_many`` passes the spec index — otherwise assigned
        by the session).
        """
        if spec.workload == "performance":
            runner = self._run_performance
        elif spec.workload == "attack":
            runner = self._run_attack
        else:
            raise KeyError(
                f"unknown workload {spec.workload!r}; expected one of ['attack', 'performance']"
            )
        session = current_session()
        if session is None:
            return runner(spec)
        sid = session.begin_scenario(scenario_id)
        session.write(
            ScenarioStart(scenario_id=sid, server=spec.server, policy=spec.policy,
                          workload=spec.workload, scale=spec.scale)
        )
        started = time.perf_counter()
        try:
            return runner(spec)
        finally:
            session.write(ScenarioEnd(scenario_id=sid, seconds=time.perf_counter() - started))
            session.end_scenario()

    def run_many(
        self,
        specs: Sequence[ScenarioSpec],
        workers: Optional[int] = None,
        timed: bool = False,
    ) -> List[object]:
        """Run several scenarios, optionally fanned out over worker processes.

        ``ExperimentEngine.run`` is a pure function of its spec (every run
        builds fresh servers and a fresh substrate), so specs can execute in
        any order and in separate processes without observable differences:
        results come back in spec order and are identical to the serial path
        apart from wall-clock timings.

        Parameters
        ----------
        specs:
            The scenarios to run.
        workers:
            Process count.  ``None``, 0, or 1 runs serially in-process; higher
            values use a forked process pool (falling back to serial where
            fork is unavailable, e.g. on Windows).
        timed:
            If True, return ``(result, seconds)`` pairs instead of bare
            results, where ``seconds`` is the per-spec wall clock measured
            inside the worker.
        """
        specs = list(specs)
        pairs = fork_map(_run_timed, (self, specs), len(specs), workers)
        if timed:
            return pairs
        return [result for result, _seconds in pairs]

    # -- workload shapes -----------------------------------------------------------

    def _run_performance(self, spec: ScenarioSpec) -> List[FigureRow]:
        """The request-time measurement of Figures 2-6.

        A fresh server is built and started for every (request kind, policy)
        cell so that no state leaks between measurements, mirroring the
        paper's per-request instrumentation; every server is stopped once its
        cell is measured.
        """
        profile = self.profile(spec.server)
        rows: List[FigureRow] = []
        row_kinds = list(spec.kinds) if spec.kinds is not None else list(profile.figure_rows)
        # Whole-process warm-up: run a few requests once so that neither
        # build's first measured cell pays one-time interpreter and allocator
        # start-up costs (the analogue of the paper measuring steady-state
        # servers).
        warm_server = self.build_server(spec.server, spec.baseline_policy,
                                        config=spec.config, scale=spec.scale)
        try:
            if not warm_server.start().fatal and row_kinds:
                warm_factory = profile.request_factory_for(row_kinds[0])
                warm_reset = profile.reset_hook_for(row_kinds[0])
                for warm_index in range(3):
                    if warm_reset is not None:
                        warm_reset(warm_server, warm_index)
                    warm_server.process(warm_factory(warm_index))
        finally:
            warm_server.stop()
        for kind in row_kinds:
            servers: Dict[str, Server] = {}
            try:
                for policy_name in (spec.baseline_policy, spec.policy):
                    server = self.build_server(spec.server, policy_name,
                                               config=spec.config, scale=spec.scale)
                    boot = server.start()
                    if not boot.fatal:
                        servers[policy_name] = server
                timings = measure_paired(
                    servers,
                    profile.request_factory_for(kind),
                    repetitions=spec.repetitions,
                    reset=profile.reset_hook_for(kind),
                    label=kind,
                )
            finally:
                for server in servers.values():
                    server.stop()
            for policy_name in (spec.baseline_policy, spec.policy):
                if policy_name not in timings:
                    timings[policy_name] = TimingResult(
                        label=f"{kind} ({policy_name}: failed to boot)"
                    )
            rows.append(
                FigureRow(
                    server=spec.server,
                    request_kind=kind,
                    baseline=timings[spec.baseline_policy],
                    failure_oblivious=timings[spec.policy],
                )
            )
        return rows

    def _run_attack(self, spec: ScenarioSpec) -> ScenarioResult:
        """Boot with the error trigger planted, attack, then issue follow-ups."""
        profile = self.profile(spec.server)
        server = self.build_server(spec.server, spec.policy, config=spec.config,
                                   plant_attack=True, scale=spec.scale)
        try:
            boot = server.start()
            attack: Optional[RequestResult] = None
            follow_ups: List[RequestResult] = []
            if server.alive:
                attack = server.process(profile.make_attack_request())
            if server.alive:
                for request in profile.make_follow_ups():
                    follow_ups.append(server.process(request))
        finally:
            server.stop()
        return ScenarioResult(
            server=spec.server,
            policy=spec.policy,
            boot=boot,
            attack=attack,
            follow_ups=follow_ups,
        )

    # -- sweeps --------------------------------------------------------------------

    def run_security_matrix(
        self,
        servers: Optional[Sequence[str]] = None,
        policies: Sequence[str] = ("standard", "bounds-check", "failure-oblivious"),
        scale: float = 0.25,
        workers: Optional[int] = None,
    ) -> List[SecurityCell]:
        """Run the attack scenario for every (server, policy) combination.

        ``servers`` defaults to the paper's five (the stable
        ``SERVER_CLASSES`` scope) so that third-party profiles registered for
        other purposes do not silently widen the paper's matrix.  With
        ``workers > 1`` the (server, policy) cells fan out over a process
        pool, one process per cell.
        """
        if servers is None:
            from repro.servers import SERVER_CLASSES

            servers = sorted(SERVER_CLASSES)
        specs = [
            ScenarioSpec(server=server_name, policy=policy_name,
                         workload="attack", scale=scale)
            for server_name in servers
            for policy_name in policies
        ]
        scenarios = self.run_many(specs, workers=workers)
        return [SecurityCell.from_scenario(scenario) for scenario in scenarios]


#: Default engine over the live global profile registry.
ENGINE = ExperimentEngine()
