"""The experiment registry: one entry per table/figure in the paper's evaluation.

Each entry maps an experiment id (the ids used in DESIGN.md and
EXPERIMENTS.md) to a callable that runs the experiment and returns an
:class:`ExperimentOutput` containing both structured results and a formatted
text table.  The benchmark suite under ``benchmarks/`` and the examples under
``examples/`` are thin wrappers around this registry, so there is exactly one
implementation of every experiment.

Experiment ids
--------------
``fig2`` .. ``fig6``
    Request processing time tables for Pine, Apache, Sendmail, Midnight
    Commander, and Mutt (Standard vs Failure Oblivious, with slowdowns).
``tab-security``
    The §4.x.2 security/resilience matrix for all five servers and three builds.
``exp-throughput``
    Apache legitimate-request throughput while under attack (§4.3.2).
``exp-stability``
    Long mixed workloads with periodic attacks for every server (§4.x.4).
``exp-soak``
    Restart-heavy sharded soak per build: one fleet instance per stream
    chunk, deaths restore the post-boot checkpoint, the instances fan out
    over the fork pool (``workers``).
``exp-fleet``
    Heterogeneous fleet soak: a mix of profiles x builds cloned from
    checkpoint images under seeded arrival processes (``repro fleet`` is
    the full CLI surface; this registers the canonical small fleet).
``exp-variants``
    §5.1 variants (boundless memory blocks, redirect) on the attack scenarios.
``exp-propagation``
    Error propagation distance measurements supporting §1.2.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.analysis.propagation import measure_propagation
from repro.analysis.security import assess_security
from repro.harness.engine import ENGINE, ScenarioSpec
from repro.harness.report import (
    format_figure_table,
    format_security_matrix,
    format_simple_table,
)
from repro.harness.stability import run_stability_experiment
from repro.harness.throughput import run_throughput_experiment, throughput_ratio
from repro.servers import SERVER_CLASSES
from repro.servers.profile import get_profile
from repro.workloads.streams import mixed_stream


@dataclass
class ExperimentOutput:
    """The result of running one registered experiment."""

    experiment_id: str
    title: str
    table: str
    data: object = None
    notes: List[str] = field(default_factory=list)

    def __str__(self) -> str:  # pragma: no cover - convenience for scripts
        parts = [self.title, "", self.table]
        if self.notes:
            parts.extend(["", *self.notes])
        return "\n".join(parts)


# ---------------------------------------------------------------------------
# Figures 2-6
# ---------------------------------------------------------------------------
# The figure ids and the server behind each are read off the server profiles
# (every profile that declares a figure number gets a ``fig<N>`` experiment),
# so adding a server with a figure adds its experiment with no edits here.


def _run_figure(server_name: str, repetitions: int = 20, scale: float = 1.0,
                workers: Optional[int] = None) -> ExperimentOutput:
    profile = get_profile(server_name)
    spec = ScenarioSpec(server=server_name, workload="performance",
                        repetitions=repetitions, scale=scale)
    # One spec per figure cell so a process pool can fan the cells out; the
    # serial path (workers <= 1) takes the same route, so both paths measure
    # the same per-cell work.
    cell_specs = [spec.with_(kinds=(kind,)) for kind in profile.figure_rows]
    timed = ENGINE.run_many(cell_specs, workers=workers, timed=True)
    rows = [row for cell_rows, _seconds in timed for row in cell_rows]
    experiment_id = f"fig{profile.figure_number}"
    table = format_figure_table(rows)
    notes = [
        "Times are from the simulated substrate, not the paper's testbed;",
        "compare the Slowdown column with the paper's figure of the same number.",
        _wall_clock_note(
            [(cell.kinds[0], seconds) for cell, (_r, seconds) in zip(cell_specs, timed)],
            workers,
        ),
    ]
    return ExperimentOutput(
        experiment_id=experiment_id,
        title=f"Request processing times for {server_name} (paper Figure {profile.figure_number})",
        table=table,
        data=rows,
        notes=notes,
    )


def _wall_clock_note(spec_seconds: List[tuple], workers: Optional[int]) -> str:
    """One note line surfacing per-spec wall clock and the fan-out width."""
    mode = f"{workers} workers" if workers and workers > 1 else "serial"
    cells = ", ".join(f"{label} {seconds:.2f}s" for label, seconds in spec_seconds)
    total = sum(seconds for _label, seconds in spec_seconds)
    return f"wall-clock ({mode}): {cells} (sum {total:.2f}s)"


# ---------------------------------------------------------------------------
# Security matrix
# ---------------------------------------------------------------------------


def _run_security(repetitions: int = 1, scale: float = 0.25,
                  workers: Optional[int] = None) -> ExperimentOutput:
    started = time.perf_counter()
    cells = ENGINE.run_security_matrix(scale=scale, workers=workers)
    elapsed = time.perf_counter() - started
    assessments = assess_security(cells=cells)
    table = format_security_matrix(cells)
    verdict_rows = [
        (a.server, a.policy, a.verdict()) for a in assessments
    ]
    verdict_table = format_simple_table(
        ["server", "build", "verdict"], verdict_rows, title="Security verdicts"
    )
    mode = f"{workers} workers" if workers and workers > 1 else "serial"
    return ExperimentOutput(
        experiment_id="tab-security",
        title="Security and resilience under the documented attacks (§4.2.2-§4.6.2)",
        table=table + "\n\n" + verdict_table,
        data={"cells": cells, "assessments": assessments},
        notes=[f"matrix wall-clock ({mode}): {elapsed:.2f}s for {len(cells)} cells"],
    )


# ---------------------------------------------------------------------------
# Apache throughput under attack
# ---------------------------------------------------------------------------


def _run_throughput(
    attack_fraction: float = 0.6, total_requests: int = 240, pool_size: int = 4
) -> ExperimentOutput:
    results = run_throughput_experiment(
        attack_fraction=attack_fraction,
        total_requests=total_requests,
        pool_size=pool_size,
    )
    rows = [
        (
            policy,
            result.legitimate_served,
            result.child_deaths,
            f"{result.total_seconds:.3f}s",
            f"{result.throughput_rps:.1f}",
        )
        for policy, result in results.items()
    ]
    table = format_simple_table(
        ["build", "legitimate served", "child deaths", "service time", "throughput (req/s)"],
        rows,
        title="Apache throughput while under attack (§4.3.2)",
    )
    fo_over_bc = throughput_ratio(results, "failure-oblivious", "bounds-check")
    fo_over_std = throughput_ratio(results, "failure-oblivious", "standard")
    notes = [
        f"failure-oblivious / bounds-check throughput ratio: {fo_over_bc:.1f}x (paper: ~5.7x)",
        f"failure-oblivious / standard throughput ratio: {fo_over_std:.1f}x (paper: ~4.8x)",
    ]
    return ExperimentOutput(
        experiment_id="exp-throughput",
        title="Apache throughput under attack",
        table=table,
        data={"results": results, "fo_over_bc": fo_over_bc, "fo_over_std": fo_over_std},
        notes=notes,
    )


# ---------------------------------------------------------------------------
# Stability
# ---------------------------------------------------------------------------


def _run_stability(
    total_requests: int = 120, attack_every: int = 20, scale: float = 0.25
) -> ExperimentOutput:
    rows = []
    results = {}
    for server_name in sorted(SERVER_CLASSES):
        result = run_stability_experiment(
            server_name,
            "failure-oblivious",
            total_requests=total_requests,
            attack_every=attack_every,
            scale=scale,
        ).instances[0]
        results[server_name] = result
        rows.append(
            (
                server_name,
                result.legitimate_served,
                result.legitimate_failed,
                result.attacks_survived,
                result.attack_requests,
                result.server_deaths,
                result.memory_errors_logged,
                "yes" if result.flawless else "NO",
            )
        )
    table = format_simple_table(
        [
            "server",
            "legit served",
            "legit failed",
            "attacks survived",
            "attacks sent",
            "deaths",
            "errors logged",
            "flawless",
        ],
        rows,
        title="Failure-oblivious stability under periodic attack (§4.x.4)",
    )
    return ExperimentOutput(
        experiment_id="exp-stability",
        title="Stability of the failure-oblivious builds",
        table=table,
        data=results,
    )


# ---------------------------------------------------------------------------
# Sharded soak (checkpointed restarts + in-scenario fan-out)
# ---------------------------------------------------------------------------


def _run_soak(
    server: str = "apache",
    total_requests: int = 400,
    attack_every: int = 2,
    shards: int = 8,
    workers: Optional[int] = None,
    scale: float = 0.25,
    policies: tuple = ("standard", "bounds-check", "failure-oblivious"),
) -> ExperimentOutput:
    """Restart-heavy soak per build: the §4.3.2 shape at soak length.

    Every death is recovered by restoring the post-boot process image; the
    stream is sharded over the fork pool when ``workers`` > 1 (tallies are
    identical to the serial run either way).
    """
    results = {}
    rows = []
    for policy_name in policies:
        result = run_stability_experiment(
            server, policy_name, total_requests=total_requests,
            attack_every=attack_every, shards=shards, workers=workers,
            scale=scale,
        )
        results[policy_name] = result
        rows.append(
            (
                policy_name,
                result.legitimate_served,
                result.server_deaths,
                result.restarts,
                f"{result.wall_seconds:.3f}s",
                f"{result.requests_per_sec:.0f}",
            )
        )
    mode = f"{workers} workers" if workers and workers > 1 else "serial"
    table = format_simple_table(
        ["build", "legit served", "deaths", "restarts", "wall clock", "soak req/s"],
        rows,
        title=f"Sharded {server} soak under attack (checkpointed restarts, {mode})",
    )
    return ExperimentOutput(
        experiment_id="exp-soak",
        title=f"Sharded soak throughput for {server}",
        table=table,
        data=results,
        notes=[
            f"{shards} shards, attack every {attack_every} requests; every death "
            "restores the post-boot checkpoint instead of rebooting",
        ],
    )


# ---------------------------------------------------------------------------
# Fleet soak (heterogeneous instances, seeded arrivals, one tally sink per instance)
# ---------------------------------------------------------------------------


def _run_fleet(
    total_requests: int = 900,
    attack_every: int = 10,
    workers: Optional[int] = None,
    scale: float = 0.25,
    seed: int = 20040101,
) -> ExperimentOutput:
    """The canonical small fleet: three profiles under two builds each.

    ``repro fleet run`` exposes the full surface (arbitrary instance mixes,
    arrival shapes, ``--trace`` export); this registered experiment pins one
    reproducible configuration so ``repro run exp-fleet`` and
    ``repro trace export exp-fleet`` work like every other experiment.
    """
    from repro.fleet.report import format_fleet_table
    from repro.fleet.scheduler import InstanceSpec, run_fleet

    specs = [
        InstanceSpec("apache", "failure-oblivious", count=2,
                     attack_every=attack_every),
        InstanceSpec("apache", "bounds-check", attack_every=attack_every),
        InstanceSpec("pine", "failure-oblivious", attack_every=attack_every),
        InstanceSpec("pine", "bounds-check", attack_every=attack_every),
        InstanceSpec("sendmail", "failure-oblivious", attack_every=attack_every,
                     arrival="bursty"),
    ]
    result = run_fleet(
        specs, total_requests=total_requests, seed=seed, workers=workers,
        scale=scale,
    )
    mode = f"{workers} workers" if workers and workers > 1 else "serial"
    return ExperimentOutput(
        experiment_id="exp-fleet",
        title="Fleet soak: heterogeneous instances from checkpoint images",
        table=format_fleet_table(
            result,
            title=f"Fleet soak: per-instance availability ({mode})",
        ),
        data=result,
        notes=[
            "instances are cloned from one template image per (server, build) "
            "group; deaths restore the image O(dirty-bytes)",
            f"traffic is bit-reproducible in seed={seed} regardless of workers",
        ],
    )


# ---------------------------------------------------------------------------
# §5.1 variants
# ---------------------------------------------------------------------------


def _run_variants(scale: float = 0.25) -> ExperimentOutput:
    policies = ("failure-oblivious", "boundless", "redirect")
    cells = ENGINE.run_security_matrix(policies=policies, scale=scale)
    table = format_security_matrix(
        cells, title="§5.1 variants: boundless memory blocks and redirect"
    )
    survived = {
        policy: all(
            cell.continued_service for cell in cells if cell.policy == policy
        )
        for policy in policies
    }
    notes = [
        f"{policy}: {'all servers keep serving' if ok else 'service degraded'}"
        for policy, ok in survived.items()
    ]
    return ExperimentOutput(
        experiment_id="exp-variants",
        title="Continuation-code variants (§5.1)",
        table=table,
        data={"cells": cells, "survived": survived},
        notes=notes,
    )


# ---------------------------------------------------------------------------
# Error propagation distances
# ---------------------------------------------------------------------------


def _run_propagation(total_requests: int = 40, attack_every: int = 8, scale: float = 0.25) -> ExperimentOutput:
    rows = []
    reports = {}
    for server_name in sorted(SERVER_CLASSES):
        stream = mixed_stream(
            server_name, total_requests=total_requests, attack_every=attack_every
        )
        report = measure_propagation(server_name, "failure-oblivious", list(stream))
        reports[server_name] = report
        rows.append(
            (
                server_name,
                report.error_requests,
                f"{report.max_control_distance:g}",
                f"{report.max_data_distance:g}",
                "yes" if report.short_propagation else "no",
            )
        )
    table = format_simple_table(
        ["server", "requests with errors", "max control distance", "max data distance", "short propagation"],
        rows,
        title="Error propagation distances under failure-oblivious execution (§1.2)",
    )
    return ExperimentOutput(
        experiment_id="exp-propagation",
        title="Error propagation distances",
        table=table,
        data=reports,
    )


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

def _figure_runner(server_name: str) -> Callable[..., ExperimentOutput]:
    def run(**kwargs) -> ExperimentOutput:
        return _run_figure(server_name, **kwargs)

    return run


EXPERIMENTS: Dict[str, Callable[..., ExperimentOutput]] = {
    f"fig{get_profile(name).figure_number}": _figure_runner(name)
    for name in SERVER_CLASSES
    if get_profile(name).figure_number is not None
}
EXPERIMENTS.update(
    {
        "tab-security": _run_security,
        "exp-throughput": _run_throughput,
        "exp-stability": _run_stability,
        "exp-soak": _run_soak,
        "exp-fleet": _run_fleet,
        "exp-variants": _run_variants,
        "exp-propagation": _run_propagation,
    }
)


def run_experiment(experiment_id: str, **kwargs) -> ExperimentOutput:
    """Run a registered experiment by id.

    Raises
    ------
    KeyError
        If ``experiment_id`` is not in :data:`EXPERIMENTS`.
    """
    try:
        runner = EXPERIMENTS[experiment_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; expected one of {sorted(EXPERIMENTS)}"
        ) from None
    return runner(**kwargs)
