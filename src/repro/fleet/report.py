"""Fleet reporting: per-instance availability tables, live or from an export.

Two entry points, one semantics:

* :func:`format_fleet_table` renders a live
  :class:`~repro.fleet.scheduler.FleetResult` (or any list of
  :class:`~repro.fleet.scheduler.InstanceTally`) as the per-instance
  availability/error table ``repro fleet run`` prints.
* :func:`fleet_report_from_trace` re-derives those tallies from an exported
  JSONL trace (``repro fleet run --trace``), by replaying each instance's events
  through the *same* :class:`~repro.fleet.scheduler.FleetTallySink` the live
  scheduler attaches and reading its :meth:`~repro.fleet.scheduler.FleetTallySink.tally`.
  Boots, restarts, drops, rollbacks and quarantines all flow through the
  event stream, so every column matches the live run exactly (the ``inst``
  column is the instance's scenario id, which equals its index only when
  the fleet was the session's first).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple, Union

from repro.fleet.scheduler import FleetResult, FleetTallySink, InstanceTally
from repro.harness.report import format_simple_table
from repro.telemetry.events import from_record
from repro.telemetry.summary import iter_records


def fleet_report_from_trace(path: str) -> List[InstanceTally]:
    """Rebuild per-instance tallies from an exported fleet trace.

    Records are grouped by their ``scenario`` stamp (every fleet instance has
    its own scenario id) and each group's events replay through a fresh
    :class:`~repro.fleet.scheduler.FleetTallySink`.  Unscoped records
    (scenario ``None`` — e.g. engine-level bookkeeping) are ignored.
    """
    sinks: Dict[int, FleetTallySink] = {}
    labels: Dict[int, Tuple[str, str]] = {}
    for record in iter_records(path):
        scenario = record.get("scenario")
        if not isinstance(scenario, int):
            continue
        try:
            event = from_record(record)
        except (ValueError, KeyError, TypeError):
            continue
        if scenario not in sinks:
            scope = record.get("scope") or {}
            sinks[scenario] = FleetTallySink()
            labels[scenario] = (str(scope.get("server", "?")), str(scope.get("policy", "?")))
        sinks[scenario].emit(event)
    return [
        sinks[scenario].tally(scenario, *labels[scenario]) for scenario in sorted(sinks)
    ]


def _rows(tallies: Iterable[InstanceTally]) -> List[Sequence[object]]:
    return [
        (
            tally.index,
            tally.server,
            tally.policy,
            tally.requests,
            tally.legitimate_served,
            tally.legitimate_failed,
            tally.dropped,
            tally.attacks_survived,
            tally.server_deaths,
            tally.restarts,
            tally.rollbacks,
            tally.quarantined + tally.quarantined_attacks,
            tally.memory_errors_logged,
            f"{tally.availability:.4f}",
        )
        for tally in tallies
    ]


_HEADERS = (
    "inst", "server", "policy", "requests", "served", "failed", "dropped",
    "survived", "deaths", "restarts", "rollbacks", "quarantined", "errors",
    "availability",
)


def _recovery_footer(tallies: Sequence[InstanceTally]) -> List[str]:
    """Summary lines derivable from tallies alone (live or from-trace)."""
    lines: List[str] = []
    deadline_dropped = sum(t.deadline_dropped for t in tallies)
    if deadline_dropped:
        lines.append(
            f"DEADLINE HIT: {deadline_dropped} request(s) dropped by the "
            "wall-clock budget"
        )
    rollbacks = sum(t.rollbacks for t in tallies)
    quarantined = sum(t.quarantined + t.quarantined_attacks for t in tallies)
    snapshots = sum(t.snapshots for t in tallies)
    faults = sum(t.faults_injected for t in tallies)
    if rollbacks or quarantined or snapshots or faults:
        lines.append(
            f"recovery: {snapshots} snapshots, {rollbacks} rollbacks, "
            f"{quarantined} quarantined, {faults} faults injected"
        )
    return lines


def format_fleet_table(
    result: Union[FleetResult, Sequence[InstanceTally]],
    title: str = "Fleet soak: per-instance availability",
) -> str:
    """The per-instance availability/error table (live result or tally list)."""
    if isinstance(result, FleetResult):
        tallies: Sequence[InstanceTally] = result.instances
        lines = [format_simple_table(_HEADERS, _rows(tallies), title=title)]
        lines.append("")
        lines.append(
            f"fleet: {result.total_requests} requests "
            f"({result.attack_requests} attack) over {len(tallies)} instances, "
            f"{result.shard_count} shards, workers={result.workers}, "
            f"seed={result.seed}"
        )
        lines.append(
            f"availability {result.availability:.4f}; "
            f"{result.server_deaths} deaths, {result.restarts} restarts, "
            f"{result.requests_per_sec:,.0f} req/s over "
            f"{result.wall_seconds:.2f}s"
            + ("; DEADLINE HIT (wall-clock budget)" if result.deadline_hit else "")
        )
        lines.extend(_recovery_footer(tallies))
        return "\n".join(lines)
    lines = [format_simple_table(_HEADERS, _rows(result), title=title)]
    lines.extend(_recovery_footer(result))
    return "\n".join(lines)


__all__ = ["fleet_report_from_trace", "format_fleet_table"]
