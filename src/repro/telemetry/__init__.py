"""Unified telemetry spine: one structured event stream, policy to CLI.

Layers emit typed events (:mod:`repro.telemetry.events`) onto per-process
:class:`~repro.telemetry.bus.EventBus` instances; sinks
(:mod:`repro.telemetry.sinks`) aggregate, ring-buffer, or serialize the
stream; a :class:`~repro.telemetry.session.TelemetrySession` exports whole
runs — including ``run_many`` fork-pool fan-outs — as newline-delimited JSON
that :mod:`repro.telemetry.summary` (and the ``repro trace`` CLI) can filter
and re-aggregate offline.

For fleet-scale runs two streaming sinks keep the bus from being bounded by
ring memory or flat files: :class:`~repro.telemetry.stats.StatsSink` (live
rolling per-``(server, policy)`` counters with periodic flush snapshots) and
:class:`~repro.telemetry.sqlite.SqliteSink` (batched inserts into SQLite
databases, per-worker spills merged in spec order, readable by every offline
consumer via :func:`~repro.telemetry.sqlite.iter_sqlite_records`).
"""

from repro.telemetry.bus import EventBus
from repro.telemetry.events import (
    EVENT_TYPES,
    AllocFree,
    Discard,
    FaultInjected,
    InvalidAccess,
    Manufacture,
    Redirect,
    RequestEnd,
    RequestQuarantined,
    RequestStart,
    RollbackPerformed,
    ScenarioEnd,
    ScenarioStart,
    SnapshotTaken,
    event_name,
    expand_invalid_accesses,
    from_record,
    to_record,
)
from repro.telemetry.session import TelemetrySession, current_session
from repro.telemetry.sinks import (
    CoalescingRingSink,
    CounterSink,
    JsonlSink,
    ListSink,
    Sink,
)
from repro.telemetry.sqlite import (
    SqliteSink,
    is_sqlite_file,
    iter_sqlite_records,
    merge_sqlite,
)
from repro.telemetry.stats import StatsSink, StatsView
from repro.telemetry.summary import (
    TraceSummary,
    filter_records,
    iter_records,
    iter_trace_records,
    request_traces,
    summarize_records,
    summarize_trace,
)

__all__ = [
    "EventBus",
    "EVENT_TYPES",
    "AllocFree",
    "Discard",
    "InvalidAccess",
    "Manufacture",
    "Redirect",
    "FaultInjected",
    "RequestEnd",
    "RequestQuarantined",
    "RequestStart",
    "RollbackPerformed",
    "ScenarioEnd",
    "ScenarioStart",
    "SnapshotTaken",
    "event_name",
    "expand_invalid_accesses",
    "from_record",
    "to_record",
    "TelemetrySession",
    "current_session",
    "Sink",
    "ListSink",
    "CounterSink",
    "CoalescingRingSink",
    "JsonlSink",
    "SqliteSink",
    "is_sqlite_file",
    "iter_sqlite_records",
    "merge_sqlite",
    "StatsSink",
    "StatsView",
    "TraceSummary",
    "filter_records",
    "iter_records",
    "iter_trace_records",
    "request_traces",
    "summarize_records",
    "summarize_trace",
]
