"""Unified telemetry spine: one structured event stream, policy to CLI.

Layers emit typed events (:mod:`repro.telemetry.events`) onto per-process
:class:`~repro.telemetry.bus.EventBus` instances; sinks
(:mod:`repro.telemetry.sinks`) aggregate, ring-buffer, or serialize the
stream; a :class:`~repro.telemetry.session.TelemetrySession` exports whole
runs — including ``run_many`` fork-pool fan-outs — as newline-delimited JSON
that :mod:`repro.telemetry.summary` (and the ``repro trace`` CLI) can filter
and re-aggregate offline.

The session is the one exporter: fleet runs use it too (every instance
stamps its own scenario id), and ``repro fleet report`` rebuilds the live
per-instance tallies from the merged JSONL.
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
    ListSink,
    Sink,
)
from repro.telemetry.summary import (
    TraceSummary,
    filter_records,
    iter_records,
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
    "TraceSummary",
    "filter_records",
    "iter_records",
    "request_traces",
    "summarize_records",
    "summarize_trace",
]
