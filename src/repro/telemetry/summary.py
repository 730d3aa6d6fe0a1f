"""Offline queries over an exported JSONL trace.

``repro trace summary`` and ``repro trace filter`` are thin wrappers over this
module: read an export produced by a
:class:`~repro.telemetry.session.TelemetrySession`, optionally filter by
server / policy / site / request kind, and aggregate the same counters the
live :class:`~repro.telemetry.sinks.CounterSink` maintains — so an exported
run re-summarizes to identical aggregate counts.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Dict, Iterable, Iterator, List, Optional

from repro.telemetry.events import RequestEnd, from_record
from repro.telemetry.sinks import CounterSink


def iter_records(path: str) -> Iterator[Dict[str, object]]:
    """Yield the JSON records of an exported JSONL trace, in file order."""
    with open(path, "r", encoding="utf-8") as stream:
        for line in stream:
            line = line.strip()
            if line:
                yield json.loads(line)


def matches(
    record: Dict[str, object],
    server: Optional[str] = None,
    policy: Optional[str] = None,
    site: Optional[str] = None,
    kind: Optional[str] = None,
) -> bool:
    """True if one record passes the given filters.

    ``server`` and ``policy`` match the record's scope (or the scenario
    events' own fields); ``site`` substring-matches error/continuation sites
    (the error-log convention); ``kind`` matches the request kind of
    request-start/request-end records.  A filter on a field the record does
    not carry excludes it, so e.g. ``--site`` reduces the stream to the
    access-level events attributed to that site.
    """
    scope = record.get("scope") or {}
    if server is not None:
        scoped = scope.get("server", record.get("server"))
        if scoped != server:
            return False
    if policy is not None:
        scoped = scope.get("policy", record.get("policy"))
        if scoped != policy:
            return False
    if site is not None:
        record_site = record.get("site")
        if not isinstance(record_site, str) or site not in record_site:
            return False
    if kind is not None:
        if record.get("event") not in ("request-start", "request-end"):
            return False
        if record.get("kind") != kind:
            return False
    return True


def filter_records(
    records: Iterable[Dict[str, object]],
    server: Optional[str] = None,
    policy: Optional[str] = None,
    site: Optional[str] = None,
    kind: Optional[str] = None,
) -> Iterator[Dict[str, object]]:
    """Yield only the records passing the filters (see :func:`matches`)."""
    for record in records:
        if matches(record, server=server, policy=policy, site=site, kind=kind):
            yield record


class TraceSummary:
    """Aggregate counts over a (possibly filtered) exported trace.

    There is exactly one implementation of the counter semantics: each record
    is deserialized back into its typed event (:func:`~repro.telemetry.events.from_record`)
    and fed to the same :class:`~repro.telemetry.sinks.CounterSink` the live
    buses use, which is what guarantees an export re-summarizes to the counts
    the run produced.  Only the export-level bookkeeping (scope, scenarios,
    record tags) lives here.
    """

    def __init__(self) -> None:
        self.total_events = 0
        #: Logical event counts keyed by the on-disk ``event`` tag.  Run
        #: records (``count > 1``) weigh in at their count, so a flood
        #: summarizes identically whether it was exported per byte or as
        #: batched runs; ``total_events`` stays the raw record count.
        self.by_type: Counter = Counter()
        self.attack_requests = 0
        self.servers: Counter = Counter()
        self.policies: Counter = Counter()
        self.counters = CounterSink()

    def add(self, record: Dict[str, object]) -> None:
        """Fold one record into the summary."""
        self.total_events += 1
        count = record.get("count", 1)
        if not isinstance(count, int) or count < 1:
            count = 1
        self.by_type[record.get("event")] += count
        scope = record.get("scope") or {}
        # The per-server/per-policy tallies weigh runs like by_type does, so
        # they too are independent of whether a flood was exported per byte
        # or as run records.
        if "server" in scope:
            self.servers[scope["server"]] += count
        if "policy" in scope:
            self.policies[scope["policy"]] += count
        try:
            event = from_record(record)
        except (ValueError, KeyError, TypeError):
            return  # unknown/foreign record: counted in by_type only
        self.counters.emit(event)
        if isinstance(event, RequestEnd) and event.is_attack:
            self.attack_requests += 1

    # -- delegated aggregate counters (one implementation: CounterSink) --------

    @property
    def scenarios(self) -> int:
        """Number of scenario-start events (scenarios in the trace)."""
        return self.by_type["scenario-start"]

    @property
    def invalid_total(self) -> int:
        return self.counters.invalid_total

    @property
    def invalid_by_site(self) -> Counter:
        return self.counters.invalid_by_site

    @property
    def invalid_by_kind(self) -> Counter:
        return self.counters.invalid_by_kind

    @property
    def invalid_by_access(self) -> Counter:
        return self.counters.invalid_by_access

    @property
    def manufactured_bytes(self) -> int:
        return self.counters.manufactured_bytes

    @property
    def discarded_bytes(self) -> int:
        return self.counters.discarded_bytes

    @property
    def stored_bytes(self) -> int:
        return self.counters.stored_bytes

    @property
    def redirected_accesses(self) -> int:
        return self.counters.redirected_accesses

    @property
    def allocations(self) -> int:
        return self.counters.allocations

    @property
    def frees(self) -> int:
        return self.counters.frees

    @property
    def requests_by_outcome(self) -> Counter:
        return self.counters.requests_by_outcome

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TraceSummary) and self.__dict__ == other.__dict__

    __hash__ = None  # mutable aggregate

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<TraceSummary {self.total_events} events, "
                f"{self.invalid_total} invalid accesses>")


def summarize_records(records: Iterable[Dict[str, object]]) -> TraceSummary:
    """Aggregate an iterable of records into a :class:`TraceSummary`."""
    summary = TraceSummary()
    for record in records:
        summary.add(record)
    return summary


def summarize_trace(
    path: str,
    server: Optional[str] = None,
    policy: Optional[str] = None,
    site: Optional[str] = None,
    kind: Optional[str] = None,
) -> TraceSummary:
    """Summarize an exported trace file, with filters."""
    return summarize_records(
        filter_records(iter_records(path), server=server, policy=policy,
                       site=site, kind=kind)
    )


def request_traces(records: Iterable[Dict[str, object]]) -> List[Dict[str, object]]:
    """Group access-level events under their request (trace) ids.

    Returns one dict per observed request, in first-seen order, with the
    request-start/request-end records and the correlated invalid-access /
    continuation events — the forensic view the Pine walkthrough in the README
    is built on.

    Traces are keyed by ``(scenario, request_id)``, not the request id alone:
    forked ``run_many`` workers inherit the same request-id counter, so ids
    recur across scenarios in a multi-worker export and only the scenario
    stamp disambiguates them.
    """
    traces: Dict[object, Dict[str, object]] = {}

    def trace_for(record: Dict[str, object]) -> Dict[str, object]:
        key = (record.get("scenario"), record.get("request_id"))
        if key not in traces:
            traces[key] = {
                "scenario": record.get("scenario"),
                "request_id": record.get("request_id"),
                "start": None,
                "end": None,
                "events": [],
            }
        return traces[key]

    for record in records:
        event = record.get("event")
        if event == "request-start":
            trace_for(record)["start"] = record
        elif event == "request-end":
            trace_for(record)["end"] = record
        elif event in ("invalid-access", "discard", "manufacture", "redirect", "alloc-free"):
            if record.get("request_id") is not None:
                trace_for(record)["events"].append(record)
    return list(traces.values())
