"""Pluggable sinks: where the event stream goes.

A sink is anything with an ``emit(event)`` method.  The substrate attaches a
:class:`CoalescingRingSink` and a :class:`CounterSink` to every policy's bus
(that pair is what the :class:`~repro.core.errorlog.MemoryErrorLog` façade
reads) and experiments attach their own aggregators — all without the
emitters knowing or caring.  Exports go through
:class:`~repro.telemetry.session.TelemetrySession`, which every bus feeds.
"""

from __future__ import annotations

from collections import Counter, deque
from typing import Deque, List, Optional, Tuple

from repro.errors import MemoryErrorEvent
from repro.telemetry.events import (
    AllocFree,
    Discard,
    InvalidAccess,
    Manufacture,
    Redirect,
    RequestEnd,
)


class Sink:
    """Interface marker: a sink consumes events via :meth:`emit`."""

    def emit(self, event: object) -> None:  # pragma: no cover - interface
        raise NotImplementedError


class ListSink(Sink):
    """Capture events verbatim, optionally restricted to some types.

    The general-purpose short-lived recorder; consumers needing indexed
    views write their own small sinks instead (e.g. the propagation
    analysis's ``TraceRecorder``).
    """

    def __init__(self, event_types: Optional[Tuple[type, ...]] = None) -> None:
        self.event_types = event_types
        self.events: List[object] = []

    def emit(self, event: object) -> None:
        if self.event_types is None or isinstance(event, self.event_types):
            self.events.append(event)

    def clear(self) -> None:
        """Drop everything captured so far."""
        self.events.clear()


class CounterSink(Sink):
    """Aggregate counters over the stream: cheap, unbounded-safe observability.

    The invalid-access counters replicate what the §3 error log aggregates
    (totals, by site, by kind, by access direction); the continuation and
    request counters extend the same treatment to the rest of the stream.

    Run-carrying records weigh in at their ``count`` (see
    :mod:`repro.telemetry.events`): a batched flood of 4096 per-byte invalid
    writes adds 4096 to ``invalid_total`` and to ``by_type`` whether it
    arrived as one run record or 4096 singles — every aggregate here is
    stream-shape independent.
    """

    def __init__(self) -> None:
        self._reset_fields()

    def _reset_fields(self) -> None:
        self.by_type: Counter = Counter()
        self.invalid_total = 0
        self.invalid_by_site: Counter = Counter()
        self.invalid_by_kind: Counter = Counter()
        self.invalid_by_access: Counter = Counter()
        self.manufactured_bytes = 0
        self.discarded_bytes = 0
        self.stored_bytes = 0
        self.redirected_accesses = 0
        self.allocations = 0
        self.frees = 0
        self.requests_by_outcome: Counter = Counter()

    def emit(self, event: object) -> None:
        count = getattr(event, "count", 1)
        self.by_type[type(event).__name__] += count
        if isinstance(event, InvalidAccess):
            error = event.error
            self.invalid_total += count
            self.invalid_by_site[error.site] += count
            self.invalid_by_kind[error.kind] += count
            self.invalid_by_access[error.access] += count
        elif isinstance(event, Manufacture):
            self.manufactured_bytes += event.length
        elif isinstance(event, Discard):
            if event.stored:
                self.stored_bytes += event.length
            else:
                self.discarded_bytes += event.length
        elif isinstance(event, Redirect):
            self.redirected_accesses += count
        elif isinstance(event, AllocFree):
            if event.op == "free":
                self.frees += 1
            else:
                self.allocations += 1
        elif isinstance(event, RequestEnd):
            self.requests_by_outcome[event.outcome] += 1

    def clear(self) -> None:
        """Zero every counter.

        An explicit field reset, NOT ``self.__init__()``: subclasses with
        richer ``__init__`` signatures (or state established outside it)
        would otherwise be silently corrupted by
        :meth:`~repro.core.errorlog.MemoryErrorLog.clear`.
        """
        self._reset_fields()

    #: The aggregate fields snapshotted by checkpoint/restore — the same set
    #: _reset_fields initializes, kept explicit so subclass extras are not
    #: silently captured (subclasses override the pair if they need more).
    _CHECKPOINT_FIELDS = (
        "by_type", "invalid_total", "invalid_by_site", "invalid_by_kind",
        "invalid_by_access", "manufactured_bytes", "discarded_bytes",
        "stored_bytes", "redirected_accesses", "allocations", "frees",
        "requests_by_outcome",
    )

    def checkpoint(self) -> dict:
        """Snapshot every aggregate (Counters are copied, scalars as-is)."""
        cp = {}
        for name in self._CHECKPOINT_FIELDS:
            value = getattr(self, name)
            cp[name] = Counter(value) if isinstance(value, Counter) else value
        return cp

    def restore(self, cp: dict) -> None:
        """Reset the aggregates to a snapshot taken by :meth:`checkpoint`."""
        for name in self._CHECKPOINT_FIELDS:
            value = cp[name]
            setattr(self, name, Counter(value) if isinstance(value, Counter) else value)

    def __eq__(self, other: object) -> bool:
        """Value equality: two counter sinks with identical tallies are equal.

        Used by the offline summary equality checks; the bus attaches sinks
        by identity, so equal-but-distinct counters can share a bus.
        """
        return isinstance(other, CounterSink) and self.__dict__ == other.__dict__

    __hash__ = None  # mutable aggregate; unhashable like a dict


class CoalescingRingSink(Sink):
    """Bounded in-memory ring of invalid-access events, stored as runs.

    Attack floods hitting the per-byte out-of-bounds fallback emit one event
    per byte, identical except for a constant offset stride.  Storing each
    would allocate one object per flood byte (the ROADMAP's named cost
    ceiling), so consecutive events that differ only by a constant offset
    stride are coalesced into one ``(first_event, stride, count)`` run;
    :meth:`events` expands runs back into the exact original event sequence,
    so queries are bit-identical to an uncoalesced log.

    Eviction is O(1) per event: the oldest run is shrunk from its front (or
    popped once empty), preserving "drop the oldest single event" semantics.
    """

    def __init__(self, capacity: int = 10_000) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        #: Runs are mutable lists ``[first_event, stride, start, count]``: the
        #: retained events are ``first_event.offset + stride * i`` for ``i``
        #: in ``[start, start + count)`` (``start`` > 0 after partial eviction).
        self._runs: Deque[list] = deque()
        self._retained = 0
        self._dropped = 0

    def emit(self, event: object) -> None:
        if isinstance(event, InvalidAccess):
            if event.count > 1:
                self.append_run(event.error, event.stride, event.count)
            else:
                self.append(event.error)

    # -- recording ---------------------------------------------------------------

    def append(self, error: MemoryErrorEvent) -> None:
        """Record one event, extending the newest run when it continues it."""
        if self._runs and self._extends_last(error):
            self._runs[-1][3] += 1
        else:
            self._runs.append([error, 0, 0, 1])
        self._note_appended(1)

    def append_run(self, error: MemoryErrorEvent, stride: int, count: int) -> None:
        """Record a whole run at once: ``count`` events stepping by ``stride``.

        This is the batched-continuation ingest path: the run is stored
        directly (no per-event work), and :meth:`events` remains identical to
        appending the expanded events one at a time.  A run continuing the
        newest stored run (same fields, same effective stride, contiguous
        offsets — consecutive chunks of one flood) extends it in place.
        """
        if count <= 0:
            return
        if count == 1:
            self.append(error)
            return
        if self._runs and self._fields_match(error):
            last = self._runs[-1]
            _first, last_stride, start, last_count = last[0], last[1], last[2], last[3]
            next_offset = last[0].offset + last_stride * (start + last_count)
            if last_count == 1 and start == 0:
                # A single stored event has no stride yet; adopt the run's if
                # the incoming offsets continue from it.
                if error.offset == last[0].offset + stride:
                    last[1] = stride
                    last[3] += count
                    self._note_appended(count)
                    return
            elif stride == last_stride and error.offset == next_offset:
                last[3] += count
                self._note_appended(count)
                return
        self._runs.append([error, stride, 0, count])
        self._note_appended(count)

    def _note_appended(self, count: int) -> None:
        self._retained += count
        if self._retained > self.capacity:
            self._evict(self._retained - self.capacity)

    def _fields_match(self, error: MemoryErrorEvent) -> bool:
        first = self._runs[-1][0]
        return not (
            error.kind is not first.kind
            or error.access is not first.access
            or error.unit_name != first.unit_name
            or error.unit_size != first.unit_size
            or error.length != first.length
            or error.site != first.site
            or error.request_id != first.request_id
        )

    def _extends_last(self, error: MemoryErrorEvent) -> bool:
        first, stride, start, count = self._runs[-1]
        if not self._fields_match(error):
            return False
        if count == 1 and start == 0:
            # Second event fixes the run's stride (commonly 1 for per-byte
            # floods, 0 for a loop re-touching the same byte).
            self._runs[-1][1] = error.offset - first.offset
            return True
        return error.offset == first.offset + stride * (start + count)

    def _evict(self, n: int) -> None:
        """Evict the ``n`` oldest events, shrinking whole runs at a time.

        O(runs touched), not O(events evicted): a flood run bigger than the
        ring is absorbed by advancing the front run's start once.
        """
        while n > 0:
            run = self._runs[0]
            take = run[3] if run[3] < n else n
            run[2] += take
            run[3] -= take
            if run[3] == 0:
                self._runs.popleft()
            self._retained -= take
            self._dropped += take
            n -= take

    def clear(self) -> None:
        """Discard all retained events and reset the eviction counter."""
        self._runs.clear()
        self._retained = 0
        self._dropped = 0

    def checkpoint(self) -> tuple:
        """Snapshot the retained runs (events are frozen, so runs are shared)."""
        return (tuple(tuple(run) for run in self._runs), self._retained, self._dropped)

    def restore(self, cp: tuple) -> None:
        """Reset the ring to a snapshot taken by :meth:`checkpoint`."""
        runs, retained, dropped = cp
        self._runs = deque(list(run) for run in runs)
        self._retained = retained
        self._dropped = dropped

    # -- queries -----------------------------------------------------------------

    def __len__(self) -> int:
        return self._retained

    @property
    def dropped(self) -> int:
        """Events evicted because the ring was full."""
        return self._dropped

    @property
    def run_count(self) -> int:
        """Number of stored runs (the actual memory footprint)."""
        return len(self._runs)

    @staticmethod
    def _expand(run: list) -> List[MemoryErrorEvent]:
        first, stride, start, count = run
        return first.run(stride, start, start + count)

    def events(self) -> List[MemoryErrorEvent]:
        """Return the retained events, oldest first, expanded from their runs."""
        result: List[MemoryErrorEvent] = []
        for run in self._runs:
            result.extend(self._expand(run))
        return result

    def tail(self, n: int) -> List[MemoryErrorEvent]:
        """Return the newest ``n`` retained events (all of them if ``n`` is larger).

        Walks runs from the right, so the cost is O(n), not O(capacity) — this
        is what keeps per-request error attribution cheap on servers whose log
        holds thousands of older events.
        """
        if n <= 0:
            return []
        picked: List[list] = []
        remaining = n
        for run in reversed(self._runs):
            first, stride, start, count = run
            if count <= remaining:
                picked.append(run)
                remaining -= count
            else:
                picked.append([first, stride, start + count - remaining, remaining])
                remaining = 0
            if remaining == 0:
                break
        result: List[MemoryErrorEvent] = []
        for run in reversed(picked):
            result.extend(self._expand(run))
        return result


__all__ = [
    "Sink",
    "ListSink",
    "CounterSink",
    "CoalescingRingSink",
]
