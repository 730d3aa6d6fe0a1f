"""The optional memory-error log described in Section 3 of the paper.

    "To help make the errors more apparent, our compiler can optionally
    augment the generated code to produce a log containing information about
    the program's attempts to commit memory errors."

Since the telemetry refactor this class is a *compatibility façade* over the
unified event stream: :meth:`MemoryErrorLog.record` publishes an
:class:`~repro.telemetry.events.InvalidAccess` event on the log's
:class:`~repro.telemetry.bus.EventBus`, and every query reads back from the
bounded :class:`~repro.telemetry.sinks.CoalescingRingSink` and aggregate
:class:`~repro.telemetry.sinks.CounterSink` the façade keeps attached to that
bus.  The answers are bit-identical to the pre-refactor log (the equivalence
is asserted by ``tests/test_telemetry.py``), but the same events now also
reach any experiment sinks and JSONL export sessions attached to the bus.

The stability experiments (§4.4.4, §4.5.4) read this log to make the same
observations the authors made — e.g. that Sendmail commits a memory error
every time its daemon wakes up, and that Midnight Commander commits one for
every blank line in its configuration file.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Iterator, List, Optional

from repro.errors import AccessKind, ErrorKind, MemoryErrorEvent
from repro.telemetry.bus import EventBus
from repro.telemetry.events import InvalidAccess
from repro.telemetry.sinks import CoalescingRingSink, CounterSink


class MemoryErrorLog:
    """Bounded, queryable log of attempted memory errors.

    Parameters
    ----------
    capacity:
        Maximum number of events retained.  Older events are dropped first,
        but aggregate counters keep counting, so long stability runs stay
        cheap while still reporting totals.  Storage coalesces runs of
        repeated same-site events (attack floods hitting the per-byte
        out-of-bounds fallback), so retention is bounded by ``capacity``
        events but costs one object per *run*.
    bus:
        The event bus this log records through.  A fresh private bus is
        created when omitted, so standalone ``MemoryErrorLog()`` construction
        keeps working exactly as before the telemetry refactor.
    """

    def __init__(self, capacity: int = 10_000, bus: Optional[EventBus] = None) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.bus = bus if bus is not None else EventBus()
        self._ring = CoalescingRingSink(capacity)
        #: Aggregate tallies of everything published on the bus: the
        #: queries below and the policy statistics read them.
        self.counters = CounterSink()
        self.bus.attach(self._ring)
        self.bus.attach(self.counters)

    def record(self, event: MemoryErrorEvent) -> None:
        """Publish one event on the bus (the ring evicts the oldest when full)."""
        self.bus.emit(InvalidAccess(error=event))

    def record_run(self, event: MemoryErrorEvent, count: int, stride: int = 1) -> None:
        """Publish a contiguous run of ``count`` events in one record.

        Equivalent to recording ``count`` copies of ``event`` whose offsets
        step by ``stride`` (1 for a per-byte run, the element width for an
        element-wise store) — every query answers identically — but the ring
        stores the run directly and aggregate counters add ``count`` once,
        which is what makes the batched out-of-bounds continuation as cheap
        per span as a single event.
        """
        if count <= 0:
            return
        self.bus.emit(InvalidAccess(error=event, count=count, stride=stride))

    def extend(self, events: Iterable[MemoryErrorEvent]) -> None:
        """Record a batch of events."""
        for event in events:
            self.record(event)

    def clear(self) -> None:
        """Discard all recorded events and reset counters."""
        self._ring.clear()
        self.counters.clear()

    def checkpoint(self) -> tuple:
        """Snapshot the ring and the aggregate counters (pure data)."""
        return (self._ring.checkpoint(), self.counters.checkpoint())

    def restore(self, cp: tuple) -> None:
        """Reset ring and counters to a snapshot taken by :meth:`checkpoint`.

        Every query answers exactly as it did at checkpoint time; sinks other
        than the façade's own pair are untouched (external observers are the
        server's concern — it replays the boot event stream to them).
        """
        ring_cp, counts_cp = cp
        self._ring.restore(ring_cp)
        self.counters.restore(counts_cp)

    # -- queries ----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._ring)

    def __iter__(self) -> Iterator[MemoryErrorEvent]:
        return iter(self._ring.events())

    @property
    def total_recorded(self) -> int:
        """Number of events recorded over the log's lifetime (including evicted)."""
        return self.counters.invalid_total

    @property
    def dropped(self) -> int:
        """Number of events evicted because the log was full."""
        return self._ring.dropped

    def events(self) -> List[MemoryErrorEvent]:
        """Return a copy of the retained events, oldest first."""
        return self._ring.events()

    def tail(self, n: int) -> List[MemoryErrorEvent]:
        """Return the newest ``n`` retained events in O(n), oldest first.

        Equivalent to ``events()[-n:]`` without expanding the whole ring;
        the per-request attribution in ``Server._execute`` leans on this.
        """
        return self._ring.tail(n)

    def count_by_site(self) -> Counter:
        """Return error counts keyed by source site label."""
        return Counter(self.counters.invalid_by_site)

    def count_by_kind(self) -> Counter:
        """Return error counts keyed by :class:`~repro.errors.ErrorKind`."""
        return Counter(self.counters.invalid_by_kind)

    def count_reads(self) -> int:
        """Return how many invalid reads were recorded."""
        return self.counters.invalid_by_access.get(AccessKind.READ, 0)

    def count_writes(self) -> int:
        """Return how many invalid writes were recorded."""
        return self.counters.invalid_by_access.get(AccessKind.WRITE, 0)

    def events_for_request(self, request_id: int) -> List[MemoryErrorEvent]:
        """Return retained events tagged with the given request id."""
        return [e for e in self._ring.events() if e.request_id == request_id]

    def most_common_sites(self, n: int = 5) -> List[tuple]:
        """Return the ``n`` sites with the most recorded errors."""
        return self.counters.invalid_by_site.most_common(n)

    def summary(self) -> str:
        """Return a multi-line human readable summary, as an administrator would read."""
        lines = [
            f"memory error log: {self.total_recorded} error(s) recorded"
            + (f" ({self.dropped} evicted)" if self.dropped else "")
        ]
        for kind, count in sorted(
            self.counters.invalid_by_kind.items(), key=lambda kv: -kv[1]
        ):
            lines.append(f"  {kind.value}: {count}")
        for site, count in self.counters.invalid_by_site.most_common(5):
            lines.append(f"  site {site or '<unknown>'}: {count}")
        return "\n".join(lines)

    def find(
        self,
        kind: Optional[ErrorKind] = None,
        site_substring: Optional[str] = None,
    ) -> List[MemoryErrorEvent]:
        """Return retained events matching the given filters."""
        result = []
        for event in self._ring.events():
            if kind is not None and event.kind is not kind:
                continue
            if site_substring is not None and site_substring not in event.site:
                continue
            result.append(event)
        return result
