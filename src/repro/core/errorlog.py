"""The optional memory-error log described in Section 3 of the paper.

    "To help make the errors more apparent, our compiler can optionally
    augment the generated code to produce a log containing information about
    the program's attempts to commit memory errors."

A :class:`MemoryErrorLog` is a policy's record of those attempts.  Recording
publishes an :class:`~repro.telemetry.events.InvalidAccess` event on the
log's :class:`~repro.telemetry.bus.EventBus`; the log keeps two sinks
attached to that bus and answers every query from them: a bounded
:class:`~repro.telemetry.sinks.CoalescingRingSink` holding the newest events
(runs of a flood stored as one entry), and a
:class:`~repro.telemetry.sinks.CounterSink` holding lifetime totals, which
the policy statistics read as well.  The same events reach any experiment
sink or JSONL export session attached to the bus.

The stability experiments (§4.4.4, §4.5.4) read this log to make the same
observations the authors made — e.g. that Sendmail commits a memory error
every time its daemon wakes up, and that Midnight Commander commits one for
every blank line in its configuration file.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterator, List, Optional

from repro.errors import AccessKind, MemoryErrorEvent
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

    def record_run(self, event: MemoryErrorEvent, count: int) -> None:
        """Publish a contiguous run of ``count`` events in one record.

        Equivalent to recording ``count`` copies of ``event`` whose offsets
        step by the element width ``event.length`` — every query answers
        identically — but the ring stores the run directly and aggregate
        counters add ``count`` once, which is what makes the batched
        out-of-bounds continuation as cheap per span as a single event.  A
        run of one element is the plain single record :meth:`record` makes.
        """
        if count == 1:
            self.bus.emit(InvalidAccess(error=event))
        elif count > 0:
            self.bus.emit(InvalidAccess(error=event, count=count, stride=event.length))

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
