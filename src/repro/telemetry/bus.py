"""The event bus: one ``emit`` call fans an event out to every consumer.

Each simulated process image (one policy + one memory context + one server)
owns one bus.  The policy's error-log façade attaches the bounded ring and the
aggregate counters, experiments attach their own sinks, and when a
:class:`~repro.telemetry.session.TelemetrySession` is active every emit is
additionally forwarded there for JSONL export — stamped with this bus's
``scope`` (server and policy names) so exported streams from many servers
remain attributable after merging.

Every bus flushes the process's open run of coalesced out-of-bounds stores
(:mod:`repro.telemetry.openrun`) before anything can observe the stream:
before each emit, attach and detach, and each read of ``sinks``.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.telemetry import openrun
from repro.telemetry.openrun import flush_open_run
from repro.telemetry.session import current_session
from repro.telemetry.sinks import Sink


class EventBus:
    """Synchronous fan-out of typed events to attached sinks.

    Attributes
    ----------
    scope:
        Labels merged into exported records (``server``, ``policy``).  Set by
        whoever knows them: the policy stamps its name at construction, the
        server stamps its name when it builds its memory context.
    current_request_id:
        The request being processed, stamped onto events emitted by components
        that do not carry their own request attribution (the allocator).

    Every method that delivers to the sinks or changes or shows which sinks
    are attached first flushes the process's open run (module docstring), so
    a sink sees a coalesced run exactly where the per-byte stores' records
    would have reached it: an attached sink gets it, a sink attached later
    does not.
    """

    __slots__ = ("_sinks", "scope", "current_request_id")

    def __init__(self) -> None:
        self._sinks: List[Sink] = []
        self.scope: Dict[str, str] = {}
        self.current_request_id: Optional[int] = None

    def attach(self, sink: Sink) -> Sink:
        """Attach a sink (returned for chaining).

        Identity-based: the same object is not added twice, but two distinct
        sinks that happen to compare equal (e.g. two empty counters) are.
        """
        flush_open_run()
        if not any(attached is sink for attached in self._sinks):
            self._sinks.append(sink)
        return sink

    def detach(self, sink: Sink) -> None:
        """Detach a sink (by identity); detaching an unattached sink is a no-op."""
        flush_open_run()
        self._sinks = [attached for attached in self._sinks if attached is not sink]

    @property
    def sinks(self) -> List[Sink]:
        """The attached sinks (a copy; attach/detach to modify)."""
        flush_open_run()
        return list(self._sinks)

    def emit(self, event: object) -> None:
        """Deliver one event to every attached sink and any active export session."""
        if openrun.open_run is not None:  # the hot path pays one attribute read
            flush_open_run()
        for sink in self._sinks:
            sink.emit(event)
        session = current_session()
        if session is not None:
            session.write(event, self.scope)
