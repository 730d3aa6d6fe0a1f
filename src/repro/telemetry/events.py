"""Typed telemetry events: the vocabulary of the unified event stream.

The paper's §3 error log records *attempted memory errors*; this module widens
that record into a structured stream covering the whole request lifecycle, so
that forensics ("which attack caused which anticipated error?"), per-site
heatmaps, and soak-run dashboards are queries over one stream instead of
ad-hoc bookkeeping in each harness layer:

* :class:`InvalidAccess` — one attempted invalid access (wraps the paper's
  :class:`~repro.errors.MemoryErrorEvent`), emitted by every checking policy.
* :class:`Discard` / :class:`Manufacture` / :class:`Redirect` — the
  continuation the policy executed for the access (failure-oblivious writes,
  manufactured reads, §5.1 redirects).

Run-carrying events
-------------------
The out-of-bounds continuation classifies a whole contiguous invalid run once
instead of once per element, and a policy decides it in one call.  A run is
``count`` element accesses of ``width`` bytes each: a block access is a run
of one element as wide as the access, a span's out-of-bounds part a run of
one-byte elements, and an element-wise store's (such as Apache's 4-byte
capture offsets) a run of ``width``-byte elements.  So that the event stream
loses no information, the access-level events carry the run explicitly:

* :class:`InvalidAccess` has ``count``/``stride``: the record stands for
  ``count`` error events whose offsets are ``error.offset + stride*i``, each
  ``error.length == width`` bytes long.  A run of one element is the
  ordinary single event (``count == 1``, ``stride == 1``); a longer run has
  ``stride == width``.  :meth:`InvalidAccess.expand` reproduces the exact
  event sequence.
* :class:`Discard` / :class:`Manufacture` / :class:`Redirect` have ``count``:
  how many element continuation decisions the record batches.  A block
  access, a one-element run covering ``length`` bytes, has ``count == 1``; a
  per-byte run has ``count == length``, and a run of wider elements
  ``count == length // width``.

Aggregate consumers (:class:`~repro.telemetry.sinks.CounterSink`, trace
summaries) weight by these fields, which is what keeps every error-log and
trace-summary query bit-identical whether a flood was recorded per byte or
as runs.
* :class:`AllocFree` — heap allocator activity, for leak/heap forensics.
* :class:`RequestStart` / :class:`RequestEnd` — the server request lifecycle;
  the ``request_id`` is the trace id correlating everything in between.
* :class:`ScenarioStart` / :class:`ScenarioEnd` — one experiment scenario
  (one :class:`~repro.harness.engine.ScenarioSpec` run), demarcating the
  stream so exports of multi-scenario runs stay attributable.
* :class:`SnapshotTaken` / :class:`RollbackPerformed` /
  :class:`RequestQuarantined` / :class:`FaultInjected` — the self-healing
  lifecycle (PR 10): incremental snapshots, rollback recoveries (and
  boot-image restarts, flagged), poison-request quarantines, and injected
  faults, all flowing through the same stream so ``fleet report`` rebuilds
  recovery tallies from an export exactly.

Every event class is a :func:`~repro.errors.frozen_record`: a frozen, slotted
dataclass built in one step, because the continuation emits several per
invalid access. Every event type serializes to a flat JSON record via
:func:`to_record` and back via :func:`from_record`; the round trip is exact
(property-tested), which is what lets ``repro trace`` re-summarize an exported
run offline with the same aggregate counts the live run produced.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Type

from repro.errors import AccessKind, ErrorKind, MemoryErrorEvent, frozen_record


@frozen_record
class InvalidAccess:
    """One attempted invalid memory access (the §3 error-log entry).

    ``count > 1`` makes this a *run* record standing for ``count`` events at
    offsets ``error.offset + stride * i`` (all other fields equal, so each
    is ``error.length`` bytes long: 1 for a per-byte run, ``stride`` for a
    run of elements); :meth:`expand` materializes that sequence.
    """

    error: MemoryErrorEvent
    count: int = 1
    stride: int = 1

    def expand(self) -> Iterator[MemoryErrorEvent]:
        """Yield the error events this record stands for."""
        return iter(self.error.run(self.stride, 0, self.count))


def expand_invalid_accesses(events: Iterable["InvalidAccess"]) -> List[MemoryErrorEvent]:
    """Flatten a stream of (possibly run-carrying) records to single events."""
    out: List[MemoryErrorEvent] = []
    for event in events:
        out.extend(event.expand())
    return out


@frozen_record
class Discard:
    """An invalid write whose bytes the policy dropped (or stored, boundless)."""

    length: int
    site: str = ""
    request_id: Optional[int] = None
    #: True when a boundless policy kept the bytes in its side store instead
    #: of dropping them outright.
    stored: bool = False
    #: Number of element discard decisions batched into this record (1 for a
    #: block access, which is a one-element run; ``length`` for a per-byte
    #: run; the element count for a run of wider elements).
    count: int = 1


@frozen_record
class Manufacture:
    """Manufactured bytes supplied for an invalid read."""

    length: int
    site: str = ""
    request_id: Optional[int] = None
    #: Number of element manufacture decisions batched into this record (1
    #: for a block access, which is a one-element run; ``length`` for a
    #: per-byte run).
    count: int = 1


@frozen_record
class Redirect:
    """An out-of-bounds access wrapped back into its unit (§5.1 redirect)."""

    offset: int
    redirect_offset: int
    length: int
    access: str = AccessKind.READ.value
    site: str = ""
    request_id: Optional[int] = None
    #: Number of redirected element accesses batched into this record (1 for
    #: a block access, which is a one-element run; bytes, in a per-byte run).
    count: int = 1


@frozen_record
class AllocFree:
    """One heap allocator operation (``malloc`` or ``free``)."""

    op: str
    unit_name: str
    size: int
    base: int
    request_id: Optional[int] = None


@frozen_record
class RequestStart:
    """A server began processing one request; ``request_id`` is the trace id."""

    request_id: int
    kind: str
    is_attack: bool = False


@frozen_record
class RequestEnd:
    """A server finished one request, with its classified outcome.

    ``memory_errors`` counts every invalid access the request provoked and
    ``error_sites`` groups them by site, so aggregate consumers can tally
    request-scoped error statistics from this one event without replaying
    the interleaved :class:`InvalidAccess` stream.  ``error_sites`` covers
    only the records the error log's ring retains (the newest
    ``capacity``), as :attr:`~repro.errors.RequestResult.memory_errors`
    does; on a request that overflows the ring its counts sum to less than
    ``memory_errors``.
    """

    request_id: int
    kind: str
    outcome: str
    is_attack: bool = False
    elapsed_seconds: float = 0.0
    memory_errors: int = 0
    error_sites: Tuple[Tuple[str, int], ...] = ()


@frozen_record
class ScenarioStart:
    """One experiment scenario began (one ScenarioSpec dispatched by the engine)."""

    scenario_id: int
    server: str
    policy: str
    workload: str
    scale: float = 1.0


@frozen_record
class ScenarioEnd:
    """The scenario finished after ``seconds`` of wall clock."""

    scenario_id: int
    seconds: float = 0.0


@frozen_record
class SnapshotTaken:
    """A recovery supervisor captured one incremental snapshot.

    ``index`` is the snapshot's position in its stream (0 is the base
    image); ``blocks`` / ``delta_bytes`` are the dirty-block count and
    payload size of the delta — the live record of what a cadence costs.
    """

    index: int
    blocks: int = 0
    delta_bytes: int = 0
    request_id: Optional[int] = None


@frozen_record
class RollbackPerformed:
    """A server was rolled back after a fatal fault (or restarted from boot).

    ``request_id`` names the request whose fatal attempt triggered the
    rollback when that attempt is *non-terminal* (the supervisor retries or
    quarantines it, or degrades a rollback loop to the boot image); tally
    consumers use it to cancel the attempt's failed-count.  ``request_id is
    None`` means the rollback did not undo a terminal request disposition:
    the supervisor's monitor restart of a dead server before the next
    request (or at construction, for a boot-fatal image).
    ``to_boot_image`` distinguishes full boot-image restarts from snapshot
    rollbacks.  A request rolled back and then served ends with its served
    :class:`RequestEnd`: that pair is how a consumer counts a retry that
    succeeded.
    """

    snapshot_index: int
    request_id: Optional[int] = None
    kind: str = ""
    is_attack: bool = False
    blocks_restored: int = 0
    to_boot_image: bool = False


@frozen_record
class RequestQuarantined:
    """A poison request was dropped after killing the server repeatedly.

    The terminal disposition of the request (its fatal attempts were each
    cancelled by a :class:`RollbackPerformed`), mirroring how the fleet's
    boot-fatal drops flow through the stream as synthetic request ends.
    """

    request_id: int
    kind: str
    is_attack: bool = False
    attempts: int = 0


@frozen_record
class FaultInjected:
    """The fault injector fired once (corruption, failed alloc, or abort)."""

    kind: str
    request_id: Optional[int] = None
    address: int = 0
    length: int = 0
    point: str = ""


#: Registry mapping the on-disk ``event`` tag to the event class.
EVENT_TYPES: Dict[str, type] = {
    "invalid-access": InvalidAccess,
    "discard": Discard,
    "manufacture": Manufacture,
    "redirect": Redirect,
    "alloc-free": AllocFree,
    "request-start": RequestStart,
    "request-end": RequestEnd,
    "scenario-start": ScenarioStart,
    "scenario-end": ScenarioEnd,
    "snapshot-taken": SnapshotTaken,
    "rollback": RollbackPerformed,
    "request-quarantined": RequestQuarantined,
    "fault-injected": FaultInjected,
}

_TYPE_NAMES = {cls: name for name, cls in EVENT_TYPES.items()}


def to_record(event: object) -> Dict[str, object]:
    """Serialize one event to a flat JSON-compatible dict.

    The ``event`` key carries the registry tag; :class:`InvalidAccess` flattens
    its nested :class:`~repro.errors.MemoryErrorEvent` (enums as their string
    values).  ``error_sites`` tuples become lists (JSON has no tuples); the
    deserializer restores them.
    """
    if isinstance(event, InvalidAccess):
        error = event.error
        return {
            "event": "invalid-access",
            "kind": error.kind.value,
            "access": error.access.value,
            "unit_name": error.unit_name,
            "unit_size": error.unit_size,
            "offset": error.offset,
            "length": error.length,
            "site": error.site,
            "request_id": error.request_id,
            "count": event.count,
            "stride": event.stride,
        }
    record: Dict[str, object] = {"event": _TYPE_NAMES[type(event)]}
    for field in fields(event):
        value = getattr(event, field.name)
        if field.name == "error_sites":
            value = [list(pair) for pair in value]
        record[field.name] = value
    return record


def from_record(record: Dict[str, object]) -> object:
    """Deserialize one :func:`to_record` dict back into its event instance.

    Unknown keys (``scope``, ``scenario`` — stamped by the export session) are
    ignored, so records read back from a ``repro trace`` export parse as-is.
    """
    tag = record.get("event")
    try:
        cls: Type = EVENT_TYPES[tag]  # type: ignore[index]
    except KeyError:
        raise ValueError(f"unknown event type {tag!r}") from None
    if cls is InvalidAccess:
        return InvalidAccess(
            error=MemoryErrorEvent(
                kind=ErrorKind(record["kind"]),
                access=AccessKind(record["access"]),
                unit_name=record["unit_name"],
                unit_size=record["unit_size"],
                offset=record["offset"],
                length=record["length"],
                site=record.get("site", ""),
                request_id=record.get("request_id"),
            ),
            count=record.get("count", 1),
            stride=record.get("stride", 1),
        )
    kwargs = {}
    for field in fields(cls):
        if field.name not in record:
            continue
        value = record[field.name]
        if field.name == "error_sites":
            value = tuple((site, count) for site, count in value)
        kwargs[field.name] = value
    return cls(**kwargs)
