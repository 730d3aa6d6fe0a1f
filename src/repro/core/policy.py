"""The access-policy interface that defines a build variant.

A *policy* answers the question the paper's continuation code answers: what
happens at the moment the program attempts an invalid memory access?  The
simulated memory substrate (:mod:`repro.memory`) routes every access through a
:class:`~repro.memory.accessor.MemoryAccessor`, which consults its policy:

* if the policy does not perform checks (the *Standard* build), the raw access
  is performed at the computed address, corruption and all, and the policy is
  never asked;
* if it does perform checks and the access is invalid, the accessor hands the
  policy the invalid part as a *run* of element accesses (a block access is a
  run of one element), and the policy returns an :class:`AccessDecision`
  saying whether to raise, discard, supply manufactured bytes, or redirect
  the access to a different location.

The concrete policies live in :mod:`repro.core.policies`.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Optional, Tuple

from repro.core.errorlog import MemoryErrorLog
from repro.errors import AccessKind, MemoryErrorEvent, frozen_record
from repro.telemetry.bus import EventBus


class DecisionAction(enum.Enum):
    """The continuation chosen by a policy for one invalid access."""

    #: Raise the attached exception, terminating the computation.
    RAISE = "raise"
    #: Invalid write: silently drop the value (failure-oblivious writes).
    DISCARD = "discard"
    #: Invalid read: return the attached manufactured bytes (failure-oblivious reads).
    SUPPLY = "supply"
    #: Perform the access at a substitute in-bounds offset (redirect variant).
    REDIRECT = "redirect"


@frozen_record
class AccessDecision:
    """What the memory accessor should do for one invalid access.

    Exactly one of the optional payload fields is meaningful, selected by
    ``action``:  ``exception`` for RAISE, ``data`` for SUPPLY, and
    ``redirect_offset`` for REDIRECT.  Decisions are immutable, so the
    payload-free one (:meth:`discard`) is a shared constant.
    """

    action: DecisionAction
    data: Optional[bytes] = None
    exception: Optional[BaseException] = None
    redirect_offset: Optional[int] = None

    @classmethod
    def raise_(cls, exception: BaseException) -> "AccessDecision":
        """Decision that terminates the computation with ``exception``."""
        return cls(action=DecisionAction.RAISE, exception=exception)

    @staticmethod
    def discard() -> "AccessDecision":
        """Decision that drops an invalid write."""
        return _DISCARD

    @classmethod
    def supply(cls, data: bytes) -> "AccessDecision":
        """Decision that satisfies an invalid read with manufactured ``data``."""
        return cls(action=DecisionAction.SUPPLY, data=data)

    @classmethod
    def redirect(cls, offset: int) -> "AccessDecision":
        """Decision that performs the access at in-unit ``offset`` instead."""
        return cls(action=DecisionAction.REDIRECT, redirect_offset=offset)


_DISCARD = AccessDecision(DecisionAction.DISCARD)


@dataclasses.dataclass(frozen=True)
class PolicyStatistics:
    """A read-only snapshot of one policy's counters (see :attr:`AccessPolicy.stats`).

    ``checks_performed`` counts bounds checks executed (the overhead source in
    the paper's performance figures); the policy keeps that one itself.  The
    other six count continuation code executions and are read from the error
    log's :class:`~repro.telemetry.sinks.CounterSink`, which tallies the
    events every policy publishes: invalid reads and writes from
    ``InvalidAccess`` records, manufactured bytes from ``Manufacture``,
    discarded and stored bytes from ``Discard``, and redirected accesses from
    ``Redirect``.
    """

    checks_performed: int = 0
    invalid_reads: int = 0
    invalid_writes: int = 0
    manufactured_values: int = 0
    discarded_bytes: int = 0
    redirected_accesses: int = 0
    stored_out_of_bounds_bytes: int = 0

    def as_dict(self) -> dict:
        """Return the counters as a plain dictionary (for reports)."""
        return dataclasses.asdict(self)


class AccessPolicy:
    """Interface implemented by every build variant.

    Checking builds implement the run hooks (:meth:`on_invalid_read_run`,
    :meth:`on_invalid_write_run`, :meth:`scan_invalid_read_run`); the
    accessor calls them only when :attr:`performs_checks` is True and a
    check failed.  The Standard build implements none of them.
    """

    #: Short machine-readable name used by the harness and reports.
    name: str = "abstract"
    #: Whether the accessor should run bounds checks at all.  The Standard
    #: build sets this to False, which is also why it is the fastest build.
    performs_checks: bool = True

    def __init__(self) -> None:
        self.error_log = MemoryErrorLog()
        #: Bounds checks executed: the one counter no published event carries.
        self.checks_performed = 0
        # Scope exported telemetry records with the build name.
        self.bus.scope["policy"] = self.name

    # -- run hooks -------------------------------------------------------------
    #
    # A *run* is a contiguous sequence of invalid element accesses, all
    # classified alike: the out-of-bounds part of a block access (one element
    # of ``length`` bytes), the out-of-bounds suffix of a span operation
    # (one-byte elements), or that of an element-wise store
    # (``MemoryAccessor.write_each``, ``width``-byte elements).  A hook
    # receives the first element's event, whose ``length`` is the element
    # width, plus the run size; element ``i`` is the event moved by
    # ``i * event.length`` bytes (:meth:`MemoryErrorEvent.run`).  The hook
    # makes one decision covering the whole run and records it as one run
    # (:meth:`record_event_run`).  These hooks are the only protocol between
    # the accessor and a policy.

    def on_invalid_read_run(self, event: MemoryErrorEvent, count: int) -> AccessDecision:
        """Decide a contiguous run of ``count`` invalid element reads at once."""
        raise NotImplementedError(f"{type(self).__name__} lacks on_invalid_read_run")

    def on_invalid_write_run(self, event: MemoryErrorEvent, data: bytes) -> AccessDecision:
        """Decide a contiguous run of ``len(data) // event.length`` invalid
        element writes at once."""
        raise NotImplementedError(f"{type(self).__name__} lacks on_invalid_write_run")

    def scan_invalid_read_run(
        self, event: MemoryErrorEvent, count: int, until: Tuple[int, ...]
    ) -> AccessDecision:
        """Batched terminator scan: per-byte reads that stop at a sentinel.

        The C-string loops read invalid bytes one at a time *until a
        terminator appears* — so the run length is data-dependent and cannot
        be fixed up front without over-consuming the manufactured-value
        sequence.  Policies whose invalid-read bytes are internally generated
        (failure-oblivious, boundless) produce up to ``count`` bytes in a
        SUPPLY decision, stopping after the first byte in ``until``, and
        record exactly as many per-byte events as bytes produced; the hit is
        the last returned byte iff it is in ``until``.

        Policies whose invalid-read bytes live in simulated memory (redirect)
        cannot produce the bytes themselves; they return a REDIRECT decision
        instead — a *preview*.  The accessor then performs the wrapped scan
        over the unit's own bytes, stopping exactly where the per-byte loop
        would, and reports how many per-byte reads that consumed via
        :meth:`commit_scan_run`, which does the deferred recording.
        """
        raise NotImplementedError(f"{type(self).__name__} lacks scan_invalid_read_run")

    def commit_scan_run(self, event: MemoryErrorEvent, consumed: int) -> None:
        """Record a previewed scan after the accessor performed it.

        Called only after :meth:`scan_invalid_read_run` returned a REDIRECT
        preview; ``consumed`` is how many per-byte invalid reads the scan
        performed (including the terminator hit, if any).  Implementations
        record exactly what a read run of ``consumed`` one-byte elements
        records.
        """
        raise NotImplementedError(
            f"{type(self).__name__} previewed a scan run but lacks commit_scan_run"
        )

    # -- shared bookkeeping ----------------------------------------------------

    @property
    def bus(self) -> EventBus:
        """The telemetry bus this policy publishes on (owned by its error log)."""
        return self.error_log.bus

    def emit(self, event: object) -> None:
        """Publish one telemetry event (continuation decisions, mostly)."""
        self.error_log.bus.emit(event)

    def note_check(self, count: int = 1) -> None:
        """Record that ``count`` bounds checks were executed."""
        self.checks_performed += count

    def record_event(self, event: MemoryErrorEvent) -> None:
        """Log an invalid access attempt."""
        self.error_log.record(event)

    def record_event_run(self, event: MemoryErrorEvent, count: int) -> None:
        """Log a contiguous run of ``count`` invalid element accesses.

        Equivalent to ``count`` calls of :meth:`record_event` on events whose
        offsets step by ``event.length`` bytes — every error-log query and
        statistic answers identically — but published as a single record.
        """
        self.error_log.record_run(event, count)

    @property
    def stats(self) -> PolicyStatistics:
        """Snapshot of the check count and the error log's continuation tallies."""
        counts = self.error_log.counters
        by_access = counts.invalid_by_access
        return PolicyStatistics(
            checks_performed=self.checks_performed,
            invalid_reads=by_access[AccessKind.READ],
            invalid_writes=by_access[AccessKind.WRITE],
            manufactured_values=counts.manufactured_bytes,
            discarded_bytes=counts.discarded_bytes,
            redirected_accesses=counts.redirected_accesses,
            stored_out_of_bounds_bytes=counts.stored_bytes,
        )

    # -- checkpoint / restore --------------------------------------------------
    #
    # A policy carries per-process-image side state: the check count, the
    # error log (whose counters the statistics read), and (in subclasses)
    # manufactured-value generators and out-of-bounds stores.  The
    # process-image checkpoint captures it all so a restored image answers
    # every query exactly as a from-scratch reboot would.  Subclasses extend
    # the returned dict via super().

    def checkpoint_state(self) -> dict:
        """Snapshot the policy's per-image side state (pure data)."""
        return {
            "checks": self.checks_performed,
            "log": self.error_log.checkpoint(),
        }

    def restore_state(self, state: dict) -> None:
        """Reset the policy's side state to a :meth:`checkpoint_state` snapshot."""
        self.checks_performed = state["checks"]
        self.error_log.restore(state["log"])

    def describe(self) -> str:
        """Return a short human readable description of the policy."""
        return f"{self.name} (checks={'on' if self.performs_checks else 'off'})"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.describe()}>"
