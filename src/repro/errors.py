"""Exception hierarchy and outcome model for the failure-oblivious runtime.

The paper distinguishes three builds of each server (Standard, Bounds Check,
Failure Oblivious) by what happens at the moment an out-of-bounds access is
attempted.  The exceptions in this module are the Python analogue of the three
possible hard outcomes:

* ``SegmentationFault`` -- the Standard (unchecked) build corrupted memory and
  the process died, exactly like a real segfault.
* ``BoundsCheckViolation`` -- the Bounds Check (CRED) build detected the error
  and terminated with a message.
* ``ControlFlowHijack`` -- the Standard build's corrupted return address was
  attacker-controlled; the paper describes this as the attacker executing
  injected code.

The Failure Oblivious build never raises any of these for a memory error; it
records a :class:`MemoryErrorEvent` in its log and keeps going.
"""

from __future__ import annotations

import enum
from dataclasses import MISSING, dataclass, field, fields
from typing import List, Optional


def frozen_record(cls: type) -> type:
    """``@dataclass(frozen=True, slots=True)`` with a one-step ``__init__``.

    A frozen dataclass's generated ``__init__`` stores each field with
    ``object.__setattr__``, which costs more than the rest of building a
    small record.  The records on the substrate's hot paths (pointers, error
    events, telemetry events, access decisions) are built once per access,
    so this decorator replaces that ``__init__`` with one of the same
    signature and defaults that stores each field through its slot
    descriptor.  Everything else is the dataclass's own: equality, hash,
    repr, pickling, ``fields``/``replace``, and :class:`FrozenInstanceError`
    on assignment.
    """
    cls = dataclass(frozen=True, slots=True)(cls)
    namespace = {}
    params = []
    body = []
    for spec in fields(cls):
        if not spec.init or spec.kw_only or spec.default_factory is not MISSING:
            raise TypeError(f"frozen_record does not support field {spec.name!r}")
        name = spec.name
        namespace[f"_set_{name}"] = getattr(cls, name).__set__
        if spec.default is MISSING:
            params.append(name)
        else:
            namespace[f"_default_{name}"] = spec.default
            params.append(f"{name}=_default_{name}")
        body.append(f"    _set_{name}(self, {name})")
    if hasattr(cls, "__post_init__"):
        raise TypeError("frozen_record does not support __post_init__")
    source = f"def __init__(self, {', '.join(params)}):\n" + ("\n".join(body) or "    pass")
    exec(source, namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__annotations__ = cls.__init__.__annotations__
    cls.__init__ = init
    return cls


class MemoryFault(Exception):
    """Base class for all faults produced by the simulated memory system."""


class SegmentationFault(MemoryFault):
    """Raised when an unchecked access touches unmapped or protective memory.

    This models the behaviour of the paper's *Standard* build: the program is
    allowed to corrupt its address space and eventually dies with SIGSEGV.
    """

    def __init__(self, address: int, message: str = "") -> None:
        self.address = address
        super().__init__(message or f"segmentation fault at address {address:#x}")

    def __reduce__(self):
        # Exceptions pickle as ``cls(*args)``, but ``args`` holds the formatted
        # message, not the constructor arguments; spell them out so results can
        # cross process-pool boundaries (ExperimentEngine.run_many).  The
        # message is included because callers (the stack) raise with custom text.
        return (type(self), (self.address, str(self)))


class BoundsCheckViolation(MemoryFault):
    """Raised by the Bounds Check policy at the first detected memory error.

    Models the CRED safe-C compiler used for the paper's *Bounds Check* build,
    which prints an error message and terminates the program.
    """

    def __init__(self, event: "MemoryErrorEvent") -> None:
        self.event = event
        super().__init__(f"bounds check violation: {event.describe()}")

    def __reduce__(self):
        return (type(self), (self.event,))


class ControlFlowHijack(MemoryFault):
    """Raised when a corrupted return address is attacker controlled.

    In the real attacks the server jumps to injected code.  We cannot (and do
    not want to) execute injected code, so the simulated call stack raises this
    exception instead, which the harness classifies as a successful exploit.
    """

    def __init__(self, address: int, payload_tag: str) -> None:
        self.address = address
        self.payload_tag = payload_tag
        super().__init__(
            f"control flow hijacked to {address:#x} (payload {payload_tag!r})"
        )

    def __reduce__(self):
        return (type(self), (self.address, self.payload_tag))


class DoubleFree(MemoryFault):
    """Raised by the heap allocator when a block is freed twice."""


class HeapCorruption(MemoryFault):
    """Raised when heap metadata was smashed and later used by the allocator."""


class UseAfterFree(MemoryFault):
    """Raised on access through a pointer to a freed data unit (checked builds)."""

    def __init__(self, event: "MemoryErrorEvent") -> None:
        self.event = event
        super().__init__(f"use after free: {event.describe()}")

    def __reduce__(self):
        return (type(self), (self.event,))


class InfiniteLoopGuard(MemoryFault):
    """Raised when a guarded loop exceeds its iteration budget.

    The paper notes that manufactured read values can drive loop conditions
    (the Midnight Commander ``/`` search); a poor value sequence can hang the
    program.  Server loops in this reproduction are guarded so that a hang
    becomes an observable outcome instead of wedging the test suite.
    """


class MiniCError(Exception):
    """Base class for mini-C front end errors (lexing, parsing, typing)."""


class AccessKind(enum.Enum):
    """Whether a faulting access was a read or a write."""

    READ = "read"
    WRITE = "write"

    # Members are singletons and compare by identity, so identity hashing
    # keeps every dict, Counter and pickle answer.  It runs in C, whereas
    # ``Enum.__hash__`` is Python code, run on each key the error log's
    # counters touch (four per invalid-access record).
    __hash__ = object.__hash__


class ErrorKind(enum.Enum):
    """Classification of a detected memory error."""

    OUT_OF_BOUNDS = "out-of-bounds"
    USE_AFTER_FREE = "use-after-free"
    UNINITIALIZED = "uninitialized"
    NULL_DEREF = "null-dereference"
    INVALID_FREE = "invalid-free"

    # C-level identity hashing, as for AccessKind.
    __hash__ = object.__hash__


@frozen_record
class MemoryErrorEvent:
    """One attempted invalid memory access.

    These events are what the optional memory-error log described in Section 3
    of the paper records; the harness also uses them to measure error
    propagation distances.
    """

    kind: ErrorKind
    access: AccessKind
    unit_name: str
    unit_size: int
    offset: int
    length: int
    site: str = ""
    request_id: Optional[int] = None

    def run(self, stride: int, start: int, stop: int) -> List["MemoryErrorEvent"]:
        """Events ``start .. stop - 1`` of the run this event begins.

        Event ``i`` of a run is this event with its offset moved by
        ``stride * i`` (event 0 is this very instance); the error ring and
        run-carrying :class:`~repro.telemetry.events.InvalidAccess` records
        expand their stored runs through here.
        """
        cls = type(self)
        kind, access, unit_name, unit_size = self.kind, self.access, self.unit_name, self.unit_size
        offset, length, site, request_id = self.offset, self.length, self.site, self.request_id
        return [
            self if i == 0 else cls(kind, access, unit_name, unit_size,
                                    offset + stride * i, length, site, request_id)
            for i in range(start, stop)
        ]

    def describe(self) -> str:
        """Return a one-line human readable description of the event."""
        return (
            f"{self.access.value} of {self.length} byte(s) at offset {self.offset} "
            f"of {self.unit_size}-byte unit {self.unit_name!r} "
            f"({self.kind.value}{', at ' + self.site if self.site else ''})"
        )


class RequestOutcome(enum.Enum):
    """How the server loop resolved one request.

    The paper's evaluation sections describe outcomes in these terms: the
    Standard build crashes (or is exploited), the Bounds Check build
    terminates, and the Failure Oblivious build either serves the request or
    turns the attack into an anticipated error case that the server's own
    error-handling logic rejects.
    """

    SERVED = "served"
    REJECTED_BY_ERROR_HANDLING = "rejected-by-error-handling"
    CRASHED = "crashed"
    TERMINATED_BY_CHECK = "terminated-by-check"
    EXPLOITED = "exploited"
    HUNG = "hung"


#: Outcomes after which the server process no longer exists and cannot serve
#: subsequent requests without being restarted.
FATAL_OUTCOMES = frozenset(
    {
        RequestOutcome.CRASHED,
        RequestOutcome.TERMINATED_BY_CHECK,
        RequestOutcome.EXPLOITED,
        RequestOutcome.HUNG,
    }
)


@dataclass
class RequestResult:
    """The result of processing a single request under some policy."""

    outcome: RequestOutcome
    response: Optional[object] = None
    error: Optional[BaseException] = None
    #: The request's memory-error records the error log's ring still retains
    #: (its newest ``capacity``); a request that overflows the ring made
    #: more, which ``RequestEnd.memory_errors`` counts.
    memory_errors: list = field(default_factory=list)
    elapsed_seconds: float = 0.0

    @property
    def fatal(self) -> bool:
        """True if the server died while processing this request."""
        return self.outcome in FATAL_OUTCOMES

    @property
    def acceptable(self) -> bool:
        """True if the user-visible behaviour was acceptable (paper's criterion)."""
        return self.outcome in (
            RequestOutcome.SERVED,
            RequestOutcome.REJECTED_BY_ERROR_HANDLING,
        )
