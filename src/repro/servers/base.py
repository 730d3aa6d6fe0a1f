"""Server lifecycle shared by every reimplemented server.

The paper evaluates each server by feeding it a workload of requests and
observing whether it crashes, terminates, is exploited, or keeps serving its
users.  This module provides that skeleton:

* :class:`Request` / :class:`Response` — the interaction units.  The paper's
  servers all follow the same simple interaction sequence ("read a request,
  process the request without further interaction, then return the response",
  §1.2), which is what makes their control-flow error propagation distance
  short.
* :class:`Server` — the lifecycle: construct with a *policy factory* (choosing
  a policy is the analogue of choosing a compiler), :meth:`Server.start` runs
  the initialization that several servers crash in, :meth:`Server.process`
  handles one request and classifies the outcome, :meth:`Server.restart`
  models killing and relaunching the process.
* :class:`ServerError` — an *anticipated* error: the server's own
  error-handling logic rejected the input.  The paper's central observation is
  that failure-oblivious execution often converts attacks into exactly these.
"""

from __future__ import annotations

import copy
import itertools
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.policy import AccessPolicy
from repro.errors import (
    BoundsCheckViolation,
    ControlFlowHijack,
    DoubleFree,
    HeapCorruption,
    InfiniteLoopGuard,
    RequestOutcome,
    RequestResult,
    SegmentationFault,
    UseAfterFree,
)
from repro.memory.context import MemoryContext, MemoryImage
from repro.memory.shared_image import SharedImageStore
from repro.telemetry.events import RequestEnd, RequestStart
from repro.telemetry.openrun import flush_open_run
from repro.telemetry.session import current_session
from repro.telemetry.sinks import ListSink, Sink

_request_ids = itertools.count(1)


@dataclass
class Request:
    """One unit of work submitted to a server.

    ``kind`` selects the operation (server specific, e.g. ``"read"`` or
    ``"rewrite"``); ``payload`` carries its arguments; ``is_attack`` marks
    requests built by the attack generators so reports can separate attack and
    legitimate traffic.
    """

    kind: str
    payload: Dict[str, object] = field(default_factory=dict)
    is_attack: bool = False
    request_id: int = field(default_factory=lambda: next(_request_ids))

    def describe(self) -> str:
        """Short label used in reports."""
        tag = " [attack]" if self.is_attack else ""
        return f"{self.kind}#{self.request_id}{tag}"


@dataclass
class Response:
    """The server's answer to one request."""

    status: str
    body: bytes = b""
    detail: str = ""

    @classmethod
    def ok(cls, body: bytes = b"", detail: str = "") -> "Response":
        """A successful response."""
        return cls(status="ok", body=body, detail=detail)

    @classmethod
    def error(cls, detail: str) -> "Response":
        """An anticipated error response produced by the server's own logic."""
        return cls(status="error", detail=detail)

    @property
    def is_ok(self) -> bool:
        """True for successful responses."""
        return self.status == "ok"


class ServerError(Exception):
    """An anticipated error case handled by the server's own error logic.

    Raising this from a handler is equivalent to the server rejecting the
    request with an error message; the loop converts it into an error
    :class:`Response` and keeps the server alive.
    """


@dataclass(frozen=True)
class ProcessImage:
    """The post-boot checkpoint a server restarts (and pre-forks) from.

    * ``ctx`` — the pure-data memory-substrate checkpoint (segments, object
      table, allocator, stack, policy side state including the error log).
    * ``state`` — a deep copy of the server-subclass attributes ``startup()``
      and the handlers established (parsed configuration, folder contents,
      ...).  Restores hand out fresh deep copies, so one image can seed many
      children without sharing mutable state.
    * ``boot_result`` — the classified boot outcome, replayed by restarts.
    * ``boot_events`` — every telemetry event the boot emitted, replayed to
      external observers on restore so the event stream is indistinguishable
      from a from-scratch reboot's.

    Pure data end to end: images cross ``fork`` boundaries and restore into
    any server of the same class and configuration.
    """

    ctx: MemoryImage
    state: Dict[str, object]
    boot_result: RequestResult
    boot_events: Tuple[object, ...]


class Server(ABC):
    """Base class for the five reimplemented servers.

    Parameters
    ----------
    policy_factory:
        Zero-argument callable returning a fresh
        :class:`~repro.core.policy.AccessPolicy`.  A factory (rather than an
        instance) is required because restarting the server must produce a
        clean process image, including fresh policy state.
    config:
        Server specific configuration (mailbox contents, rewrite rules,
        configuration file text, ...).  Defaults are chosen so that every
        server boots cleanly; the workload generators override entries to
        plant the documented error triggers.
    heap_size / stack_size:
        Simulated segment sizes, forwarded to the memory context.
    """

    #: Human readable server name, overridden by subclasses.
    name: str = "abstract"

    #: Base-class bookkeeping that is *not* part of the process image: the
    #: image captures only the state ``startup()`` and the request handlers
    #: establish.  Everything listed here survives restarts unchanged (or is
    #: the restart machinery itself).
    _IMAGE_EXCLUDED_FIELDS = frozenset({
        "policy_factory", "config", "_heap_size", "_stack_size", "policy",
        "ctx", "alive", "started", "requests_processed", "restarts",
        "_telemetry_sinks", "_image", "fault_hook",
    })

    #: Optional fault-injection hook, called as ``hook(server, request,
    #: point)`` with ``point`` in ``{"before", "after"}`` around each
    #: request's handler, inside the classification ``try`` — anything it
    #: raises is classified exactly like a handler fault.  Installed by the
    #: recovery layer's :class:`~repro.recovery.faults.FaultInjector`; not
    #: part of the process image (it is harness machinery, like the sinks).
    fault_hook: Optional[Callable[["Server", Request, str], None]] = None

    def __init__(
        self,
        policy_factory: Callable[[], AccessPolicy],
        config: Optional[Dict[str, object]] = None,
        heap_size: int = 4 * 1024 * 1024,
        stack_size: int = 256 * 1024,
    ) -> None:
        self.policy_factory = policy_factory
        self.config: Dict[str, object] = dict(config or {})
        self._heap_size = heap_size
        self._stack_size = stack_size
        self.policy: AccessPolicy = policy_factory()
        self.ctx = MemoryContext(
            self.policy, heap_size=heap_size, stack_size=stack_size
        )
        self.alive = True
        self.started = False
        self.requests_processed = 0
        self.restarts = 0
        #: The post-boot process image; captured by :meth:`start`, restored by
        #: :meth:`restart`.
        self._image: Optional[ProcessImage] = None
        #: Experiment-attached telemetry sinks, re-attached across restarts so
        #: an aggregator observes the server's whole lifetime, not one process
        #: image (a from-scratch reboot makes a fresh bus).
        self._telemetry_sinks: List[Sink] = []
        self._wire_telemetry()

    def _wire_telemetry(self) -> None:
        """Label the fresh context's bus and re-attach persistent sinks."""
        bus = self.ctx.bus
        bus.scope.setdefault("server", self.name)
        for sink in self._telemetry_sinks:
            bus.attach(sink)

    def add_telemetry_sink(self, sink: Sink) -> Sink:
        """Attach a sink to this server's event stream, surviving restarts."""
        self._telemetry_sinks.append(sink)
        self.ctx.bus.attach(sink)
        return sink

    def limit_history(self, limit: Optional[int]) -> None:
        """Do nothing: a server keeps no per-request results to bound.

        Each :meth:`process` result belongs to its caller alone, and the run
        facts live in the telemetry event stream.  The serving benchmark
        still calls this before a long run.
        """

    # -- subclass hooks -----------------------------------------------------------

    @abstractmethod
    def startup(self) -> None:
        """Run process initialization (load mailbox / config / rules).

        Several of the paper's servers commit their memory error here, which
        is why the Bounds Check builds of Pine, Mutt, and Midnight Commander
        die before the user interface even appears.
        """

    @abstractmethod
    def handle(self, request: Request) -> Response:
        """Process one request.  May raise :class:`ServerError` for anticipated errors."""

    # -- lifecycle ----------------------------------------------------------------

    def start(
        self,
        setup: Sequence[Request] = (),
        store: Optional[SharedImageStore] = None,
    ) -> RequestResult:
        """Boot the server, classifying any fault hit during initialization.

        After a boot that survived, the ``setup`` requests run in order:
        session set-up that brings the process to its serving state (the
        stability experiments' follow-up requests, e.g. Mutt re-opening the
        INBOX after the planted startup folder was rejected).  Then the
        process image — memory substrate, error log, the subclass state
        ``startup()`` and the set-up built, the boot's telemetry stream, and
        the classified boot result — is captured once, so every later
        :meth:`restart` is a restore instead of a rebuild-and-reboot.  The
        set-up requests are not part of the replayed boot stream: a restore
        reads as "the process booted", and they do not reach observers'
        tallies again.  With a ``store`` the image's segment payloads are
        written straight into its shared memory
        (:meth:`SharedImageStore.capture`).  Fatal boots are captured too:
        restarting a server whose trigger lives in its configuration replays
        the same fatal boot, exactly as re-running ``startup()`` would.
        """
        recorder = ListSink()
        self.ctx.bus.attach(recorder)
        try:
            result = self._boot()
        finally:
            self.ctx.bus.detach(recorder)
        if not result.fatal:
            for request in setup:
                self.process(request)
        self._image = ProcessImage(
            ctx=self.ctx.checkpoint() if store is None else store.capture(self.ctx),
            state=self._capture_state(),
            boot_result=result,
            boot_events=tuple(recorder.events),
        )
        return result

    def _boot(self) -> RequestResult:
        result = self._execute(
            Request(kind="__startup__"), lambda _req: self._run_startup()
        )
        self.started = not result.fatal
        return result

    def _run_startup(self) -> Response:
        self.startup()
        return Response.ok(detail="started")

    @property
    def boot_image(self) -> Optional[ProcessImage]:
        """The post-boot checkpoint (None until :meth:`start` has run)."""
        return self._image

    def _capture_state(self) -> Dict[str, object]:
        """Deep-copy the subclass attributes that belong to the process image."""
        return copy.deepcopy({
            key: value
            for key, value in self.__dict__.items()
            if key not in self._IMAGE_EXCLUDED_FIELDS
        })

    def capture_handler_state(self) -> Dict[str, object]:
        """Snapshot the subclass (handler) state as pure data.

        The handler-side counterpart of ``ctx.checkpoint()``: the recovery
        supervisor pairs one of these with each memory snapshot so a
        rollback restores the parsed-configuration/session attributes the
        handlers keep outside simulated memory, in lockstep with the memory
        bytes.  Deep-copied both ways, so captured states are immutable
        history.
        """
        return self._capture_state()

    def restore_handler_state(self, state: Dict[str, object]) -> None:
        """Reinstate a :meth:`capture_handler_state` snapshot.

        Drops subclass attributes added since the capture, then installs
        fresh deep copies of the captured ones (the snapshot stays pristine
        however many times it is restored).  Lifecycle bookkeeping and
        harness wiring (the ``_IMAGE_EXCLUDED_FIELDS``) are untouched.
        """
        for key in list(self.__dict__):
            if key not in self._IMAGE_EXCLUDED_FIELDS and key not in state:
                del self.__dict__[key]
        self.__dict__.update(copy.deepcopy(state))

    def process(self, request: Request) -> RequestResult:
        """Handle one request, returning the classified outcome."""
        if not self.alive:
            return RequestResult(
                outcome=RequestOutcome.CRASHED,
                response=None,
                error=RuntimeError(f"{self.name} is down"),
            )
        result = self._execute(request, self.handle)
        self.requests_processed += 1
        return result

    def stop(self) -> None:
        """Shut the server down (the orderly analogue of killing the process).

        Experiment code calls this once a measurement is finished so warm-up
        and per-cell servers do not linger as live processes for the rest of a
        run.  The memory context (and its error log) stays readable for
        post-mortem introspection; processing further requests is refused the
        same way it is after a crash.  Stopping an already-dead server is a
        no-op.
        """
        self.alive = False
        self.started = False

    def restart(self) -> RequestResult:
        """Bring the process back up after a death (the monitor/reboot model).

        Semantically this is "kill the process and boot a replacement".
        Operationally it restores the post-boot checkpoint captured by
        :meth:`start` — an O(dirty-bytes) memory restore plus a replay of the
        boot's telemetry — which is observably identical to re-constructing
        the substrate and re-running ``startup()`` (the restart-equivalence
        suite proves it for every server under every policy) but orders of
        magnitude cheaper.  Servers that have never booted fall back to
        :meth:`restart_from_scratch`.  The image-replay model assumes
        ``startup()`` is a deterministic function of the configuration and
        the fresh substrate, which holds for every server in the paper; a
        subclass whose consecutive boots differ overrides this method to call
        :meth:`restart_from_scratch`.
        """
        if self._image is None:
            return self.restart_from_scratch()
        self.restarts += 1
        return self._restore_image(self._image)

    def restart_from_scratch(self) -> RequestResult:
        """Re-create the process image and boot again, bypassing the checkpoint.

        The pre-checkpoint restart path, kept as the reference the
        equivalence suite and the restart benchmarks compare against.  It
        captures nothing (the boot image from :meth:`start` stays the
        restart checkpoint), so a scratch restart costs exactly one full
        boot on a fresh substrate.
        """
        self.restarts += 1
        self.policy = self.policy_factory()
        self.ctx = MemoryContext(
            self.policy, heap_size=self._heap_size, stack_size=self._stack_size
        )
        self._wire_telemetry()
        self.alive = True
        self.started = False
        return self._boot()

    def adopt_image(self, image: ProcessImage) -> RequestResult:
        """Boot this (freshly constructed) server from another boot's image.

        The pre-fork clone operation: the template's post-boot checkpoint is
        restored into this server's own substrate, giving a process image
        identical to what this server's own ``start()`` would have produced —
        same memory bytes, same unit labels, same error log — without paying
        the boot.  The image becomes this server's restart checkpoint too.
        """
        self._image = image
        return self._restore_image(image)

    def _restore_image(self, image: ProcessImage) -> RequestResult:
        self.ctx.restore(image.ctx)
        # Drop subclass state added since boot, then reinstate the boot-time
        # snapshot (fresh deep copies: the image stays pristine, and clones
        # sharing one image share no mutable state).
        self.restore_handler_state(image.state)
        boot = image.boot_result
        self.alive = not boot.fatal
        self.started = not boot.fatal
        self._replay_boot_events(image)
        return RequestResult(
            outcome=boot.outcome,
            response=boot.response,
            error=boot.error,
            memory_errors=list(boot.memory_errors),
            elapsed_seconds=boot.elapsed_seconds,
        )

    def _replay_boot_events(self, image: ProcessImage) -> None:
        """Deliver the boot's event stream to external observers.

        The *internal* consumers (the error-log ring and counters, the
        policy's side-state sinks) were restored wholesale with the image;
        replaying into them would double-count.  Experiment sinks and any
        active JSONL export session, by contrast, observe the server across
        restarts, so they receive the same boot stream a from-scratch reboot
        would have emitted.
        """
        session = current_session()
        if not self._telemetry_sinks and session is None:
            return
        scope = self.ctx.bus.scope
        for event in image.boot_events:
            for sink in self._telemetry_sinks:
                sink.emit(event)
            if session is not None:
                session.write(event, scope)

    # -- execution / classification -------------------------------------------------

    def _execute(
        self,
        request: Request,
        handler: Callable[[Request], Response],
    ) -> RequestResult:
        ctx = self.ctx
        ctx.set_request(request.request_id)
        ctx.bus.emit(
            RequestStart(request_id=request.request_id, kind=request.kind,
                         is_attack=request.is_attack)
        )
        errors_before = ctx.error_log.total_recorded
        start_time = time.perf_counter()
        outcome: RequestOutcome
        response: Optional[Response] = None
        error: Optional[BaseException] = None
        try:
            if self.fault_hook is not None:
                self.fault_hook(self, request, "before")
            response = handler(request)
            # Real heap corruption is usually discovered after the faulting
            # store, when the allocator next touches its metadata; model that
            # by walking the heap between requests.
            ctx.heap.verify_heap()
            if self.fault_hook is not None:
                self.fault_hook(self, request, "after")
            outcome = (
                RequestOutcome.SERVED
                if response.is_ok
                else RequestOutcome.REJECTED_BY_ERROR_HANDLING
            )
        except ServerError as exc:
            response = Response.error(str(exc))
            outcome = RequestOutcome.REJECTED_BY_ERROR_HANDLING
        except (BoundsCheckViolation, UseAfterFree) as exc:
            error = exc
            outcome = RequestOutcome.TERMINATED_BY_CHECK
        except ControlFlowHijack as exc:
            error = exc
            outcome = RequestOutcome.EXPLOITED
        except (SegmentationFault, HeapCorruption, DoubleFree) as exc:
            error = exc
            outcome = RequestOutcome.CRASHED
        except InfiniteLoopGuard as exc:
            error = exc
            outcome = RequestOutcome.HUNG
        finally:
            # The request's last coalesced run of out-of-bounds stores is
            # published inside the timed region, as its per-byte records
            # were, so its policy call counts toward the service time.
            flush_open_run()
            elapsed = time.perf_counter() - start_time
            ctx.set_request(None)
        if outcome in (RequestOutcome.CRASHED, RequestOutcome.TERMINATED_BY_CHECK,
                       RequestOutcome.EXPLOITED, RequestOutcome.HUNG):
            self.alive = False
        new_errors = ctx.error_log.total_recorded - errors_before
        new_events = ctx.error_log.tail(new_errors) if new_errors > 0 else []
        site_counts: Dict[str, int] = {}
        for event in new_events:
            site_counts[event.site] = site_counts.get(event.site, 0) + 1
        ctx.bus.emit(
            RequestEnd(
                request_id=request.request_id,
                kind=request.kind,
                outcome=outcome.value,
                is_attack=request.is_attack,
                elapsed_seconds=elapsed,
                memory_errors=new_errors,
                error_sites=tuple(site_counts.items()),
            )
        )
        return RequestResult(
            outcome=outcome,
            response=response,
            error=error,
            memory_errors=list(new_events),
            elapsed_seconds=elapsed,
        )

    # -- introspection ------------------------------------------------------------

    def memory_error_count(self) -> int:
        """Total memory errors attempted over the server's lifetime."""
        return self.ctx.error_log.total_recorded

    def describe(self) -> str:
        """One-line description used in reports."""
        return f"{self.name} [{self.policy.name}]"
