"""The one restart path: a monitor, optionally with rollback recovery.

:class:`RecoverySupervisor` is the paper's terminate-and-restart monitor
(§1.4, §5.6), and every fleet instance runs under one.  With no policy a
fatal request counts as failed and the server stays down until the next
request restarts it from the boot image (lazily: a death on the last
request costs no restart).  A :class:`RecoveryPolicy` adds the incremental
checkpoint stream, so a fatal fault costs only the work since the *last
snapshot*:

1. every ``snapshot_every`` successful requests, take an O(dirty-blocks)
   snapshot (memory via :class:`~repro.memory.checkpoint_stream.CheckpointStream`,
   handler state via :meth:`Server.capture_handler_state`), emitting
   :class:`~repro.telemetry.events.SnapshotTaken`;
2. on a fatal request, roll back to the last snapshot
   (:class:`~repro.telemetry.events.RollbackPerformed`) and retry the
   request at once, up to ``retry_budget`` times;
3. a request that stays fatal through its budget is *quarantined*
   (:class:`~repro.telemetry.events.RequestQuarantined`): its terminal
   disposition flows through the event stream exactly like a drop, and the
   server — already rolled back — keeps serving;
4. ``loop_threshold`` consecutive recoveries without a single successful
   request degrade to a full boot-image restart
   (``RollbackPerformed(to_boot_image=True)``) and a fresh stream — the
   escape hatch for a snapshot that itself captured corrupted state.

Either way a server whose boot image is fatal (Pine's poisoned mailbox) is
restarted once at construction and once per arriving request, and each
request is dropped: a synthetic :class:`~repro.telemetry.events.RequestEnd`
with outcome :data:`DROPPED_OUTCOME`, and ``submit`` returns None.

The supervisor keeps no counters of its own: every snapshot, rollback,
restart and quarantine is an event, and a
:class:`~repro.fleet.scheduler.FleetTallySink` counts them.

Tally invariant (what makes ``fleet report`` exact from an export): every
fatal attempt the policy recovers is followed by exactly one
``RollbackPerformed`` carrying that ``request_id`` — consumers cancel the
attempt's failure count, because retry or quarantine is the terminal word
on that request.  Restarts (fatal ``__startup__`` request ends included)
and drops are events too, so the stream alone re-derives every count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.errors import RequestResult
from repro.memory.checkpoint_stream import CheckpointStream
from repro.recovery.faults import FaultInjector
from repro.servers.base import Request, Server
from repro.telemetry.events import (
    RequestEnd,
    RequestQuarantined,
    RollbackPerformed,
    SnapshotTaken,
)

#: Outcome stamped on the synthetic RequestEnd for a request that never
#: reached a live server (its instance down past restart).  Distinct from
#: every RequestOutcome value.
DROPPED_OUTCOME = "dropped"


@dataclass(frozen=True)
class RecoveryPolicy:
    """Tuning knobs for one supervised server."""

    #: Take a snapshot every N successfully completed requests (1 = every
    #: request; the cadence/coverage trade-off the benchmarks measure).
    snapshot_every: int = 32
    #: Fatal retries per request.  A request whose fatal attempts exceed the
    #: budget (i.e. it killed the server ``retry_budget + 1`` times) is
    #: quarantined; the default quarantines on the second kill.
    retry_budget: int = 1
    #: Consecutive recoveries with no successful request in between that
    #: trigger the boot-image degradation.
    loop_threshold: int = 4

    def __post_init__(self) -> None:
        if self.snapshot_every <= 0:
            raise ValueError("snapshot_every must be positive")
        if self.retry_budget < 0:
            raise ValueError("retry_budget must be >= 0")
        if self.loop_threshold <= 1:
            raise ValueError("loop_threshold must be > 1")


class RecoverySupervisor:
    """Monitor (and, under a policy, self-healing wrapper) for one booted server.

    The server may be alive or dead but must have booted (it needs a boot
    image to restart from); a dead one is restarted at construction.  Under
    a policy a live server's base snapshot (snapshot 0) is set then too.
    Snapshot 0 is the server's boot image itself when the server still
    holds it — a fleet clone that just adopted its image, a server that has
    processed nothing since ``start()``, or any boot-image restart — so
    starting a chain copies nothing; otherwise it is a full checkpoint.
    All request traffic must then go through :meth:`submit` — processing
    requests behind the supervisor's back would desynchronize the snapshot
    chain (the stream detects this and refuses to append).
    """

    def __init__(
        self,
        server: Server,
        policy: Optional[RecoveryPolicy] = None,
        injector: Optional[FaultInjector] = None,
    ) -> None:
        if server.boot_image is None:
            raise ValueError("supervision requires a booted server")
        self.server = server
        self.policy = policy
        self.injector = injector
        if injector is not None:
            injector.install(server)
        self.stream: Optional[CheckpointStream] = None
        #: Handler-state snapshots, parallel to the stream's indices.
        self._states: List[dict] = []
        self._since_snapshot = 0
        self._consecutive_recoveries = 0
        if not server.alive:
            self._restart()
        elif policy is not None:
            # A server that has processed nothing since start() or
            # adopt_image() still holds its boot image.
            self._new_stream(from_image=server.requests_processed == 0)

    # -- the serving loop ---------------------------------------------------------

    def submit(self, request: Request) -> Optional[RequestResult]:
        """Process one request under supervision.

        A dead server is first restarted from its boot image; if it is still
        down the request is dropped (see :meth:`drop`) and None is returned.
        Otherwise returns the terminal :class:`~repro.errors.RequestResult`:
        the successful attempt's result, or the fatal attempt's.  Without a
        policy a fatal result leaves the server down until the next request;
        under a policy the fatal attempt was rolled back and retried, the
        returned one is the last attempt of a quarantined request, and the
        server is alive afterwards.
        """
        if not self.server.alive:
            self._restart()
            if not self.server.alive:
                self.drop(request)
                return None
        attempt = 0
        while True:
            if self.injector is not None:
                self.injector.begin_attempt(self.server, request, attempt)
            result = self.server.process(request)
            if self.injector is not None:
                self.injector.end_attempt(self.server)
            attempt += 1
            if self.policy is None:
                return result
            if not result.fatal:
                self._consecutive_recoveries = 0
                self._since_snapshot += 1
                if self._since_snapshot >= self.policy.snapshot_every:
                    self.take_snapshot(request_id=request.request_id)
                return result
            self._recover(request)
            if attempt > self.policy.retry_budget:
                self.server.ctx.bus.emit(RequestQuarantined(
                    request_id=request.request_id,
                    kind=request.kind,
                    is_attack=request.is_attack,
                    attempts=attempt,
                ))
                return result

    def drop(self, request: Request, outcome: str = DROPPED_OUTCOME) -> None:
        """Emit the synthetic RequestEnd for a request that never ran."""
        self.server.ctx.bus.emit(RequestEnd(
            request_id=request.request_id,
            kind=request.kind,
            outcome=outcome,
            is_attack=request.is_attack,
        ))

    def take_snapshot(self, request_id: Optional[int] = None) -> int:
        """Capture a snapshot now (memory delta + handler state) and emit it."""
        index = self.stream.snapshot()
        delta = self.stream.deltas[index - 1]
        self._states.append(self.server.capture_handler_state())
        self._since_snapshot = 0
        self.server.ctx.bus.emit(SnapshotTaken(
            index=index,
            blocks=delta.space.block_count,
            delta_bytes=delta.space.payload_bytes,
            request_id=request_id,
        ))
        return index

    # -- recovery -----------------------------------------------------------------

    def _new_stream(self, from_image: bool) -> None:
        """Start a fresh snapshot chain whose base is the current state.

        ``from_image`` says the server was just started, adopted or
        restarted from its boot image.  If its memory is still exactly that
        image, the image itself (memory and handler state) is snapshot 0,
        which copies nothing; otherwise snapshot 0 is a full checkpoint.
        """
        server = self.server
        image = server.boot_image
        if from_image and server.ctx.space.clean_against(image.ctx.space):
            self.stream = CheckpointStream(server.ctx, base=image.ctx)
            self._states = [image.state]
        else:
            self.stream = CheckpointStream(server.ctx)
            self._states = [server.capture_handler_state()]
        self._since_snapshot = 0

    def _restart(self, request: Optional[Request] = None) -> None:
        """Restart from the boot image and emit its ``RollbackPerformed``.

        ``request`` is the fatal request a policy's loop degradation is
        recovering (its attempt is cancelled); a monitor restart before the
        next request carries none.  A policy's snapshot chain restarts from
        the fresh image.
        """
        self.server.restart()
        self._consecutive_recoveries = 0
        if self.policy is not None and self.server.alive:
            self._new_stream(from_image=True)
        self.server.ctx.bus.emit(RollbackPerformed(
            snapshot_index=0,
            request_id=None if request is None else request.request_id,
            kind="" if request is None else request.kind,
            is_attack=request is not None and request.is_attack,
            to_boot_image=True,
        ))

    def _recover(self, request: Request) -> None:
        """Bring the dead server back: snapshot rollback or boot-image restart.

        Emits exactly one :class:`RollbackPerformed` carrying the fatal
        request's id (its failed attempt is non-terminal — a retry or a
        quarantine is the terminal disposition).
        """
        self._consecutive_recoveries += 1
        if self._consecutive_recoveries >= self.policy.loop_threshold:
            # Rollback loop: the last-good snapshot may itself be poisoned.
            # Degrade to the boot image and start a fresh stream from it.
            self._restart(request)
            return
        index = self.stream.latest
        blocks = self.stream.restore(index)
        self.server.restore_handler_state(self._states[index])
        del self._states[index + 1 :]
        self.server.alive = True
        self.server.started = True
        self.server.ctx.bus.emit(RollbackPerformed(
            snapshot_index=index,
            request_id=request.request_id,
            kind=request.kind,
            is_attack=request.is_attack,
            blocks_restored=blocks,
            to_boot_image=False,
        ))
