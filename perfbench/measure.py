"""Timing helpers shared by the workloads: percentiles, the open-loop pacer,
the host-speed gauge and the garbage-collector pause recorder."""

from __future__ import annotations

import bisect
import gc
import math
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple, Sequence, Tuple, TypeVar

T = TypeVar("T")


def percentile(sorted_values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending sequence.

    Nearest rank (rather than interpolation) keeps ``inf`` entries -- failed
    requests -- meaningful: a percentile that lands on one reads ``inf``.
    """
    if not sorted_values:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


@dataclass
class OpenLoopResult:
    """What one open-loop phase observed."""

    #: Legitimate requests only, in milliseconds from due time to completion;
    #: ``inf`` for a legitimate request that failed.
    latencies_ms: List[float] = field(default_factory=list)
    #: Per request: how late the pacer sent it, in milliseconds.
    late_ms: List[float] = field(default_factory=list)
    #: Largest number of requests that were due but not yet sent.
    backlog_max: int = 0


def run_open_loop(
    offsets: Sequence[float], serve: Callable[[int], Tuple[bool, bool]]
) -> OpenLoopResult:
    """Send request ``i`` at ``offsets[i]`` seconds after the start.

    ``serve(i)`` sends request ``i``, waits for its reply and returns
    ``(is_legitimate, served_correctly)``.  A request is timed from the moment
    it was due, so a stall also charges the wait it imposes on the requests
    queued behind it.  The pacer spins instead of sleeping: a sleep can
    overshoot by a scheduler tick, which would show up as latency.
    """
    clock = time.perf_counter
    result = OpenLoopResult()
    latencies = result.latencies_ms
    late = result.late_ms
    start = clock()
    for index, offset in enumerate(offsets):
        due = start + offset
        now = clock()
        while now < due:
            now = clock()
        late.append((now - due) * 1e3)
        backlog = bisect.bisect_right(offsets, now - start) - index
        if backlog > result.backlog_max:
            result.backlog_max = backlog
        legitimate, ok = serve(index)
        if legitimate:
            latencies.append((clock() - due) * 1e3 if ok else math.inf)
    latencies.sort()
    late.sort()
    return result


class Slowdown(NamedTuple):
    """How much slower than usual the host ran around one window: the
    calibration task's timings before and after it, over the reference."""

    before: float
    after: float

    @property
    def mean(self) -> float:
        return (self.before + self.after) / 2


class HostSpeed:
    """How much slower than usual the shared host runs, window by window.

    The machine is shared with other tenants, and its speed drifts by up to
    1.5x over seconds: a fixed loop of Python code takes that much longer
    for a while, whatever the program does.  So a fixed calibration task is
    timed between measurement windows, and a window's slowdown is the mean
    of the task's two timings around it over :attr:`REFERENCE_S`.  The
    workloads keep the windows the host slowed least (:func:`least_slowed`),
    divide each kept window's times by its slowdown, which reports them at
    the host's usual speed, and stretch an open-loop window's schedule by
    the slowdown measured just before it, so that a slow stretch of the
    host does not also load the program more.

    The task is interpreter work (dict lookups, string and slice
    operations) plus block copies over a working set larger than a core's
    private caches, because the drift slows memory-bound code more than
    arithmetic.  It runs none of the program's code, so no change to the
    program moves it, and it allocates no objects the collector tracks, so
    it does not shift the program's collections.
    """

    #: The task's time on the machine the benchmark was built on (a shared
    #: 2-vCPU VM) in its fast state.
    REFERENCE_S = 0.0046
    #: Bytes the block copies range over.
    WORKING_SET = 8 << 20
    BLOCK = 64 << 10

    def __init__(self) -> None:
        rng = random.Random(0)
        self._buffer = bytearray(self.WORKING_SET)
        self._offsets = [rng.randrange(0, self.WORKING_SET - self.BLOCK) & ~63
                         for _ in range(64)]
        self._keys = {f"key{index}": index for index in range(512)}
        self._names = list(self._keys)
        self._pattern = bytes(range(256)) * 16
        self._last = self._time_task()
        #: Every window's slowdown, in order.
        self.slowdowns: List[float] = []

    def _task(self) -> int:
        keys, names, pattern = self._keys, self._names, self._pattern
        scratch = bytearray(4096)
        total = 0
        for index in range(6000):
            name = names[index & 511]
            total += keys[name] * 3 + (index ^ 7)
            at = (index * 13) & 4031
            scratch[at:at + 32] = pattern[at:at + 32]
            total += pattern.find(b"\x7f", at & 255) + len(name.upper())
        buffer, offsets, block = self._buffer, self._offsets, self.BLOCK
        for index in range(96):
            dst, src = offsets[index & 63], offsets[(index * 7 + 3) & 63]
            buffer[dst:dst + block] = buffer[src:src + block]
            total += buffer.count(7, dst, dst + 4096)
        return total

    def _time_task(self) -> float:
        """The task's processor time: the host also stops the process for a
        few milliseconds at a time, which says nothing about its speed."""
        began = time.thread_time()
        self._task()
        return time.thread_time() - began

    def begin(self) -> None:
        """Time the task before a window whose predecessor is not a window."""
        self._last = self._time_task()

    @property
    def latest(self) -> float:
        """The slowdown the most recent timing of the task shows."""
        return self._last / self.REFERENCE_S

    def window(self) -> Slowdown:
        """Time the task after a window; return that window's slowdown."""
        now = self._time_task()
        slowdown = Slowdown(before=self._last / self.REFERENCE_S,
                            after=now / self.REFERENCE_S)
        self._last = now
        self.slowdowns.append(slowdown.mean)
        return slowdown


def least_slowed(windows: Sequence[Tuple[T, Slowdown]],
                 share: float) -> List[Tuple[T, Slowdown]]:
    """The ``share`` of ``windows`` (at least one) the host entered least
    slowed.

    The host flips between its usual speed and slower stretches within a
    fraction of a second, and a slow stretch slows each kind of work by a
    different factor, which no single calibration task matches; windows
    that start with the host at its usual speed need the least correction.
    They are ranked by the timing before them, which their own requests
    cannot have moved (the timing after a window follows whatever it left
    in the caches), so the kept windows carry an unbiased share of the
    requests.
    """
    ranked = sorted(windows, key=lambda window: window[1].before)
    return ranked[:max(1, math.ceil(len(ranked) * share))]


class GcRecorder:
    """Collector pauses, timed with ``gc.callbacks`` while the block runs."""

    def __init__(self) -> None:
        self.collections = 0
        self.pause_ns = 0
        self.gen2_max_ns = 0
        self._started = 0

    def _callback(self, phase: str, info: Dict[str, int]) -> None:
        if phase == "start":
            self._started = time.perf_counter_ns()
            return
        paused = time.perf_counter_ns() - self._started
        self.collections += 1
        self.pause_ns += paused
        if info["generation"] == 2 and paused > self.gen2_max_ns:
            self.gen2_max_ns = paused

    def __enter__(self) -> "GcRecorder":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc_info: object) -> None:
        gc.callbacks.remove(self._callback)

    def summary(self) -> Dict[str, float]:
        return {
            "runtime.gc.collections": self.collections,
            "runtime.gc.pause_ms_total": self.pause_ns / 1e6,
            "runtime.gc.gen2_max_ms": self.gen2_max_ns / 1e6,
        }
