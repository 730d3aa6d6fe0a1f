"""Request-time measurement in the style of the paper's performance figures.

The paper instruments each server to record the time when it starts and stops
processing a request, repeats each request at least twenty times, and reports
the mean and standard deviation (§4.1).  :func:`measure_paired` does the
same for our simulated servers.  The absolute numbers are different (this is
a Python simulation, not a 2.8 GHz Pentium 4), and so are the slowdown ratios
between build variants: they are not comparable to the paper's ``Slowdown``
columns.  The checked builds' per-access work (checks, object-table lookups)
is counted per byte but is a small share of the wall time here, where the
interpreter's cost of each access is paid by every build alike, so the
measured ratios sit near 1x where the paper's reach about 8x.  A slowdown
modeled from the per-request counters is ROADMAP item 1.
"""

from __future__ import annotations

import gc
import math
import statistics
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.errors import RequestOutcome
from repro.servers.base import Request, Server

#: Unmeasured repetitions run on every build before the measured ones.
WARMUP = 3


@dataclass
class TimingResult:
    """Mean / standard deviation of request processing time over N repetitions."""

    label: str
    samples_seconds: List[float] = field(default_factory=list)
    outcomes: List[RequestOutcome] = field(default_factory=list)

    @property
    def repetitions(self) -> int:
        """Number of measured repetitions."""
        return len(self.samples_seconds)

    @property
    def mean_seconds(self) -> float:
        """Mean request processing time in seconds."""
        return statistics.fmean(self.samples_seconds) if self.samples_seconds else math.nan

    @property
    def mean_ms(self) -> float:
        """Mean request processing time in milliseconds (the paper's unit)."""
        return self.mean_seconds * 1000.0

    @property
    def stdev_seconds(self) -> float:
        """Sample standard deviation in seconds (0 for a single sample)."""
        if len(self.samples_seconds) < 2:
            return 0.0
        return statistics.stdev(self.samples_seconds)

    @property
    def stdev_percent(self) -> float:
        """Standard deviation as a percentage of the mean, as the paper reports."""
        mean = self.mean_seconds
        if not mean:
            return 0.0
        return 100.0 * self.stdev_seconds / mean

    @property
    def all_served(self) -> bool:
        """True if every measured repetition was served successfully."""
        return all(outcome is RequestOutcome.SERVED for outcome in self.outcomes)

    def describe(self) -> str:
        """Human readable one-liner, e.g. ``read: 2 ms ± 2%``.

        Rounded to the same precision as the figure tables (two significant
        digits, whole percents) so recorded output does not churn on timer
        noise.
        """
        return f"{self.label}: {self.mean_ms:.2g} ms ± {self.stdev_percent:.0f}%"


def measure_paired(
    servers: "dict[str, Server]",
    request_factory: Callable[[int], Request],
    repetitions: int = 20,
    reset: Optional[Callable[[Server, int], None]] = None,
    label: str = "",
) -> "dict[str, TimingResult]":
    """Measure the same request kind on several builds with interleaved repetitions.

    Running repetition *i* on every build before moving to repetition *i+1*
    equalizes environmental drift (allocator warm-up, cache state, CPU
    frequency changes) across the builds, which matters because the quantity
    of interest is the ratio between them, not either absolute time.

    Parameters
    ----------
    servers:
        Started servers by build name.  The measurement uses each server's
        own elapsed-time accounting (the analogue of the paper's start/stop
        instrumentation); a server that dies is skipped from then on.
    request_factory:
        Callable mapping the repetition index to a fresh :class:`Request`.
    repetitions:
        Number of measured repetitions (the paper uses at least twenty),
        after :data:`WARMUP` unmeasured ones.
    reset:
        Optional callable invoked before every repetition to restore state the
        request consumes (e.g. re-creating the file a Delete request removes).
    """
    if repetitions <= 0:
        raise ValueError("repetitions must be positive")
    results = {name: TimingResult(label=f"{label} ({name})") for name in servers}
    # Collector pauses are the dominant source of outliers at sub-millisecond
    # request times, so the measurement loop runs with the collector disabled
    # (the paper's instrumentation has no analogous noise source).
    gc_was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for index in range(WARMUP + repetitions):
            for name, server in servers.items():
                if not server.alive:
                    continue
                if reset is not None:
                    reset(server, index)
                request_result = server.process(request_factory(index))
                if index >= WARMUP:
                    results[name].samples_seconds.append(request_result.elapsed_seconds)
                    results[name].outcomes.append(request_result.outcome)
    finally:
        if gc_was_enabled:
            gc.enable()
    return results


def slowdown(baseline: TimingResult, other: TimingResult) -> float:
    """Return how many times slower ``other`` is than ``baseline`` (paper's Slowdown)."""
    if not baseline.samples_seconds or not other.samples_seconds:
        return math.nan
    if baseline.mean_seconds == 0:
        return math.inf
    return other.mean_seconds / baseline.mean_seconds
