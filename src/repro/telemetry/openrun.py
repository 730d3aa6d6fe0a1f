"""The process's one *open run* of coalesced out-of-bounds stores.

Under failure-oblivious, the memory accessor holds a streak of discarded
out-of-bounds byte stores as one run it is still extending (see
:class:`~repro.memory.accessor.MemoryAccessor`).  Its records are not yet
published, so everything that could observe the stream flushes it first:
every :class:`~repro.telemetry.bus.EventBus` emit, attach, detach and
``sinks`` read, every :class:`~repro.core.errorlog.MemoryErrorLog` query,
a :class:`~repro.telemetry.sinks.ListSink`'s ``events`` read, entering and
leaving a :class:`~repro.telemetry.session.TelemetrySession`, and a fork.

A leaf module: the bus, the sinks, the session and the accessor all import
it, and it imports none of them.
"""

from __future__ import annotations

import os

#: The open run of this process, or None: an object whose ``flush()``
#: publishes its records.  One slot for the whole process, so opening a run
#: flushes any other, and every emit on any bus flushes first: the exported
#: order across buses is the order the stores happened in.
open_run = None


def hold_run(run) -> None:
    """Make ``run`` the open run, flushing the one it replaces."""
    global open_run
    flush_open_run()
    open_run = run


def flush_open_run() -> None:
    """Publish the open run, if any, and close it."""
    global open_run
    run = open_run
    if run is not None:
        # Closed before it publishes: its own emits must not flush it again.
        open_run = None
        run.flush()


# A forked child must not publish its parent's open run a second time.
os.register_at_fork(before=flush_open_run)
