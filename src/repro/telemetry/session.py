"""Process-spanning JSONL export: the sink that survives the fork pool.

A :class:`TelemetrySession` is an ambient export target: while one is active,
every :class:`~repro.telemetry.bus.EventBus` forwards each emitted event to it
(stamped with the bus's scope — server and policy names — and the scenario the
engine is currently running).  Each *process* writes its own newline-delimited
JSON spill file, so `ExperimentEngine.run_many`'s forked workers never contend
on one file descriptor; :meth:`TelemetrySession.merge` reassembles the spills
into a single stream ordered by scenario id (i.e. spec order), which is the
file ``repro trace`` consumes.
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
import warnings
from typing import Dict, IO, Iterator, List, Mapping, Optional

from repro.telemetry.events import to_record

#: The active session, if any.  Process-global on purpose: forked pool workers
#: inherit it, which is exactly what routes their events into per-worker spill
#: files without any pickling or socket plumbing.
_ACTIVE: Optional["TelemetrySession"] = None


#: Block key of a run of spill lines that do not parse (dropped by the merge).
_DAMAGED = object()


def current_session() -> Optional["TelemetrySession"]:
    """Return the active telemetry session, or None when exports are off."""
    return _ACTIVE


class TelemetrySession:
    """Context manager that captures the whole event stream as JSONL.

    Parameters
    ----------
    directory:
        Where the per-process spill files go.  Defaults to a fresh temporary
        directory.  Spill files are named ``spill-<pid>.jsonl``; after the
        run, :meth:`merge` combines them in scenario order.
    """

    def __init__(self, directory: Optional[str] = None) -> None:
        self._own_dir = directory is None
        self.directory = directory or tempfile.mkdtemp(prefix="repro-trace-")
        os.makedirs(self.directory, exist_ok=True)
        self._files: Dict[int, IO[str]] = {}
        self._scenario_id: Optional[int] = None
        self._next_scenario = 0

    # -- lifecycle ---------------------------------------------------------------

    def __enter__(self) -> "TelemetrySession":
        global _ACTIVE
        if _ACTIVE is not None:
            raise RuntimeError("a telemetry session is already active")
        _ACTIVE = self
        return self

    def __exit__(self, *exc_info: object) -> None:
        global _ACTIVE
        _ACTIVE = None
        self.close()

    def close(self) -> None:
        """Flush and close this process's spill files."""
        pid = os.getpid()
        handle = self._files.pop(pid, None)
        if handle is not None:
            handle.close()
        # Handles inherited from the parent across a fork are abandoned, not
        # closed: closing them here would close the parent's descriptor state.
        self._files.clear()

    def cleanup(self) -> None:
        """Delete the spill files (and the directory, if this session made it).

        Call after :meth:`merge` once the combined export is safely written.
        """
        self.close()
        for path in self.spill_paths():
            try:
                os.unlink(path)
            except OSError:
                pass
        if self._own_dir:
            try:
                os.rmdir(self.directory)
            except OSError:
                pass

    # -- scenario demarcation ----------------------------------------------------

    def begin_scenario(self, scenario_id: Optional[int] = None) -> int:
        """Start stamping events with a scenario id (explicit or auto-assigned).

        ``ExperimentEngine.run_many`` passes the spec index explicitly so that
        ids are globally consistent across pool workers; direct ``run`` calls
        draw from this process's counter.
        """
        sid = scenario_id if scenario_id is not None else self.reserve_scenarios(1)
        self._scenario_id = sid
        return sid

    def reserve_scenarios(self, count: int) -> int:
        """Take ``count`` consecutive ids from the counter; returns the first.

        A fleet reserves one id per instance before it forks, so its workers
        stamp ids no other run in this session uses.
        """
        base = self._next_scenario
        self._next_scenario += count
        return base

    def end_scenario(self) -> None:
        """Stop stamping events with the current scenario id."""
        self._scenario_id = None

    @property
    def scenario_id(self) -> Optional[int]:
        """The id events are currently stamped with (None outside scenarios)."""
        return self._scenario_id

    @contextlib.contextmanager
    def scenario_scope(self, scenario_id: int) -> Iterator[int]:
        """Stamp events with ``scenario_id`` for the duration of the block,
        then restore the previous stamp.

        Unlike :meth:`begin_scenario`/:meth:`end_scenario` (which clear the
        stamp), this nests: a sub-scope — a fleet stamping each instance
        with its reserved id — restores the previous stamp for the events that
        follow.
        """
        previous = self._scenario_id
        self._scenario_id = scenario_id
        try:
            yield scenario_id
        finally:
            self._scenario_id = previous

    # -- writing -----------------------------------------------------------------

    def _spill_file(self) -> IO[str]:
        pid = os.getpid()
        handle = self._files.get(pid)
        if handle is None:
            path = os.path.join(self.directory, f"spill-{pid}.jsonl")
            # Line buffered so worker processes that exit without an explicit
            # close (the pool tears them down) leave complete files behind.
            handle = open(path, "a", buffering=1, encoding="utf-8")
            self._files[pid] = handle
        return handle

    def write(self, event: object, scope: Optional[Mapping[str, str]] = None) -> None:
        """Append one event to this process's spill file."""
        record = to_record(event)
        if scope:
            record["scope"] = dict(scope)
        if self._scenario_id is not None:
            record["scenario"] = self._scenario_id
        self._spill_file().write(json.dumps(record) + "\n")

    # -- merging -----------------------------------------------------------------

    def spill_paths(self) -> List[str]:
        """The spill files written so far, in deterministic (name) order."""
        names = sorted(
            name
            for name in os.listdir(self.directory)
            if name.startswith("spill-") and name.endswith(".jsonl")
        )
        return [os.path.join(self.directory, name) for name in names]

    def merge(self, out_path: str) -> int:
        """Combine the spill files into ``out_path``, ordered by scenario.

        Events keep their within-process order; across processes they are
        ordered by scenario id (spec order in a ``run_many`` fan-out), with
        unscoped events (no scenario) first.  Returns the number of events
        written.

        Scenarios run sequentially within a process, so each spill file is a
        concatenation of contiguous scenario blocks; the merge indexes those
        blocks in one scan and then copies raw lines block by block, keeping
        memory O(blocks) rather than O(events) for flood-sized exports.

        A line that does not parse (a worker killed mid-write leaves a
        partial last line) is left out, with one :class:`UserWarning` per
        spill file naming it and the number of lines skipped: one damaged
        line degrades the export instead of destroying it.
        """
        pid = os.getpid()
        handle = self._files.get(pid)
        if handle is not None:
            handle.flush()
        # (scenario_key, discovery_order, path, start_offset, end_offset);
        # offsets are byte positions, so the copy pass can seek in binary mode.
        # Runs of unparseable lines form blocks keyed _DAMAGED, never copied.
        blocks: List[tuple] = []
        total = 0
        for path in self.spill_paths():
            block_key: object = None
            block_start = None
            skipped = 0
            offset = 0
            with open(path, "rb") as spill:
                for line in spill:
                    start, offset = offset, offset + len(line)
                    if not line.strip():
                        continue
                    try:
                        key = json.loads(line).get("scenario", -1)
                        total += 1
                    except (ValueError, AttributeError):
                        key = _DAMAGED
                        skipped += 1
                    if key != block_key or block_start is None:
                        if block_start is not None:
                            blocks.append((block_key, len(blocks), path,
                                           block_start, start))
                        block_key, block_start = key, start
                if block_start is not None:
                    blocks.append((block_key, len(blocks), path, block_start, offset))
            if skipped:
                warnings.warn(
                    f"spill file {path!r}: skipped {skipped} unparseable line(s)",
                    UserWarning,
                    stacklevel=2,
                )
        blocks = [block for block in blocks if block[0] is not _DAMAGED]
        blocks.sort(key=lambda block: (block[0], block[1]))
        with open(out_path, "wb") as out:
            for _key, _order, path, start, end in blocks:
                with open(path, "rb") as spill:
                    spill.seek(start)
                    chunk = spill.read(end - start)
                out.write(chunk)
                if not chunk.endswith(b"\n"):
                    # A complete last record whose newline never made it.
                    out.write(b"\n")
        return total
