"""Counted twins of the coalesced out-of-bounds store.

Under failure-oblivious an invalid ``write_byte`` that continues the open run
extends it, and the run reaches the policy as one ``on_invalid_write_run``
call (:class:`~repro.memory.accessor.MemoryAccessor`).  These tests count
those calls on the paper's overflow sites whose handler loops store one byte
at a time: the compiled ``minic-sendmail`` ``crackaddr`` (``*q++ = c`` in
mini-C), hand Sendmail's ``prescan``, Pine's ``quote_from_field`` and Mutt's
``utf8_to_utf7``.  Each contiguous run of invalid stores in the error log
must be one hook call, while the log still holds one record per byte: the
per-byte path made one call per byte.
"""

from __future__ import annotations

import json
import os
from collections import Counter

import pytest

from repro.core.policies import FailureObliviousPolicy
from repro.errors import AccessKind
from repro.harness.engine import ENGINE
from repro.memory.context import MemoryContext
from repro.servers.base import Request, Response, Server
from repro.telemetry import openrun
from repro.telemetry.session import TelemetrySession
from repro.telemetry.sinks import ListSink
from repro.telemetry.summary import iter_records

with open(os.path.join(os.path.dirname(__file__), "data", "per_byte_counters.json"),
          encoding="utf-8") as _handle:
    PINNED = json.load(_handle)


def _attacked_server(name):
    """A failure-oblivious ``name`` booted with its attack trigger planted,
    its follow-ups served, whose policy counts run-hook calls by site."""
    server = ENGINE.build_server(name, "failure-oblivious", plant_attack=True)
    calls = Counter()
    policy = server.ctx.policy
    hook = policy.on_invalid_write_run

    def counting(event, data):
        calls[event.site] += 1
        return hook(event, data)

    policy.on_invalid_write_run = counting
    server.start()
    for request in ENGINE.profile(name).make_follow_ups():
        server.process(request)
    return server, calls


def _write_runs(events):
    """Contiguous runs of invalid stores by site: consecutive write records
    of one unit, site and request whose offsets step by one byte."""
    runs = Counter()
    previous = None
    for event in events:
        if event.access is not AccessKind.WRITE:
            previous = None
            continue
        if previous is None or event.offset != previous.offset + 1 or (
                event.kind, event.unit_name, event.site, event.request_id) != (
                previous.kind, previous.unit_name, previous.site, previous.request_id):
            runs[event.site] += 1
        previous = event
    return runs


def test_crackaddr_overflow_is_one_hook_call():
    """The attack ``deliver`` overflows ``outbuf`` in one streak: one call,
    and the request still reports the pinned 681 per-byte records."""
    server, calls = _attacked_server("minic-sendmail")
    try:
        log = server.ctx.error_log
        before = log.total_recorded
        result = server.process(ENGINE.profile("minic-sendmail").make_attack_request())
        assert calls == Counter({"minic_sendmail.crackaddr": 1})
        assert len(result.memory_errors) == 681
        assert log.total_recorded - before == 681
        pinned = PINNED["minic-sendmail/deliver/failure-oblivious"]["attack"]["requests"][2]
        assert pinned["errors"] == 681
        assert [[event.kind.value, event.access.value, event.unit_name, event.unit_size,
                 event.offset, event.length, event.site]
                for event in result.memory_errors] == \
            [record[:7] for record in pinned["memory_errors"]]
    finally:
        server.stop()


@pytest.mark.parametrize("name,site", [
    ("sendmail", "sendmail.prescan"),
    ("pine", "pine.quote_from_field"),
    ("mutt", "mutt.utf8_to_utf7"),
])
def test_hand_overflow_sites_make_one_call_per_run(name, site):
    server, calls = _attacked_server(name)
    try:
        server.process(ENGINE.profile(name).make_attack_request())
        log = server.ctx.error_log
        runs = _write_runs(log.events())
        writes = sum(1 for event in log.events()
                     if event.site == site and event.access is AccessKind.WRITE)
        assert calls[site] == runs[site] >= 1
        assert writes > runs[site]
    finally:
        server.stop()


def test_session_boundaries_flush_the_open_run(tmp_path):
    """A store made before a session starts is not exported, and one made
    before it ends is, although both extend one streak."""
    ctx = MemoryContext(FailureObliviousPolicy(), heap_size=4096)
    ptr = ctx.malloc(4)
    ctx.mem.write_byte(ptr + 4, 1)
    with TelemetrySession(str(tmp_path / "spills")) as session:
        ctx.mem.write_byte(ptr + 5, 2)
        ctx.mem.write_byte(ptr + 6, 3)
    ctx.mem.write_byte(ptr + 7, 4)
    session.merge(str(tmp_path / "trace.jsonl"))
    exported = [(record["event"], record.get("offset"), record["count"])
                for record in iter_records(str(tmp_path / "trace.jsonl"))]
    assert exported == [("invalid-access", 5, 2), ("discard", None, 2)]
    assert ctx.error_log.total_recorded == 4


def test_fork_flushes_the_open_run_in_the_parent():
    """A forked child starts with no open run, so it cannot publish the
    parent's stores a second time; the parent's sinks already have them."""
    ctx = MemoryContext(FailureObliviousPolicy(), heap_size=4096)
    ptr = ctx.malloc(4)
    stream = ctx.bus.attach(ListSink())
    ctx.mem.write_byte(ptr + 4, 1)
    ctx.mem.write_byte(ptr + 5, 2)
    pid = os.fork()
    if pid == 0:
        os._exit(0 if openrun.open_run is None else 1)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    assert [record.count for record in stream.events] == [2, 2]


def test_list_sink_read_flushes_the_open_run():
    """A ``ListSink`` read straight after the stores, with no emit or log
    query in between, already holds the run; ``clear`` drops it."""
    ctx = MemoryContext(FailureObliviousPolicy(), heap_size=4096)
    ptr = ctx.malloc(4)
    stream = ctx.bus.attach(ListSink())
    ctx.mem.write_byte(ptr + 4, 1)
    ctx.mem.write_byte(ptr + 5, 2)
    assert [record.count for record in stream.events] == [2, 2]
    ctx.mem.write_byte(ptr + 6, 3)
    stream.clear()
    assert openrun.open_run is None
    assert stream.events == []


class _SpillServer(Server):
    """A server whose request ends on an out-of-bounds store streak."""

    name = "spill"

    def startup(self) -> None:
        self.buf = self.ctx.malloc(4, name="spill_buf")

    def handle(self, request: Request) -> Response:
        for i in range(4, 12):
            self.ctx.mem.write_byte(self.buf + i, i)
        return Response.ok()


def test_request_times_its_last_open_run():
    """A request's trailing run is published before its elapsed time is
    taken (and its request id cleared), so the run's policy call is part of
    the request's service time."""
    server = _SpillServer(FailureObliviousPolicy)
    server.start()
    flushed_in = []
    policy = server.ctx.policy
    hook = policy.on_invalid_write_run

    def recording_hook(event, data):
        flushed_in.append(server.ctx.mem.current_request_id)
        return hook(event, data)

    policy.on_invalid_write_run = recording_hook
    result = server.process(Request(kind="spill"))
    assert len(result.memory_errors) == 8
    assert flushed_in == [result.memory_errors[0].request_id]
