"""Exact per-request counter and error-stream pin for the handler loops.

The checked builds' cost is charged per access (§4, Figures 2-6), so the
counters that measure that work must not move when the substrate gets
faster: a pointer step or an accessor call that became cheaper must still be
one check, one object-table lookup and one raw byte.  This module runs fixed
request streams through the servers whose handlers walk memory one byte at a
time — hand Sendmail (``recv_large``, ``send_small``), Pine ``compose``, Mutt
``read``, Midnight Commander ``mkdir`` (its session-log store), the
compiled ``minic-sendmail`` ``deliver`` and the compiled ``minic-pine``
``list`` (a linked-list walk with struct member loads and stores through
pointer handles) — and through the
Apache rewrite overflow (``small`` fetches around one attack URL, the path
the failure-oblivious pool serves under attack), under all five policies,
and compares every counter with ``data/per_byte_counters.json``.

Each cell runs two streams.  The benign stream boots a benign build and
sends four benign requests.  The attack stream follows the fleet's path for
one instance: boot with the attack trigger planted, run the profile's
follow-ups as session setup, then ``benign, benign, attack, benign,
benign``.  Per request a stream records the outcome, the deltas of
``checks_performed``, ``table.lookups``, ``raw_reads``, ``raw_writes`` and
``error_log.total_recorded``, and the request's ``memory_errors``: every
field of every :class:`~repro.errors.MemoryErrorEvent` the request result
carries, in order (the request id relative to the processed request's).  At the end it records the totals and
``error_log.count_by_site()``.  A request sent to a dead server is recorded
with its outcome, zero deltas and no errors (hand Sendmail's boot-time
overflow kills its bounds-check build before any request).

The counters were captured before the per-byte path was made cheaper (fast
pointer construction, stored ``Segment.end``, one-read accessor byte path),
and the error streams and Apache cells before the error records were given
their one-step constructor, so a pass proves the faster paths do the same
counted work and record the same errors.  The Midnight Commander cells were
captured before the servers' byte-copy loops became one
:meth:`~repro.memory.accessor.MemoryAccessor.write_each` call, and the
``minic-pine`` cells while mini-C still ran on the per-node tree walk, before
it was compiled into closures.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.core.policies import POLICY_NAMES
from repro.harness.engine import ENGINE

with open(os.path.join(os.path.dirname(__file__), "data", "per_byte_counters.json"),
          encoding="utf-8") as _handle:
    EXPECTED = json.load(_handle)

#: (server, benign request kind) cells; each runs under every policy.
STREAMS = (
    ("sendmail", "recv_large"),
    ("sendmail", "send_small"),
    ("pine", "compose"),
    ("mutt", "read"),
    ("midnight-commander", "mkdir"),
    ("minic-sendmail", "deliver"),
    ("minic-pine", "list"),
    ("apache", "small"),
)
POLICIES = sorted(POLICY_NAMES)


def _counters(server) -> dict:
    ctx = server.ctx
    return {
        "checks_performed": ctx.policy.stats.checks_performed,
        "lookups": ctx.table.lookups,
        "raw_reads": ctx.space.raw_reads,
        "raw_writes": ctx.space.raw_writes,
        "errors": ctx.error_log.total_recorded,
    }


def _delta(before: dict, after: dict) -> dict:
    return {name: after[name] - before[name] for name in after}


def _error_record(event, request) -> list:
    """Every field of one :class:`~repro.errors.MemoryErrorEvent`, as JSON.

    Request ids come from a process-wide counter, so the event's
    ``request_id`` is recorded relative to the request that was processed.
    """
    request_id = event.request_id
    if request_id is not None:
        request_id -= request.request_id
    return [event.kind.value, event.access.value, event.unit_name, event.unit_size,
            event.offset, event.length, event.site, request_id]


def _run(server, requests) -> dict:
    """Process ``requests`` on a started server, recording per-request deltas."""
    records = []
    for request in requests:
        before = _counters(server)
        result = server.process(request)
        records.append({"outcome": result.outcome.value,
                        **_delta(before, _counters(server)),
                        "memory_errors": [_error_record(event, request)
                                          for event in result.memory_errors]})
    return {
        "requests": records,
        "totals": _counters(server),
        "error_sites": dict(sorted(server.ctx.error_log.count_by_site().items())),
    }


def measure_stream(server_name: str, kind: str, policy: str) -> dict:
    """Run the cell's benign and attack streams and return their counters."""
    profile = ENGINE.profile(server_name)
    benign = [profile.make_request(kind, index) for index in range(4)]
    cell = {}
    server = ENGINE.build_server(server_name, policy)
    try:
        cell["benign_boot"] = server.start().outcome.value
        cell["benign"] = _run(server, benign)
    finally:
        server.stop()
    server = ENGINE.build_server(server_name, policy, plant_attack=True)
    try:
        cell["attack_boot"] = server.start().outcome.value
        if server.alive:
            for request in profile.make_follow_ups():
                server.process(request)
        cell["attack"] = _run(server, benign[:2] + [profile.make_attack_request()]
                              + benign[2:])
    finally:
        server.stop()
    return cell


def test_expected_data_covers_every_cell():
    cells = {f"{server}/{kind}/{policy}"
             for server, kind in STREAMS for policy in POLICIES}
    assert set(EXPECTED) == cells


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("server_name,kind", STREAMS)
def test_counters_match_pin(server_name, kind, policy):
    got = measure_stream(server_name, kind, policy)
    assert got == EXPECTED[f"{server_name}/{kind}/{policy}"]


def test_benign_requests_stay_per_byte():
    """The checked builds charge at least one check per byte a benign
    ``recv_large`` spools: its handler loop was not turned into span calls."""
    cell = EXPECTED["sendmail/recv_large/failure-oblivious"]
    body = ENGINE.profile("sendmail").make_request("recv_large", 0).payload["body"]
    for record in cell["benign"]["requests"]:
        assert record["outcome"] == "served"
        assert record["checks_performed"] >= len(body)
