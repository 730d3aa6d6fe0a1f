"""Checkpoint-restore restarts are observably identical to from-scratch reboots.

``Server.restart()`` restores the post-boot process image instead of
rebuilding the substrate and re-running ``startup()``.  This suite proves the
two paths indistinguishable for every server under every policy, across the
full observation surface:

* the memory image (every segment's bytes, the live unit labels);
* the §3 error log's query surface — including the Pine/Mutt boot-time
  memory errors, which must reappear in the restored log exactly as a
  re-executed boot would record them;
* the telemetry stream seen by experiment-attached sinks (the checkpoint
  path replays the boot's events; the scratch path re-emits them);
* the boot result and the behaviour of follow-up requests processed after
  the restart.

Request ids are allocated from a process-global counter and wall-clock times
differ run to run, so streams are compared after renumbering request ids by
first appearance and dropping elapsed-seconds fields — the same two fields
that already differ between *two consecutive from-scratch reboots*.
Everything else must match exactly (unit labels included: serials are
per-image and deterministic).
"""

from __future__ import annotations

import pytest

from repro.harness.engine import ENGINE
from repro.servers.profile import get_profile
from repro.telemetry.events import to_record
from repro.telemetry.sinks import ListSink

SERVERS = ("apache", "midnight-commander", "mutt", "pine", "sendmail")
POLICIES = ("standard", "bounds-check", "failure-oblivious", "boundless", "redirect")

#: Fields that legitimately differ between two boots of the same server.
_TIMING_FIELDS = ("elapsed_seconds", "seconds")


def _normalized_records(events) -> list:
    """Serialize an event stream, renumbering request ids by first appearance."""
    renumber: dict = {}
    records = []
    for event in events:
        record = to_record(event)
        for field in _TIMING_FIELDS:
            record.pop(field, None)
        rid = record.get("request_id")
        if rid is not None:
            record["request_id"] = renumber.setdefault(rid, len(renumber))
        records.append(record)
    return records


def _log_surface(server) -> dict:
    """The full §3 error-log query surface, request ids renumbered."""
    log = server.ctx.error_log
    renumber: dict = {}

    def norm(event):
        rid = event.request_id
        if rid is not None:
            rid = renumber.setdefault(rid, len(renumber))
        return (event.kind, event.access, event.unit_name, event.unit_size,
                event.offset, event.length, event.site, rid)

    return {
        "total": log.total_recorded,
        "dropped": log.dropped,
        "by_site": log.count_by_site(),
        "by_kind": log.count_by_kind(),
        "reads": log.count_reads(),
        "writes": log.count_writes(),
        "top_sites": log.most_common_sites(5),
        "events": [norm(event) for event in log.events()],
        "summary": log.summary(),
    }


def _memory_image(server) -> dict:
    ctx = server.ctx
    return {
        "segments": {s.name: bytes(s.data) for s in ctx.space.segments()},
        "live_units": [
            (u.label(), u.base, u.size, u.kind, u.owner) for u in ctx.table.live_units()
        ],
        "heap_live_bytes": ctx.heap.live_bytes(),
        "stack_depth": ctx.stack.depth,
        "stats": ctx.policy.stats.as_dict(),
    }


def _result_view(result) -> tuple:
    return (
        result.outcome,
        None if result.response is None else (result.response.status,
                                              result.response.body),
        type(result.error).__name__ if result.error is not None else None,
        len(result.memory_errors),
    )


def _drive(server, profile, restart_via: str) -> dict:
    """Boot, dirty the image, restart via one path, then keep serving."""
    boot = server.start()
    if server.alive:
        for request in profile.make_follow_ups():
            server.process(request)
    observer = server.add_telemetry_sink(ListSink())
    if restart_via == "checkpoint":
        assert server.boot_image is not None
        restart_result = server.restart()
    else:
        restart_result = server.restart_from_scratch()
    follow_ups = []
    for request in profile.make_follow_ups():
        follow_ups.append(_result_view(server.process(request)))
    return {
        "boot": _result_view(boot),
        "restart": _result_view(restart_result),
        "alive": server.alive,
        "started": server.started,
        "memory": _memory_image(server),
        "log": _log_surface(server),
        "telemetry": _normalized_records(observer.events),
        "follow_ups": follow_ups,
    }


@pytest.mark.parametrize("server_name", SERVERS)
@pytest.mark.parametrize("policy_name", POLICIES)
def test_restart_paths_are_observably_identical(server_name, policy_name):
    profile = get_profile(server_name)
    observations = {}
    for restart_via in ("checkpoint", "scratch"):
        server = ENGINE.build_server(
            server_name, policy_name, plant_attack=True, scale=0.1
        )
        observations[restart_via] = _drive(server, profile, restart_via)
        server.stop()
    checkpoint, scratch = observations["checkpoint"], observations["scratch"]
    for key in checkpoint:
        assert checkpoint[key] == scratch[key], (
            f"{server_name}/{policy_name}: restart paths diverge on {key!r}"
        )


@pytest.mark.parametrize("server_name", ("pine", "mutt"))
def test_boot_time_errors_reappear_in_restored_log(server_name):
    """Pine/Mutt commit their memory error *during boot*; a restored image
    must report it exactly as a re-executed boot would."""
    server = ENGINE.build_server(server_name, "failure-oblivious",
                                 plant_attack=True, scale=0.1)
    server.start()
    boot_log = _log_surface(server)
    assert boot_log["total"] > 0  # the documented boot-time error fired
    observer = server.add_telemetry_sink(ListSink())
    server.restart()
    assert _log_surface(server) == boot_log
    # The replayed stream carries the error events to external observers too.
    assert any(r["event"] == "invalid-access" for r in _normalized_records(observer.events))


def test_restart_keeps_bus_and_sinks_wired():
    """Checkpoint restarts keep the same bus; sinks observe across restarts."""
    server = ENGINE.build_server("apache", "failure-oblivious", scale=0.1)
    server.start()
    bus_before = server.ctx.bus
    sink = server.add_telemetry_sink(ListSink())
    server.restart()
    assert server.ctx.bus is bus_before
    assert sink in server.ctx.bus.sinks
    assert sink.events  # the replayed boot stream arrived


def test_pool_clones_equal_booted_children():
    """A pre-fork clone is indistinguishable from a child that booted itself."""
    from repro.core.policies import FailureObliviousPolicy
    from repro.servers.apache import ApacheServer, ChildProcessPool
    from repro.servers.base import Request
    from repro.workloads.attacks import apache_vulnerable_config

    cloned = ChildProcessPool(FailureObliviousPolicy, pool_size=3,
                              config=apache_vulnerable_config())
    booted = [
        ApacheServer(FailureObliviousPolicy, config=apache_vulnerable_config())
        for _ in range(3)
    ]
    for child in booted:
        child.start()
    for clone, boot in zip(cloned.children, booted):
        assert _memory_image(clone) == _memory_image(boot)
        assert _log_surface(clone) == _log_surface(boot)
    # Clones serve requests exactly like booted children.
    request = Request(kind="get", payload={"url": "/index.html"})
    assert _result_view(cloned.dispatch(request)) == _result_view(booted[0].process(request))
