"""Self-healing servers: supervisor semantics, fault injection, forensics.

Covers the recovery subsystem end to end:

* :class:`RecoverySupervisor` unit semantics — snapshot cadence, transient
  retry, poison quarantine, rollback-loop degradation to the boot image,
  and the tally invariant (every fatal attempt's ``RequestEnd`` is followed
  by exactly one ``RollbackPerformed`` carrying that request id), every
  count read from the supervisor's events;
* the monitor mode (no policy): deaths stand, restarts are lazy, and a
  boot-fatal server is restarted per request and its requests dropped;
* :class:`FaultInjector` determinism and the retries-never-fault rule;
* shared-memory delta chains readable zero-copy from a forked child;
* the forensics snapshot format (save/load/diff round trip, dirtied blocks
  of a known attack) and its CLI;
* the acceptance soak: a fault-injected fleet of ≥10k requests across two
  servers (one of them a compiled mini-C program) × two policies with full
  availability for legitimate traffic and
  worker-invariant tallies.
"""

from __future__ import annotations

import dataclasses
import os

import pytest

from repro.cli import main as cli_main
from repro.core.policies import StandardPolicy
from repro.errors import FATAL_OUTCOMES, SegmentationFault
from repro.fleet.scheduler import DROPPED_OUTCOME, FleetTallySink, InstanceSpec, run_fleet
from repro.harness.engine import ENGINE
from repro.memory.address_space import AddressSpace
from repro.memory.checkpoint_stream import CheckpointStream
from repro.memory.shared_image import SharedImageStore
from repro.recovery import (
    FAULT_KINDS,
    FaultInjector,
    RecoveryPolicy,
    RecoverySupervisor,
    diff_snapshots,
    load_snapshot,
    save_snapshot,
)
from repro.telemetry.events import (
    RequestEnd,
    RequestQuarantined,
    RollbackPerformed,
    SnapshotTaken,
)
from repro.servers.base import Request, Response, Server
from repro.telemetry.sinks import ListSink


def _supervised(server_name, policy_name, *, recovery=None, injector=None,
                plant_attack=False):
    server = ENGINE.build_server(
        server_name, policy_name, plant_attack=plant_attack, scale=0.25
    )
    boot = server.start()
    assert not boot.fatal, f"{server_name}/{policy_name} must boot for this test"
    recorder = server.ctx.bus.attach(ListSink())
    supervisor = RecoverySupervisor(server, recovery, injector=injector)
    return server, supervisor, recorder


def _benign(profile, index):
    return profile.make_request(profile.figure_rows[0], index=index)


_FATAL = {outcome.value for outcome in FATAL_OUTCOMES}


def _recovery_counts(events):
    """The supervisor's run facts, counted from its events alone.

    ``snapshots``, ``rollbacks`` (to a snapshot), ``boot_restarts`` and
    ``quarantined`` count ``SnapshotTaken``, ``RollbackPerformed`` and
    ``RequestQuarantined`` events; ``retried_ok`` counts requests rolled
    back and then served (a ``RollbackPerformed`` for the request followed
    by its non-fatal ``RequestEnd``).
    """
    counts = dict.fromkeys(
        ("snapshots", "rollbacks", "boot_restarts", "quarantined", "retried_ok"), 0)
    rolled_back = set()
    for event in events:
        if isinstance(event, SnapshotTaken):
            counts["snapshots"] += 1
        elif isinstance(event, RequestQuarantined):
            counts["quarantined"] += 1
        elif isinstance(event, RollbackPerformed):
            counts["boot_restarts" if event.to_boot_image else "rollbacks"] += 1
            if event.request_id is not None:
                rolled_back.add(event.request_id)
        elif isinstance(event, RequestEnd) and event.request_id in rolled_back:
            rolled_back.discard(event.request_id)
            if event.outcome not in _FATAL:
                counts["retried_ok"] += 1
    return counts


class TestSupervisorSemantics:
    def test_snapshot_cadence_counts_successes_only(self):
        server, sup, recorder = _supervised(
            "apache", "failure-oblivious",
            recovery=RecoveryPolicy(snapshot_every=4),
        )
        profile = ENGINE.profile("apache")
        for i in range(9):
            result = sup.submit(_benign(profile, i))
            assert result.acceptable
        assert _recovery_counts(recorder.events)["snapshots"] == 2
        taken = [e for e in recorder.events if isinstance(e, SnapshotTaken)]
        assert [e.index for e in taken] == [1, 2]
        # Snapshots are deltas: each carries only the blocks dirtied since
        # the previous one, never the whole address space.
        total = sum(len(s.data) for s in server.ctx.space.segments())
        assert all(0 < e.delta_bytes < total for e in taken)

    def test_transient_fault_is_retried_and_served(self):
        """An abort on the first attempt rolls back and the retry (never
        faulted) serves the request — no quarantine, no lost work."""
        injector = FaultInjector(seed=7, every=1, kinds=("abort",))
        server, sup, recorder = _supervised(
            "apache", "failure-oblivious",
            recovery=RecoveryPolicy(snapshot_every=100),
            injector=injector,
        )
        profile = ENGINE.profile("apache")
        for i in range(5):
            result = sup.submit(_benign(profile, i))
            assert result.acceptable and not result.fatal
        assert injector.injected == 5
        counts = _recovery_counts(recorder.events)
        assert counts["rollbacks"] == 5
        assert counts["retried_ok"] == 5
        assert counts["quarantined"] == 0
        assert server.alive

    def test_poison_request_is_quarantined_and_server_keeps_serving(self):
        """A deterministically fatal request (a bounds-check attack) burns its
        retry budget and is quarantined; the server survives it."""
        server, sup, recorder = _supervised(
            "apache", "bounds-check",
            recovery=RecoveryPolicy(snapshot_every=8, retry_budget=1),
            plant_attack=True,
        )
        profile = ENGINE.profile("apache")
        for i in range(4):
            assert sup.submit(_benign(profile, i)).acceptable
        result = sup.submit(profile.make_attack_request())
        assert result.fatal  # the last attempt's result is returned verbatim
        counts = _recovery_counts(recorder.events)
        assert counts["quarantined"] == 1
        assert counts["rollbacks"] == 2  # one per fatal attempt
        quarantines = [e for e in recorder.events
                       if isinstance(e, RequestQuarantined)]
        assert len(quarantines) == 1 and quarantines[0].attempts == 2
        assert quarantines[0].is_attack
        # The rollback restored pre-attack state: service continues.
        assert server.alive
        for i in range(4):
            assert sup.submit(_benign(profile, i)).acceptable

    def test_rollback_loop_degrades_to_boot_image(self):
        """Enough consecutive recoveries without progress abandon the
        snapshot chain (it may have captured poisoned state) and restart
        from the boot image with a fresh stream."""
        server, sup, recorder = _supervised(
            "apache", "bounds-check",
            recovery=RecoveryPolicy(snapshot_every=8, retry_budget=5,
                                    loop_threshold=3),
            plant_attack=True,
        )
        old_stream = sup.stream
        profile = ENGINE.profile("apache")
        result = sup.submit(profile.make_attack_request())
        counts = _recovery_counts(recorder.events)
        assert result.fatal and counts["quarantined"] == 1
        # 6 fatal attempts with loop_threshold=3: recoveries 3 and 6 degrade.
        assert counts["boot_restarts"] == 2
        assert counts["rollbacks"] == 4
        assert sup.stream is not old_stream and len(sup.stream) == 1
        boot_events = [e for e in recorder.events
                       if isinstance(e, RollbackPerformed) and e.to_boot_image]
        assert len(boot_events) == 2
        assert all(e.snapshot_index == 0 for e in boot_events)
        assert sup.submit(_benign(profile, 0)).acceptable

    def test_every_fatal_attempt_emits_one_rollback_with_its_request_id(self):
        """The tally invariant ``fleet report`` depends on: fatal RequestEnd
        events and RollbackPerformed events pair up 1:1 by request id."""
        injector = FaultInjector(seed=11, every=3)
        server, sup, recorder = _supervised(
            "apache", "failure-oblivious",
            recovery=RecoveryPolicy(snapshot_every=6),
            injector=injector,
        )
        profile = ENGINE.profile("apache")
        for i in range(24):
            sup.submit(_benign(profile, i))
        fatal_ends = [e for e in recorder.events
                      if isinstance(e, RequestEnd) and e.outcome in _FATAL]
        rollbacks = [e for e in recorder.events
                     if isinstance(e, RollbackPerformed)]
        assert fatal_ends, "expected the injector to kill some attempts"
        assert sorted(e.request_id for e in fatal_ends) == sorted(
            e.request_id for e in rollbacks
        )
        # And pairing is positional too: each fatal end's next recovery
        # event carries its id.
        stream = [e for e in recorder.events
                  if isinstance(e, (RequestEnd, RollbackPerformed))]
        for pos, event in enumerate(stream):
            if isinstance(event, RequestEnd) and event.outcome in _FATAL:
                follower = stream[pos + 1]
                assert isinstance(follower, RollbackPerformed)
                assert follower.request_id == event.request_id

    def test_supervision_rejects_an_unbooted_server(self):
        server = ENGINE.build_server("apache", "failure-oblivious")
        with pytest.raises(ValueError, match="booted"):
            RecoverySupervisor(server)

    def test_processing_behind_the_supervisors_back_is_detected(self):
        server, sup, _ = _supervised(
            "apache", "failure-oblivious",
            recovery=RecoveryPolicy(snapshot_every=1),
        )
        profile = ENGINE.profile("apache")
        server.ctx.checkpoint()  # desynchronizes the delta chain
        with pytest.raises(ValueError, match="behind the stream's back"):
            sup.submit(_benign(profile, 0))


def _comparable(image):
    """``image`` with its epoch dropped and payloads as bytes: what two
    captures of the same state must agree on."""
    space = dataclasses.replace(
        image.space,
        epoch=0,
        segments=tuple((name, base, bytes(payload))
                       for name, base, payload in image.space.segments),
    )
    return dataclasses.replace(image, space=space)


def _serving_image(server_name, policy_name, store):
    """A fleet template's serving image, captured into ``store``."""
    template = ENGINE.build_server(server_name, policy_name, plant_attack=True, scale=0.25)
    template.start(setup=ENGINE.profile(server_name).make_follow_ups(), store=store)
    return template.boot_image


def _clone(server_name, policy_name, image):
    clone = ENGINE.build_server(server_name, policy_name, plant_attack=True, scale=0.25)
    clone.adopt_image(image)
    return clone


def _event_record(events):
    """The events as comparable data, wall-clock fields left out."""
    return [
        (type(event).__name__,
         {k: v for k, v in dataclasses.asdict(event).items() if k != "elapsed_seconds"})
        for event in events
    ]


class TestSnapshotZeroIsTheAdoptedImage:
    """Snapshot 0 taken from the image a context was just restored from is
    the same snapshot as a fresh full checkpoint of that context."""

    @pytest.mark.parametrize("server_name,policy_name", [
        ("apache", "failure-oblivious"),
        ("minic-sendmail", "failure-oblivious"),
        ("pine", "failure-oblivious"),
        ("midnight-commander", "bounds-check"),
    ])
    def test_stream_from_the_image_equals_one_from_a_full_checkpoint(
            self, server_name, policy_name):
        """Equal on every field, the object table's ``lookups`` included: a
        compiled mini-C server's handler-state thaw re-binds its frozen
        pointers without charging a lookup, so a full checkpoint taken after
        the adopt reads what the adopted image reads."""
        profile = ENGINE.profile(server_name)
        attack = profile.make_attack_request()
        requests = [attack, _benign(profile, 0), profile.make_attack_request()]
        with SharedImageStore() as store:
            image = _serving_image(server_name, policy_name, store)
            adopted = _clone(server_name, policy_name, image)
            checked = _clone(server_name, policy_name, image)
            assert checked.ctx.table.lookups == image.ctx.table.lookups
            from_image = CheckpointStream(adopted.ctx, base=image.ctx)
            from_checkpoint = CheckpointStream(checked.ctx)
            assert from_image.base is image.ctx
            assert from_checkpoint.base is not image.ctx

            def agree(ours, theirs):
                assert _comparable(ours) == _comparable(theirs)

            agree(from_image.image_at(0), from_checkpoint.image_at(0))
            for server, stream in ((adopted, from_image), (checked, from_checkpoint)):
                for request in requests:
                    server.process(request)
                stream.snapshot()
                server.process(attack)
                assert stream.restore(0) > 0
            agree(adopted.ctx.checkpoint(), checked.ctx.checkpoint())
            agree(from_image.image_at(0), from_checkpoint.image_at(0))

    @pytest.mark.parametrize("leave", ["write", "read", "checkpoint"])
    def test_stream_refuses_an_image_the_context_has_left(self, leave):
        with SharedImageStore() as store:
            image = _serving_image("apache", "failure-oblivious", store)
            clone = _clone("apache", "failure-oblivious", image)
            if leave == "write":
                clone.ctx.malloc(8)
            elif leave == "read":
                heap = clone.ctx.space.heap
                clone.ctx.space.read(heap.base, 1)
            else:
                clone.ctx.checkpoint()
            with pytest.raises(ValueError, match="snapshot 0"):
                CheckpointStream(clone.ctx, base=image.ctx)

    def test_supervisor_checkpoints_a_server_that_left_its_image(self):
        server = ENGINE.build_server("apache", "failure-oblivious")
        server.start()
        server.ctx.malloc(8)
        supervisor = RecoverySupervisor(server, RecoveryPolicy())
        assert supervisor.stream.base is not server.boot_image.ctx
        served = ENGINE.build_server("apache", "failure-oblivious")
        served.start()
        served.process(_benign(ENGINE.profile("apache"), 0))
        supervisor = RecoverySupervisor(served, RecoveryPolicy())
        assert supervisor.stream.base is not served.boot_image.ctx

    def test_boot_image_degradation_equals_the_full_checkpoint_chain(self, monkeypatch):
        """Rollback-loop degradations restart from the boot image and start
        a fresh chain from it: the same events, results and memory as
        chains started from full checkpoints."""
        profile = ENGINE.profile("apache")
        requests = ([_benign(profile, i) for i in range(3)]
                    + [profile.make_attack_request(), _benign(profile, 3),
                       profile.make_attack_request(), _benign(profile, 4)])

        def serve():
            server, supervisor, recorder = _supervised(
                "apache", "bounds-check",
                recovery=RecoveryPolicy(snapshot_every=2, retry_budget=5,
                                        loop_threshold=3),
                plant_attack=True,
            )
            results = [supervisor.submit(request).outcome for request in requests]
            return server, supervisor, recorder, results

        server, supervisor, recorder, results = serve()
        assert _recovery_counts(recorder.events)["boot_restarts"] == 4
        assert supervisor.stream.base is server.boot_image.ctx
        with monkeypatch.context() as patch:
            patch.setattr(AddressSpace, "clean_against", lambda space, cp: False)
            ref_server, ref_supervisor, ref_recorder, ref_results = serve()
        assert ref_supervisor.stream.base is not ref_server.boot_image.ctx
        assert results == ref_results
        assert _event_record(recorder.events) == _event_record(ref_recorder.events)
        assert _recovery_counts(recorder.events) == _recovery_counts(ref_recorder.events)
        assert len(supervisor.stream) == len(ref_supervisor.stream)
        assert _comparable(supervisor.stream.image_at(0)) == _comparable(
            ref_supervisor.stream.image_at(0))
        assert _comparable(server.ctx.checkpoint()) == _comparable(
            ref_server.ctx.checkpoint())


class CrashServer(Server):
    """Toy server that boots cleanly and dies on a "crash" request."""

    name = "toy-crash"

    def startup(self) -> None:
        pass

    def handle(self, request: Request) -> Response:
        if request.kind == "crash":
            raise SegmentationFault(0, "request smashed the heap")
        return Response.ok(body=b"ok")


def _monitored(server, policy=None):
    """Supervise ``server`` (booted with a tally sink attached) and return
    the supervisor, the sink and a recorder of its events."""
    sink = server.add_telemetry_sink(FleetTallySink())
    recorder = server.add_telemetry_sink(ListSink())
    server.start()
    return RecoverySupervisor(server, policy), sink, recorder


def _boot_restarts(recorder):
    return [e for e in recorder.events
            if isinstance(e, RollbackPerformed) and e.to_boot_image]


class TestMonitorMode:
    """``RecoverySupervisor(server, None)``: the terminate-and-restart monitor."""

    def test_death_counts_as_failed_and_the_next_request_restarts(self):
        sup, sink, recorder = _monitored(CrashServer(StandardPolicy))
        assert sup.submit(Request(kind="ok")).acceptable
        result = sup.submit(Request(kind="crash"))
        assert result.fatal and not sup.server.alive
        # The restart is lazy: nothing happens until the next request.
        assert not _boot_restarts(recorder)
        assert sup.submit(Request(kind="ok")).acceptable
        restarts = _boot_restarts(recorder)
        assert len(restarts) == 1 and restarts[0].request_id is None
        tally = sink.tally(0, "toy-crash", "standard")
        assert (tally.requests, tally.legitimate_served, tally.legitimate_failed) == (3, 2, 1)
        assert (tally.server_deaths, tally.restarts, tally.rollbacks) == (1, 1, 0)
        assert sup.stream is None and _recovery_counts(recorder.events)["snapshots"] == 0

    def test_death_on_the_last_request_costs_no_restart(self):
        sup, sink, recorder = _monitored(CrashServer(StandardPolicy))
        sup.submit(Request(kind="ok"))
        sup.submit(Request(kind="crash"))
        tally = sink.tally(0, "toy-crash", "standard")
        assert (tally.server_deaths, tally.restarts) == (1, 0)
        assert not _boot_restarts(recorder)

    @pytest.mark.parametrize("policy", [None, RecoveryPolicy()], ids=["monitor", "policy"])
    def test_boot_fatal_server_restarts_then_drops_every_request(self, policy):
        """Pine's poisoned mailbox kills every bounds-check boot: one restart
        at construction, then one restart and one drop per request."""
        server = ENGINE.build_server("pine", "bounds-check", plant_attack=True, scale=0.25)
        sup, sink, recorder = _monitored(server, policy)
        assert not server.alive
        assert len(_boot_restarts(recorder)) == 1
        profile = ENGINE.profile("pine")
        for i in range(3):
            assert sup.submit(_benign(profile, i)) is None
        assert len(_boot_restarts(recorder)) == 4
        drops = [e for e in recorder.events
                 if isinstance(e, RequestEnd) and e.outcome == DROPPED_OUTCOME]
        assert len(drops) == 3
        tally = sink.tally(0, "pine", "bounds-check")
        # The boot, the construction-time restart and one restart per request.
        assert tally.server_deaths == 5
        assert (tally.restarts, tally.dropped, tally.legitimate_failed) == (4, 3, 3)


class TestFaultInjector:
    def test_same_seed_same_decisions(self):
        a = FaultInjector(seed=42, rate=0.3)
        b = FaultInjector(seed=42, rate=0.3)
        for injector in (a, b):
            server, sup, _ = _supervised(
                "apache", "failure-oblivious",
                recovery=RecoveryPolicy(snapshot_every=50),
                injector=injector,
            )
            profile = ENGINE.profile("apache")
            for i in range(30):
                sup.submit(_benign(profile, i))
        assert a.decisions == b.decisions == 30
        assert a.injected == b.injected > 0

    def test_alloc_fail_faults_are_fatal_then_recovered(self):
        injector = FaultInjector(seed=3, every=4, kinds=("alloc-fail",))
        server, sup, recorder = _supervised(
            "apache", "failure-oblivious",
            recovery=RecoveryPolicy(snapshot_every=50),
            injector=injector,
        )
        profile = ENGINE.profile("apache")
        for i in range(12):
            assert sup.submit(_benign(profile, i)).acceptable
        assert injector.injected == 3
        assert _recovery_counts(recorder.events)["rollbacks"] == 3

    def test_corrupt_faults_are_caught_by_the_heap_walk(self):
        injector = FaultInjector(seed=5, every=4, kinds=("corrupt",))
        server, sup, recorder = _supervised(
            "apache", "failure-oblivious",
            recovery=RecoveryPolicy(snapshot_every=50),
            injector=injector,
        )
        profile = ENGINE.profile("apache")
        for i in range(12):
            assert sup.submit(_benign(profile, i)).acceptable
        assert injector.injected == 3
        assert _recovery_counts(recorder.events)["rollbacks"] > 0

    def test_unknown_kind_is_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kinds"):
            FaultInjector(seed=0, kinds=("segfault",))
        assert set(FAULT_KINDS) == {"abort", "alloc-fail", "corrupt"}


class TestSharedStreamAcrossFork:
    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_reads_delta_payloads_zero_copy(self):
        """A delta chain whose payloads live in a SharedImageStore is
        readable from a forked child through the inherited mapping — the
        forensics workflow for live fleets."""
        from repro.core.policies import FailureObliviousPolicy
        from repro.memory.checkpoint_stream import CheckpointStream
        from repro.memory.context import MemoryContext
        from repro.memory.shared_image import SharedImageStore

        ctx = MemoryContext(FailureObliviousPolicy())
        with SharedImageStore() as store:
            stream = CheckpointStream(ctx, store=store)
            buf = ctx.malloc(64, name="shared")
            ctx.mem.write(buf, b"written before snapshot one!")
            stream.snapshot()
            expected = {
                name: contents
                for name, _base, contents in stream.space_checkpoint(1).segments
            }
            # Shared payloads arrive as readonly shm-backed memoryviews.
            assert any(
                isinstance(payload, memoryview)
                for _name, entries in stream.deltas[0].space.blocks
                for _block, payload in entries
            )
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:  # child
                try:
                    os.close(read_fd)
                    materialized = {
                        name: contents
                        for name, _base, contents in
                        stream.space_checkpoint(1).segments
                    }
                    ok = all(
                        bytes(materialized[name]) == bytes(expected[name])
                        for name in expected
                    )
                    os.write(write_fd, b"ok" if ok else b"no")
                finally:
                    os._exit(0)
            os.close(write_fd)
            try:
                verdict = os.read(read_fd, 2)
            finally:
                os.close(read_fd)
                os.waitpid(pid, 0)
            assert verdict == b"ok"


class TestForensics:
    def _attack_snapshots(self, tmp_path):
        server = ENGINE.build_server(
            "pine", "failure-oblivious", plant_attack=True, scale=0.25
        )
        assert not server.start().fatal
        profile = ENGINE.profile("pine")
        for request in profile.make_follow_ups():
            server.process(request)
        before = tmp_path / "before.snap"
        after = tmp_path / "after.snap"
        save_snapshot(str(before), server.ctx.space.checkpoint(),
                      label="pine pre-attack")
        server.process(profile.make_attack_request())
        save_snapshot(str(after), server.ctx.space.checkpoint(),
                      label="pine post-attack")
        return before, after

    def test_save_load_round_trip(self, tmp_path):
        before, _after = self._attack_snapshots(tmp_path)
        checkpoint, label = load_snapshot(str(before))
        assert label == "pine pre-attack"
        names = {name for name, _base, _data in checkpoint.segments}
        assert {"globals", "heap", "stack"} <= names

    def test_diff_reports_the_attacks_dirtied_blocks(self, tmp_path):
        """Acceptance: the forensics diff of pre/post-attack snapshots
        pinpoints the heap blocks the overflow dirtied."""
        before, after = self._attack_snapshots(tmp_path)
        cp_a, _ = load_snapshot(str(before))
        cp_b, _ = load_snapshot(str(after))
        diff = diff_snapshots(cp_a, cp_b)
        assert diff.changed_blocks > 0
        assert diff.changed_bytes > 0
        assert any(name == "heap" and blocks
                   for name, _base, blocks in diff.segments)

    def test_identical_snapshots_diff_empty(self, tmp_path):
        before, _after = self._attack_snapshots(tmp_path)
        cp, _ = load_snapshot(str(before))
        diff = diff_snapshots(cp, cp)
        assert diff.changed_blocks == 0 and diff.changed_bytes == 0

    def test_forensics_cli_capture_then_diff(self, tmp_path, capsys):
        before = tmp_path / "b.snap"
        after = tmp_path / "a.snap"
        rc = cli_main([
            "forensics", "capture", "pine",
            "--before", str(before), "--after", str(after),
        ])
        assert rc == 0
        assert before.exists() and after.exists()
        capsys.readouterr()
        rc = cli_main(["forensics", "diff", str(before), str(after)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "heap" in out
        assert "block" in out

    def test_forensics_diff_rejects_non_snapshot_files(self, tmp_path, capsys):
        bogus = tmp_path / "not-a-snapshot.bin"
        bogus.write_bytes(b"definitely not repro-snapshot/v1")
        rc = cli_main(["forensics", "diff", str(bogus), str(bogus)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


SOAK_SPECS = [
    InstanceSpec("apache", "failure-oblivious", attack_every=25),
    InstanceSpec("apache", "bounds-check", attack_every=25),
    InstanceSpec("minic-sendmail", "failure-oblivious", attack_every=25),
    InstanceSpec("minic-sendmail", "bounds-check", attack_every=25),
]
SOAK_KW = dict(
    total_requests=10_000,
    seed=13,
    recovery=RecoveryPolicy(snapshot_every=64, retry_budget=1),
    fault_every=101,
)


class TestSelfHealingSoak:
    """The PR's acceptance soak: ≥10k requests, 2 servers × 2 policies,
    faults injected, legitimate availability 1.0, worker-invariant."""

    @pytest.fixture(scope="class")
    def serial_result(self):
        return run_fleet(SOAK_SPECS, workers=0, **SOAK_KW)

    def test_full_availability_for_legitimate_traffic(self, serial_result):
        result = serial_result
        assert result.total_requests >= 10_000
        assert result.faults_injected > 0
        assert result.rollbacks > 0
        for tally in result.instances:
            assert tally.legitimate_served == (
                tally.legitimate_requests - tally.quarantined
            ), (tally.server, tally.policy, tally.index)
            assert tally.availability == 1.0, (tally.server, tally.policy, tally.index)

    def test_bounds_check_quarantines_attacks_and_survives(self, serial_result):
        for server in ("apache", "minic-sendmail"):
            bc = next(t for t in serial_result.instances
                      if t.server == server and t.policy == "bounds-check")
            fo = next(t for t in serial_result.instances
                      if t.server == server and t.policy == "failure-oblivious")
            # Bounds-check turns every attack into quarantined poison...
            assert bc.quarantined_attacks > 0
            assert bc.attacks_survived == 0
            # ...while failure-oblivious absorbs them and keeps going.
            assert fo.attacks_survived > 0
            assert fo.quarantined_attacks == 0

    def test_snapshots_follow_the_cadence(self, serial_result):
        for tally in serial_result.instances:
            assert tally.snapshots > 0, (tally.server, tally.policy, tally.index)

    def test_pooled_soak_is_bit_identical_to_serial(self, serial_result):
        pooled = run_fleet(SOAK_SPECS, workers=4, **SOAK_KW)
        assert [t.as_dict() for t in pooled.instances] == [
            t.as_dict() for t in serial_result.instances
        ]
