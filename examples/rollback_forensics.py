#!/usr/bin/env python3
"""Self-healing walkthrough: rollback recovery, fault injection, forensics.

Three acts:

1. **Supervised serving.**  Apache under the bounds-check build is wrapped in
   a :class:`~repro.recovery.supervisor.RecoverySupervisor`.  Benign traffic
   flows; a planted attack kills the server twice, burns its retry budget,
   and is quarantined — and because every recovery is a rollback to the last
   incremental snapshot, the requests served before the attack are never
   re-lost the way a boot-image restart would lose them.

2. **Fault-injected soak.**  A small fleet (Apache and the compiled mini-C
   sendmail, under failure-oblivious and bounds-check) runs with a seeded
   fault injector firing aborts, failed allocations, and heap-header
   corruption.  Every legitimate request is still served: transient faults
   are retried off the last snapshot.

3. **Memory forensics.**  Pine's message index is snapshotted before and
   after the paper's ``From:``-field overflow, and the block-level diff
   shows exactly which heap blocks the attack dirtied.

Run with:  python examples/rollback_forensics.py
"""

from __future__ import annotations

import os
import tempfile

from repro.fleet.scheduler import FleetTallySink, InstanceSpec, run_fleet
from repro.harness.engine import ENGINE
from repro.recovery import (
    FaultInjector,
    RecoveryPolicy,
    RecoverySupervisor,
    diff_snapshots,
    format_diff,
    load_snapshot,
    save_snapshot,
)


def act_one_supervised_serving() -> None:
    print("=== 1. Rollback recovery under the bounds-check build ===\n")
    server = ENGINE.build_server(
        "apache", "bounds-check", plant_attack=True, scale=0.25
    )
    server.start()
    profile = ENGINE.profile("apache")
    # The supervisor reports each snapshot, rollback and quarantine as an
    # event; this sink counts them.
    sink = server.add_telemetry_sink(FleetTallySink())
    supervisor = RecoverySupervisor(
        server, RecoveryPolicy(snapshot_every=4, retry_budget=1)
    )
    for i in range(8):
        supervisor.submit(profile.make_request("small", index=i))
    print(f"served 8 benign requests; snapshots taken: "
          f"{sink.tally(0, server.name, 'bounds-check').snapshots}")
    result = supervisor.submit(profile.make_attack_request())
    tally = sink.tally(0, server.name, "bounds-check")
    print(f"attack outcome       : {result.outcome.value}")
    print(f"rollbacks performed  : {tally.rollbacks}")
    print(f"requests quarantined : {tally.quarantined + tally.quarantined_attacks}")
    follow_up = supervisor.submit(profile.make_request("small", index=99))
    print(f"next benign request  : {follow_up.outcome.value} "
          f"(the rollback kept the server serving)\n")
    server.stop()


def act_two_fault_injected_fleet() -> None:
    print("=== 2. Fault-injected self-healing fleet ===\n")
    specs = [
        InstanceSpec("apache", "failure-oblivious", attack_every=25),
        InstanceSpec("apache", "bounds-check", attack_every=25),
        InstanceSpec("minic-sendmail", "failure-oblivious", attack_every=25),
        InstanceSpec("minic-sendmail", "bounds-check", attack_every=25),
    ]
    result = run_fleet(
        specs,
        total_requests=1200,
        seed=13,
        workers=0,
        recovery=RecoveryPolicy(snapshot_every=32, retry_budget=1),
        fault_every=53,
    )
    print(f"requests             : {result.total_requests}")
    print(f"faults injected      : {result.faults_injected}")
    print(f"snapshots taken      : {result.snapshots}")
    print(f"rollbacks performed  : {result.rollbacks}")
    print(f"attacks quarantined  : {result.quarantined}")
    print(f"legitimate served    : {result.legitimate_served}"
          f"/{result.legitimate_requests}")
    print(f"fleet availability   : {result.availability:.3f} "
          f"(quarantined poison excluded)\n")


def act_three_forensics() -> None:
    print("=== 3. Forensics: which blocks did the attack dirty? ===\n")
    server = ENGINE.build_server(
        "pine", "failure-oblivious", plant_attack=True, scale=0.25
    )
    server.start()
    profile = ENGINE.profile("pine")
    for request in profile.make_follow_ups():
        server.process(request)
    with tempfile.TemporaryDirectory() as scratch:
        before = os.path.join(scratch, "before.snap")
        after = os.path.join(scratch, "after.snap")
        save_snapshot(before, server.ctx.space.checkpoint(),
                      label="pine pre-attack")
        server.process(profile.make_attack_request())
        save_snapshot(after, server.ctx.space.checkpoint(),
                      label="pine post-attack")
        cp_a, label_a = load_snapshot(before)
        cp_b, label_b = load_snapshot(after)
        diff = diff_snapshots(cp_a, cp_b, a_label=label_a, b_label=label_b)
        print(format_diff(diff))
    server.stop()
    print("\n(The same workflow is scriptable: `python -m repro forensics "
          "capture pine --before pre.snap --after post.snap` then "
          "`python -m repro forensics diff pre.snap post.snap`.)")


def main() -> None:
    act_one_supervised_serving()
    act_two_fault_injected_fleet()
    act_three_forensics()


if __name__ == "__main__":
    main()
