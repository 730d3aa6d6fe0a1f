"""Golden tallies: the stability run, the sharded soak and supervised fleets.

``data/run_path_golden.json`` holds tallies captured from the standalone
stability and soak harnesses that the fleet scheduler replaced:

* ``stability`` — every registered profile x 5 policies, 80 requests, attack
  every 10, scale 0.25 (the ``exp-stability`` table's configuration);
* ``soak`` — every profile x policy as a 4-shard soak (60 requests, attack
  every 3, seed 7), one tally per shard;
* ``fragile`` — the two ``FragileServer`` restart-accounting streams;

and ``supervised``: whole ``FleetResult.tally()`` lists for the fleets in
:data:`SUPERVISED_RUNS`, captured while the scheduler still restarted
unsupervised instances itself (its separately counted boot deaths folded
into ``server_deaths``).

A stability "death" there is ``server_deaths`` here.  The one documented
difference: the standalone soak never ran the profile's session setup, so
its failure-oblivious, boundless and redirect Mutt shards served none of
their legitimate requests; on the fleet path they serve all of them.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.core.policies import POLICY_NAMES
from repro.fleet.scheduler import InstanceSpec, InstanceTally, run_fleet
from repro.harness.stability import run_stability_experiment
from repro.recovery.supervisor import RecoveryPolicy
from repro.servers.base import Request
from repro.servers.profile import PROFILES

with open(os.path.join(os.path.dirname(__file__), "data", "run_path_golden.json"),
          encoding="utf-8") as _handle:
    GOLDEN = json.load(_handle)

SERVERS = ("apache", "midnight-commander", "minic-pine", "minic-sendmail", "mutt",
           "pine", "sendmail")
POLICIES = sorted(POLICY_NAMES)
SOAK_KW = dict(total_requests=60, attack_every=3, shards=4, seed=7)
#: Servers whose soaks are also run over the fork pool: restart-per-death
#: (apache), fatal boot (pine) and session setup (mutt).
POOLED_SERVERS = ("apache", "mutt", "pine")
#: Soak cells whose golden tallies carry the missing-session-setup bug.
MUTT_SETUP_CELLS = {("mutt", "failure-oblivious"), ("mutt", "boundless"),
                    ("mutt", "redirect")}


def stability_fields(tally: InstanceTally) -> dict:
    return {
        "total_requests": tally.requests,
        "attack_requests": tally.attack_requests,
        "legitimate_requests": tally.legitimate_requests,
        "legitimate_served": tally.legitimate_served,
        "legitimate_failed": tally.legitimate_failed,
        "attacks_survived": tally.attacks_survived,
        "server_deaths": tally.server_deaths,
        "restarts": tally.restarts,
        "memory_errors_logged": tally.memory_errors_logged,
        "error_sites": dict(sorted(tally.error_sites.items())),
        "flawless": tally.flawless,
    }


def shard_fields(tally: InstanceTally) -> dict:
    fields = stability_fields(tally)
    fields["requests"] = fields.pop("total_requests")
    for name in ("legitimate_requests", "flawless"):
        del fields[name]
    return fields


def test_golden_covers_every_profile_and_policy():
    assert set(SERVERS) <= set(PROFILES)
    cells = {f"{server}/{policy}" for server in SERVERS for policy in POLICIES}
    for section in ("stability", "soak"):
        assert set(GOLDEN[section]) == cells, section
    assert set(GOLDEN["supervised"]) == set(SUPERVISED_RUNS)


@pytest.mark.parametrize("server", SERVERS)
def test_stability_matches_golden(server):
    for policy in POLICIES:
        key = f"{server}/{policy}"
        result = run_stability_experiment(
            server, policy, total_requests=80, attack_every=10, scale=0.25,
        )
        assert stability_fields(result.instances[0]) == GOLDEN["stability"][key], key


@pytest.mark.parametrize("server", SERVERS)
def test_soak_matches_golden_serial_and_pooled(server):
    for policy in POLICIES:
        serial = run_stability_experiment(server, policy, workers=0, **SOAK_KW)
        if server in POOLED_SERVERS:
            pooled = run_stability_experiment(server, policy, workers=2, **SOAK_KW)
            assert serial.tally() == pooled.tally(), (server, policy)
        want = [dict(shard) for shard in GOLDEN["soak"][f"{server}/{policy}"]["shards"]]
        if (server, policy) in MUTT_SETUP_CELLS:
            # The golden shards failed every legitimate request; now each is served.
            for shard in want:
                assert shard["legitimate_served"] == 0
                shard["legitimate_served"] = shard["legitimate_failed"]
                shard["legitimate_failed"] = 0
        assert [shard_fields(tally) for tally in serial.instances] == want, (server, policy)


@pytest.mark.parametrize("case,kinds", [
    ("crash", ["ok", "crash", "ok", "ok"]),
    ("no-crash", ["ok", "ok"]),
])
def test_fragile_accounting_matches_golden(fragile_profile, case, kinds):
    requests = [Request(kind=kind) for kind in kinds]
    result = run_fleet([InstanceSpec(fragile_profile.name, "standard", requests=requests)])
    assert stability_fields(result.instances[0]) == GOLDEN["fragile"][case]


#: The fleet test suite's mix plus two more bounds-check instances: one that
#: dies per attack (midnight-commander) and one that dies at boot (mutt).
SUPERVISED_SPECS = [
    InstanceSpec("apache", "failure-oblivious", count=2),
    InstanceSpec("apache", "bounds-check"),
    InstanceSpec("pine", "failure-oblivious"),
    InstanceSpec("pine", "bounds-check"),
    InstanceSpec("mutt", "failure-oblivious"),
    InstanceSpec("sendmail", "failure-oblivious"),
    InstanceSpec("midnight-commander", "bounds-check"),
    InstanceSpec("mutt", "bounds-check"),
]
#: The perfbench ``fleet-soak`` fleet (``perfbench/serving.py:fleet_specs``).
PERFBENCH_FLEET_SPECS = [
    InstanceSpec(name, "failure-oblivious", attack_every=20)
    for name in ("sendmail", "minic-sendmail", "pine", "mutt", "midnight-commander")
] + [InstanceSpec("midnight-commander", "bounds-check", attack_every=20)]
_RECOVERY_KW = dict(total_requests=240, seed=13, recovery=RecoveryPolicy(), fault_every=7)
SUPERVISED_RUNS = {
    "plain": (SUPERVISED_SPECS, dict(total_requests=240, seed=13, workers=0)),
    "recovery": (SUPERVISED_SPECS, dict(_RECOVERY_KW, workers=0)),
    "recovery-workers-2": (SUPERVISED_SPECS, dict(_RECOVERY_KW, workers=2)),
    "tight-policy": (SUPERVISED_SPECS, dict(
        total_requests=240, seed=5, workers=0, fault_every=5,
        recovery=RecoveryPolicy(snapshot_every=4, retry_budget=2, loop_threshold=2),
    )),
    "perfbench-fleet-soak": (PERFBENCH_FLEET_SPECS, dict(
        total_requests=300, seed=301, recovery=RecoveryPolicy(), fault_every=101,
    )),
}


@pytest.mark.parametrize("run", sorted(SUPERVISED_RUNS))
def test_supervised_fleet_matches_golden(run):
    specs, kwargs = SUPERVISED_RUNS[run]
    assert run_fleet(specs, **kwargs).tally() == GOLDEN["supervised"][run]


def test_supervised_golden_is_worker_invariant():
    assert GOLDEN["supervised"]["recovery-workers-2"] == GOLDEN["supervised"]["recovery"]
