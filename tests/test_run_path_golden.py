"""Golden tallies: the stability run and the sharded soak on the fleet path.

``data/run_path_golden.json`` holds tallies captured from the standalone
stability and soak harnesses that the fleet scheduler replaced:

* ``stability`` / ``stability_no_restart`` — every registered profile x 5
  policies, 80 requests, attack every 10, scale 0.25 (the ``exp-stability``
  table's configuration), with and without the restart monitor;
* ``soak`` — every profile x policy as a 4-shard soak (60 requests, attack
  every 3, seed 7), one tally per shard;
* ``fragile`` — the two ``FragileServer`` restart-accounting streams.

A stability "death" there is ``server_deaths + boot_deaths`` here.  The one
documented difference: the standalone soak never ran the profile's session
setup, so its failure-oblivious, boundless and redirect Mutt shards served
none of their legitimate requests; on the fleet path they serve all of them.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.core.policies import POLICY_NAMES
from repro.fleet.scheduler import InstanceSpec, InstanceTally, run_fleet
from repro.harness.stability import run_stability_experiment
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
        "server_deaths": tally.server_deaths + tally.boot_deaths,
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
    for section in ("stability", "stability_no_restart", "soak"):
        assert set(GOLDEN[section]) == cells, section


def test_restart_monitor_matters_only_where_it_restarted():
    """Justifies running ``stability_no_restart`` only on restarted cells."""
    for key, golden in GOLDEN["stability"].items():
        if golden["restarts"] == 0:
            assert GOLDEN["stability_no_restart"][key] == golden, key


@pytest.mark.parametrize("server", SERVERS)
def test_stability_matches_golden(server):
    for policy in POLICIES:
        key = f"{server}/{policy}"
        for section, restart in (("stability", True), ("stability_no_restart", False)):
            if not restart and GOLDEN["stability"][key]["restarts"] == 0:
                continue
            result = run_stability_experiment(
                server, policy, total_requests=80, attack_every=10, scale=0.25,
                restart_on_death=restart,
            )
            assert stability_fields(result.instances[0]) == GOLDEN[section][key], (
                section, key)


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

