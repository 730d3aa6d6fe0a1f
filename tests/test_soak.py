"""The sharded soak: deterministic chunking, worker-invariant tallies.

A soak with ``shards=K`` is a K-instance fleet of one (server, policy):
instance *i* serves stream chunk *i*.  Chunk boundaries depend only on the
shard count, every instance starts from a clone of the same post-boot image,
and serial and pooled execution run the same shard function — so the tallies
must be identical however many workers run them, and identical to the
reboot-per-death cost model.
"""

from __future__ import annotations

import dataclasses
import json
import os

import pytest

from repro.fleet.report import fleet_report_from_trace
from repro.fleet.scheduler import split_contiguous
from repro.harness.experiments import run_experiment
from repro.harness.stability import run_stability_experiment
from repro.servers.apache import PROFILE as APACHE_PROFILE
from repro.servers.apache import ApacheServer
from repro.servers.base import Request
from repro.servers.profile import register_profile, unregister_profile
from repro.telemetry.session import TelemetrySession
from repro.telemetry.summary import summarize_trace
from tests.conftest import stream_fields


class TestSplitStream:
    def test_contiguous_and_complete(self):
        requests = [Request(kind="k", payload={"i": i}) for i in range(11)]
        chunks = split_contiguous(requests, 4)
        assert [len(c) for c in chunks] == [3, 3, 3, 2]
        assert [r.payload["i"] for c in chunks for r in c] == list(range(11))

    def test_more_shards_than_requests(self):
        requests = [Request(kind="k") for _ in range(2)]
        assert [len(c) for c in split_contiguous(requests, 8)] == [1, 1]

    def test_rejects_nonpositive_shards(self):
        with pytest.raises(ValueError):
            split_contiguous([], 0)


SOAK_KW = dict(total_requests=60, attack_every=3, shards=4, seed=7)


def soak(server, policy, workers=0, **overrides):
    return run_stability_experiment(server, policy, workers=workers, **{**SOAK_KW, **overrides})


class RebootApache(ApacheServer):
    """Apache without checkpoint restarts: every death pays a full reboot."""

    def restart(self):
        return self.restart_from_scratch()


@pytest.fixture
def reboot_apache():
    profile = register_profile(
        dataclasses.replace(APACHE_PROFILE, name="apache-reboot", server_cls=RebootApache)
    )
    yield profile.name
    unregister_profile(profile.name)


class TestShardedSoak:
    def test_parallel_tallies_identical_to_serial(self):
        serial = soak("apache", "bounds-check", workers=0)
        pooled = soak("apache", "bounds-check", workers=2)
        assert serial.tally() == pooled.tally()
        assert pooled.shard_count == serial.shard_count == 4
        assert [t.index for t in pooled.instances] == [0, 1, 2, 3]

    def test_checkpoint_tallies_identical_to_reboot_per_death(self, reboot_apache):
        checkpointed = soak("apache", "bounds-check")
        scratch = soak(reboot_apache, "bounds-check")

        def without_server(result):
            return [{k: v for k, v in row.items() if k != "server"} for row in result.tally()]

        assert without_server(checkpointed) == without_server(scratch)
        assert scratch.restarts == checkpointed.restarts > 0

    def test_failure_oblivious_soaks_without_deaths(self):
        result = soak("apache", "failure-oblivious")
        assert result.server_deaths == 0
        assert result.restarts == 0
        assert result.legitimate_failed == 0
        assert result.legitimate_served == result.legitimate_requests

    def test_bounds_check_deaths_are_recovered_by_restarts(self):
        result = soak("apache", "bounds-check")
        # Every attack kills the child; the monitor restores the boot image
        # before the next request, so no legitimate request is lost.
        assert result.server_deaths == result.attack_requests
        assert result.restarts > 0
        assert result.legitimate_failed == 0

    def test_fatal_boot_image_counts_deaths_like_stability(self):
        # Pine with the poisoned mailbox dies during boot under bounds-check.
        # Per instance, stability's accounting applies: the fatal boot (1
        # death) plus a failed pre-stream retry (1 death), then one failed
        # restart per arriving request — so the totals are exact.
        result = soak("pine", "bounds-check")
        assert result.boot_fatal["pine/bounds-check"]
        assert result.legitimate_served == 0
        assert result.server_deaths == 2 * result.shard_count + result.total_requests
        assert result.restarts == result.shard_count + result.total_requests
        assert result.legitimate_failed == result.legitimate_requests

    def test_throughput_is_reported(self):
        result = soak("apache", "bounds-check")
        assert result.requests_per_sec > 0
        assert result.wall_seconds > 0

    def test_mutt_soak_runs_session_setup(self):
        """Regression: every soak instance starts from the post-setup image.

        Mutt's planted startup folder is rejected at boot, and the profile's
        session setup re-opens the INBOX; a soak that cloned the raw boot
        image served none of its legitimate requests.
        """
        result = soak("mutt", "failure-oblivious")
        assert result.legitimate_requests == 41
        assert result.legitimate_served == 41
        assert result.server_deaths == 0


class TestSoakTelemetry:
    def test_exported_stream_has_identical_counts_serial_and_pooled(self, tmp_path):
        """The PR 3 spill-file machinery carries instance events: pooled and
        serial runs export streams with identical aggregate counts."""
        summaries = {}
        for label, workers in (("serial", 0), ("pooled", 2)):
            out = os.path.join(tmp_path, f"{label}.jsonl")
            with TelemetrySession(directory=os.path.join(tmp_path, label)) as session:
                soak("apache", "bounds-check", workers=workers)
                session.merge(out)
            scenario_ids = set()
            with open(out, "r", encoding="utf-8") as handle:
                for line in handle:
                    scenario_ids.add(json.loads(line).get("scenario"))
            summary = summarize_trace(out)
            summaries[label] = (
                summary.by_type,
                summary.counters.invalid_total,
                summary.counters.requests_by_outcome,
                scenario_ids,
            )
        # Identical counts AND identical stream shape: serial instances stamp
        # their scenario ids exactly like pooled instances do.
        assert summaries["serial"] == summaries["pooled"]

    def test_pooled_export_reads_in_stream_order(self, tmp_path):
        """Instances stamp their index as the scenario id, so the merged
        JSONL is ordered by stream chunk even though workers interleave."""
        out = os.path.join(tmp_path, "soak.jsonl")
        with TelemetrySession(directory=os.path.join(tmp_path, "spill")) as session:
            soak("apache", "bounds-check", workers=2)
            session.merge(out)
        scenario_of_request_start = []
        with open(out, "r", encoding="utf-8") as handle:
            for line in handle:
                record = json.loads(line)
                if record.get("event") == "request-start" and "scenario" in record:
                    scenario_of_request_start.append(record["scenario"])
        shard_ids = [sid for sid in scenario_of_request_start if sid >= 0]
        assert shard_ids == sorted(shard_ids)
        assert set(shard_ids) == {0, 1, 2, 3}


class TestMultiFleetExport:
    """Several fleets in one session export as distinct instances: each fleet
    reserves its own block of scenario ids."""

    def _export(self, tmp_path, experiment_id, **kwargs):
        out = os.path.join(tmp_path, f"{experiment_id}.jsonl")
        with TelemetrySession(directory=os.path.join(tmp_path, "spill")) as session:
            output = run_experiment(experiment_id, **kwargs)
            session.merge(out)
        return output, fleet_report_from_trace(out)

    def test_soak_export_reports_every_build_separately(self, tmp_path):
        output, reported = self._export(tmp_path, "exp-soak", total_requests=48, shards=4)
        live = [tally for result in output.data.values() for tally in result.instances]
        assert len(live) == len(reported) == 12
        assert [stream_fields(t) for t in reported] == [stream_fields(t) for t in live]
        assert [t.index for t in reported] == list(range(12))

    def test_stability_export_reports_every_server_separately(self, tmp_path):
        output, reported = self._export(tmp_path, "exp-stability", total_requests=20)
        live = list(output.data.values())
        assert [t.server for t in reported] == sorted(output.data)
        assert [stream_fields(t) for t in reported] == [stream_fields(t) for t in live]
