"""The fleet soak service: deterministic traffic, worker-invariant tallies,
the per-instance tally sink, and report-from-export parity.

The load-bearing invariants:

* the traffic timeline is a pure function of (seed, specs) — worker and
  shard counts cannot perturb it;
* serial and pooled runs produce identical per-instance tallies (the shard
  is the unit of determinism, and instances are independent);
* `fleet report` rebuilt from a JSONL session export equals the live
  tallies for every stream-derived column, because drops, rollbacks and
  quarantines flow through the event stream.
"""

from __future__ import annotations

import os
import random

import pytest

from repro.cli import main as cli_main
from repro.cli import parse_instance_spec
from repro.fleet.report import fleet_report_from_trace, format_fleet_table
from repro.fleet.scheduler import (
    DROPPED_OUTCOME,
    FleetTallySink,
    InstanceSpec,
    run_fleet,
    split_contiguous,
    expand_instances,
)
from repro.fleet.traffic import (
    ARRIVALS,
    BurstyArrivals,
    InstanceTraffic,
    PoissonArrivals,
    RampArrivals,
    TrafficModel,
    UniformArrivals,
    derive_seed,
    make_arrival,
    split_by_weight,
)
from repro.harness.experiments import EXPERIMENTS, run_experiment
from repro.harness.stability import run_stability_experiment
from repro.recovery.supervisor import RecoveryPolicy
from repro.servers.base import Request, bounded_history_limit
from repro.telemetry.events import RequestEnd, RollbackPerformed
from repro.telemetry.session import TelemetrySession
from repro.telemetry.summary import iter_records
from tests.conftest import stream_fields


# ---------------------------------------------------------------------------
# Traffic model
# ---------------------------------------------------------------------------


class TestDeriveSeed:
    def test_stable_and_distinguishing(self):
        assert derive_seed(7, "traffic", 0) == derive_seed(7, "traffic", 0)
        assert derive_seed(7, "traffic", 0) != derive_seed(7, "traffic", 1)
        assert derive_seed(7, "traffic", 0) != derive_seed(7, "arrival", 0)
        assert derive_seed(7, "traffic", 0) != derive_seed(8, "traffic", 0)


class TestArrivalProcesses:
    @pytest.mark.parametrize("name", sorted(ARRIVALS))
    def test_registered_processes_produce_increasing_times(self, name):
        process = make_arrival(name, rate=50.0)
        times = process.arrival_times(200, random.Random(3))
        assert len(times) == 200
        assert all(b >= a for a, b in zip(times, times[1:]))
        assert times[0] > 0

    def test_deterministic_per_seed(self):
        process = PoissonArrivals(rate=100.0)
        assert (process.arrival_times(50, random.Random(5))
                == process.arrival_times(50, random.Random(5)))
        assert (process.arrival_times(50, random.Random(5))
                != process.arrival_times(50, random.Random(6)))

    def test_uniform_is_evenly_spaced(self):
        times = UniformArrivals(rate=10.0).arrival_times(4, random.Random(0))
        assert times == pytest.approx([0.1, 0.2, 0.3, 0.4])

    def test_ramp_accelerates(self):
        # Mean gap over the first quarter should exceed the last quarter's.
        gaps = RampArrivals(start_rate=5.0, end_rate=500.0).inter_arrivals(
            400, random.Random(1)
        )
        assert sum(gaps[:100]) > sum(gaps[-100:])

    def test_bursty_has_heavier_gap_tail_than_poisson(self):
        rng = random.Random(2)
        gaps = BurstyArrivals(rate=100.0, burst_size=6).inter_arrivals(600, rng)
        gaps_sorted = sorted(gaps)
        # Bursts: most gaps tiny, idle gaps an order of magnitude larger.
        assert gaps_sorted[-1] > 20 * gaps_sorted[len(gaps) // 2]

    def test_unknown_name_is_rejected(self):
        with pytest.raises(KeyError):
            make_arrival("fractal")

    def test_invalid_parameters_are_rejected(self):
        with pytest.raises(ValueError):
            PoissonArrivals(rate=0.0)
        with pytest.raises(ValueError):
            BurstyArrivals(rate=10.0, burst_size=0)


class TestSplitByWeight:
    def test_exact_and_deterministic(self):
        counts = split_by_weight(10, [1.0, 1.0, 1.0])
        assert sum(counts) == 10
        assert counts == split_by_weight(10, [1.0, 1.0, 1.0])

    def test_weights_scale_shares(self):
        assert split_by_weight(90, [2.0, 1.0]) == [60, 30]

    def test_rejects_nonpositive_weight_sum(self):
        with pytest.raises(ValueError):
            split_by_weight(10, [0.0, 0.0])


class TestTrafficModel:
    def _model(self, seed=9):
        return TrafficModel(
            [
                InstanceTraffic("apache", PoissonArrivals(rate=50.0)),
                InstanceTraffic("pine", BurstyArrivals(rate=50.0), weight=2.0),
            ],
            total_requests=90,
            seed=seed,
        )

    def test_timeline_is_seed_deterministic(self):
        a = [(fr.instance, fr.at, fr.seq, fr.request.kind, fr.request.is_attack)
             for fr in self._model().timeline()]
        b = [(fr.instance, fr.at, fr.seq, fr.request.kind, fr.request.is_attack)
             for fr in self._model().timeline()]
        assert a == b
        c = [(fr.instance, fr.at) for fr in self._model(seed=10).timeline()]
        assert c != [(fr.instance, fr.at) for fr in self._model().timeline()]

    def test_timeline_is_ordered_and_complete(self):
        timeline = self._model().timeline()
        assert len(timeline) == 90
        keys = [(fr.at, fr.instance, fr.seq) for fr in timeline]
        assert keys == sorted(keys)
        # Weights apportion 1:2.
        assert sum(1 for fr in timeline if fr.instance == 0) == 30
        assert sum(1 for fr in timeline if fr.instance == 1) == 60

    def test_attacks_mixed_at_the_requested_period(self):
        model = TrafficModel(
            [InstanceTraffic("apache", UniformArrivals(rate=10.0), attack_every=5)],
            total_requests=50, seed=1,
        )
        requests = model.instance_requests(0)
        attack_positions = [i for i, r in enumerate(requests) if r.is_attack]
        assert attack_positions == [5, 10, 15, 20, 25, 30, 35, 40, 45]

    def test_per_instance_streams_ignore_fleet_composition(self):
        """An instance's content depends on its index and seed only — adding
        instances after it cannot change what it receives."""
        small = TrafficModel(
            [InstanceTraffic("apache", UniformArrivals(rate=10.0))],
            total_requests=20, seed=4,
        )
        # Same index-0 count in a bigger fleet (weights arranged so counts match).
        big = TrafficModel(
            [InstanceTraffic("apache", UniformArrivals(rate=10.0)),
             InstanceTraffic("pine", UniformArrivals(rate=10.0))],
            total_requests=40, seed=4,
        )
        kinds_small = [r.kind for r in small.instance_requests(0)]
        kinds_big = [r.kind for r in big.instance_requests(0)]
        assert kinds_small == kinds_big


# ---------------------------------------------------------------------------
# Scheduler
# ---------------------------------------------------------------------------

#: >= 3 profiles x >= 2 policies, kept small enough for the test suite.
FLEET_SPECS = [
    InstanceSpec("apache", "failure-oblivious", count=2),
    InstanceSpec("apache", "bounds-check"),
    InstanceSpec("pine", "failure-oblivious"),
    InstanceSpec("pine", "bounds-check"),
    InstanceSpec("mutt", "failure-oblivious"),
    InstanceSpec("sendmail", "failure-oblivious"),
]
FLEET_KW = dict(total_requests=240, seed=13)


class TestSplitInstances:
    def test_contiguous_and_complete(self):
        instances = expand_instances([InstanceSpec("apache", "standard", count=7)])
        groups = split_contiguous(instances, 3)
        assert [len(g) for g in groups] == [3, 2, 2]
        assert [i.index for g in groups for i in g] == list(range(7))

    def test_more_shards_than_instances(self):
        instances = expand_instances([InstanceSpec("apache", "standard", count=2)])
        assert [len(g) for g in split_contiguous(instances, 9)] == [1, 1]


class TestFleetScheduler:
    def test_pooled_tallies_identical_to_serial(self):
        """Acceptance: identical per-instance tallies serial vs --workers N."""
        serial = run_fleet(FLEET_SPECS, workers=0, **FLEET_KW)
        pooled = run_fleet(FLEET_SPECS, workers=3, **FLEET_KW)
        assert serial.tally() == pooled.tally()
        assert serial.shard_count == pooled.shard_count == 7

    def test_shard_grouping_does_not_change_tallies(self):
        """Shards group whole instances, so any shard count yields the same
        per-instance tallies (instances are independent processes)."""
        by_instance = run_fleet(FLEET_SPECS, workers=0, **FLEET_KW)
        grouped = run_fleet(FLEET_SPECS, workers=2, shards=2, **FLEET_KW)
        assert by_instance.tally() == grouped.tally()
        assert grouped.shard_count == 2

    def test_failure_oblivious_instances_serve_everything(self):
        result = run_fleet(FLEET_SPECS, workers=0, **FLEET_KW)
        for tally in result.instances:
            if tally.policy == "failure-oblivious":
                assert tally.availability == 1.0
                assert tally.server_deaths == 0
                assert tally.dropped == 0

    def test_bounds_check_contrast_matches_the_paper(self):
        result = run_fleet(FLEET_SPECS, workers=0, **FLEET_KW)
        by_label = {(t.index, t.server, t.policy): t for t in result.instances}
        apache_bc = by_label[(2, "apache", "bounds-check")]
        # Apache's checked build dies per attack and is restored per death.
        assert apache_bc.server_deaths == apache_bc.attack_requests > 0
        assert apache_bc.restarts >= apache_bc.server_deaths
        assert apache_bc.availability == 1.0
        # Pine's checked build dies at boot (poisoned mailbox): everything
        # arriving is dropped through the event stream.
        pine_bc = by_label[(4, "pine", "bounds-check")]
        assert result.boot_fatal["pine/bounds-check"]
        assert pine_bc.legitimate_served == 0
        assert pine_bc.dropped == pine_bc.requests
        assert pine_bc.availability == 0.0

    def test_mutt_clones_restore_the_post_setup_state(self):
        """The template re-checkpoints after session setup, so Mutt clones
        (whose startup folder rejection needs a follow-up to recover from)
        serve their whole stream."""
        result = run_fleet(
            [InstanceSpec("mutt", "failure-oblivious", count=2)],
            total_requests=60, seed=3, workers=0,
        )
        for tally in result.instances:
            assert tally.availability == 1.0

    def test_wall_clock_budget_drops_the_tail(self):
        result = run_fleet(
            [InstanceSpec("apache", "failure-oblivious")],
            total_requests=400, seed=2, workers=0, max_seconds=0.0,
        )
        assert result.deadline_hit
        # Everything after the (already expired) deadline is dropped, and the
        # drops still flow through the tallies.
        assert result.dropped == 400
        assert result.legitimate_served == 0

    def test_result_throughput_and_table(self):
        result = run_fleet(FLEET_SPECS, workers=0, **FLEET_KW)
        assert result.requests_per_sec > 0
        table = format_fleet_table(result)
        assert "availability" in table
        assert "apache" in table and "bounds-check" in table

    def test_instance_spec_validation(self):
        with pytest.raises(ValueError):
            InstanceSpec("apache", "standard", count=0)
        with pytest.raises(ValueError):
            InstanceSpec("apache", "standard", weight=0.0)
        with pytest.raises(ValueError):
            run_fleet([], total_requests=10)


class TestHistoryGuard:
    def test_fleet_refuses_unbounded_history(self):
        with pytest.raises(ValueError, match="unbounded"):
            run_fleet(FLEET_SPECS, history_limit=None, **FLEET_KW)

    def test_soak_refuses_unbounded_history(self):
        with pytest.raises(ValueError, match="unbounded"):
            run_stability_experiment(
                "apache", "failure-oblivious", total_requests=20, shards=8,
                history_limit=None,
            )

    def test_explicit_opt_in_is_honored(self):
        result = run_stability_experiment(
            "apache", "failure-oblivious", total_requests=12, shards=2,
            history_limit=None, allow_unbounded_history=True,
        )
        assert result.total_requests == 12

    def test_guard_validates_values(self):
        assert bounded_history_limit(64) == 64
        assert bounded_history_limit(None, allow_unbounded=True) is None
        with pytest.raises(ValueError):
            bounded_history_limit(0)
        with pytest.raises(ValueError):
            bounded_history_limit(-5)

    def test_fleet_history_stays_bounded(self):
        result = run_fleet(
            [InstanceSpec("apache", "failure-oblivious")],
            total_requests=100, seed=1, workers=0, history_limit=8,
        )
        # The tally proves 100 requests ran; the bound proves none of the
        # instances retained more than history_limit results.
        assert result.total_requests == 100


class TestFleetTallySink:
    def test_drop_events_split_by_attack_flag(self):
        sink = FleetTallySink()
        sink.emit(RequestEnd(request_id=1, kind="get", outcome=DROPPED_OUTCOME))
        sink.emit(RequestEnd(request_id=2, kind="get", outcome=DROPPED_OUTCOME,
                             is_attack=True))
        sink.emit(RequestEnd(request_id=3, kind="get", outcome="served"))
        tally = sink.tally(4, "apache", "bounds-check")
        assert (tally.index, tally.server, tally.policy) == (4, "apache", "bounds-check")
        assert (tally.requests, tally.attack_requests) == (3, 1)
        assert tally.dropped == 2
        # Only the legitimate drop is failed service.
        assert tally.legitimate_failed == 1
        assert tally.legitimate_served == 1
        # Drops are neither survivals nor deaths.
        assert tally.attacks_survived == 0
        assert tally.server_deaths == 0

    def test_rollback_takes_back_the_attempt(self):
        """A rolled-back attempt is no request, and a legitimate one's
        failure is cancelled; the death it caused stands."""
        sink = FleetTallySink()
        for is_attack in (False, True):
            sink.emit(RequestEnd(request_id=1, kind="get", outcome="crashed",
                                 is_attack=is_attack))
            sink.emit(RollbackPerformed(snapshot_index=0, request_id=1,
                                        is_attack=is_attack))
        tally = sink.tally(0, "pine", "standard")
        assert (tally.requests, tally.attack_requests) == (0, 0)
        assert tally.legitimate_failed == 0
        assert tally.server_deaths == 2
        assert tally.rollbacks == 2

    def test_tally_returns_an_independent_copy(self):
        sink = FleetTallySink()
        sink.emit(RequestEnd(request_id=1, kind="get", outcome="served",
                             error_sites=(("site", 2),)))
        first = sink.tally(0, "apache", "failure-oblivious")
        first.error_sites["site"] = 99
        first.requests = 99
        sink.emit(RequestEnd(request_id=2, kind="get", outcome="served"))
        second = sink.tally(0, "apache", "failure-oblivious")
        assert second.error_sites == {"site": 2}
        assert second.requests == 2


# ---------------------------------------------------------------------------
# Report-from-export parity
# ---------------------------------------------------------------------------


def _exported_run(tmp_path, **kwargs):
    """Run FLEET_SPECS inside a session; return the live result and the path
    of the merged JSONL export."""
    out = str(tmp_path / "fleet.jsonl")
    with TelemetrySession(str(tmp_path / "spills")) as session:
        result = run_fleet(FLEET_SPECS, **FLEET_KW, **kwargs)
    session.merge(out)
    session.cleanup()
    return result, out


class TestFleetReport:
    def test_report_from_export_equals_live_tallies(self, tmp_path):
        """Acceptance: `fleet report` reproduces the live per-instance counts
        from the session export — including the boot-fatal instance whose
        requests were all dropped."""
        result, out = _exported_run(tmp_path, workers=2)
        reported = fleet_report_from_trace(out)
        assert [stream_fields(t) for t in result.instances] == \
            [stream_fields(t) for t in reported]
        assert [t.index for t in reported] == list(range(len(result.instances)))

    def test_pooled_recovery_export_equals_live_tallies(self, tmp_path):
        """The parity extends to self-healing runs: rollbacks, quarantines,
        snapshots and injected faults all re-derive from the export."""
        result, out = _exported_run(
            tmp_path, workers=2, recovery=RecoveryPolicy(), fault_every=7,
        )
        assert result.boot_fatal["pine/bounds-check"]
        assert result.rollbacks > 0 and result.faults_injected > 0
        reported = fleet_report_from_trace(out)
        assert [stream_fields(t) for t in reported] == \
            [stream_fields(t) for t in result.instances]
        assert [t.index for t in reported] == list(range(len(result.instances)))
        assert ("pine", "bounds-check") in {(t.server, t.policy) for t in reported}

    def test_export_equals_live_across_crashes_and_fatal_boots(
        self, tmp_path, fragile_profile
    ):
        """Every column re-derives from the export: restarts that die at boot
        (toy-fragile after its crash), a boot-fatal clone (pine) and
        restart-per-death (apache)."""
        requests = [Request(kind=kind) for kind in ("ok", "crash", "ok", "ok")]
        specs = [
            InstanceSpec(fragile_profile.name, "standard", requests=requests),
            InstanceSpec("pine", "bounds-check"),
            InstanceSpec("apache", "bounds-check"),
        ]
        out = str(tmp_path / "fleet.jsonl")
        with TelemetrySession(str(tmp_path / "spills")) as session:
            result = run_fleet(specs, total_requests=60, seed=3, workers=2)
        session.merge(out)
        session.cleanup()
        fragile, pine, apache = result.instances
        assert (fragile.server_deaths, fragile.restarts) == (3, 2)
        # The clone's boot, the construction-time restart, one per request.
        assert pine.server_deaths == pine.requests + 2
        assert apache.server_deaths > 0
        reported = fleet_report_from_trace(out)
        for live, exported in zip(result.instances, reported, strict=True):
            assert stream_fields(exported) == stream_fields(live), live.server
            assert exported.index == live.index

    def test_report_table_renders_from_export(self, tmp_path):
        _result, out = _exported_run(tmp_path, workers=0)
        table = format_fleet_table(fleet_report_from_trace(out))
        assert "availability" in table

    def test_export_is_ordered_by_instance(self, tmp_path):
        _result, out = _exported_run(tmp_path, workers=3)
        scenarios = [
            record["scenario"]
            for record in iter_records(out)
            if record.get("scenario") is not None
        ]
        assert scenarios == sorted(scenarios)
        assert set(scenarios) == set(range(7))


# ---------------------------------------------------------------------------
# CLI + experiment registration
# ---------------------------------------------------------------------------


class TestFleetCli:
    def test_parse_instance_spec(self):
        spec = parse_instance_spec("apache:bounds-check:3", 10, "poisson", 50.0)
        assert (spec.server, spec.policy, spec.count) == ("apache", "bounds-check", 3)
        with pytest.raises(ValueError):
            parse_instance_spec("apache", 10, "poisson", 50.0)
        with pytest.raises(ValueError):
            parse_instance_spec("apache:standard:x", 10, "poisson", 50.0)

    @staticmethod
    def _table_rows(output):
        """Every column of every instance row."""
        return [
            line.split() for line in output.splitlines()
            if line.split() and line.split()[0].isdigit()
        ]

    def test_fleet_run_and_report_round_trip(self, tmp_path, capsys):
        trace = str(tmp_path / "cli.jsonl")
        assert cli_main([
            "fleet", "run", "-i", "apache:failure-oblivious:2",
            "-i", "pine:bounds-check", "--requests", "90", "--seed", "5",
            "--workers", "2", "--trace", trace,
        ]) == 0
        run = capsys.readouterr()
        assert "availability" in run.out
        assert f"to {trace}" in run.err
        assert cli_main(["fleet", "report", trace]) == 0
        report_output = capsys.readouterr().out
        assert "from export" in report_output
        # The same per-instance columns in both tables, the boot-fatal pine
        # instance included.
        rows = self._table_rows(run.out)
        assert [row[:3] for row in rows] == [
            ["0", "apache", "failure-oblivious"],
            ["1", "apache", "failure-oblivious"],
            ["2", "pine", "bounds-check"],
        ]
        assert rows == self._table_rows(report_output)

    def test_fleet_table_counts_fatal_boots(self, capsys):
        """A boot-fatal instance's deaths appear in the deaths column and the
        footer: the clone's boot, the construction-time restart, and one
        failed restart per request."""
        assert cli_main([
            "fleet", "run", "-i", "pine:bounds-check", "-i", "apache:bounds-check",
            "--requests", "40", "--seed", "3",
        ]) == 0
        out = capsys.readouterr().out
        rows = {row[1]: row for row in self._table_rows(out)}
        # (requests, dropped, deaths, restarts)
        assert [rows["pine"][i] for i in (3, 6, 8, 9)] == ["20", "20", "22", "21"]
        assert "23 deaths, 22 restarts" in out

    def test_fleet_run_trace_leaves_no_spills(self, tmp_path, monkeypatch, capsys):
        """The export helper cleans up its session's spill directory."""
        import tempfile

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        trace = tmp_path / "out.jsonl"
        assert cli_main([
            "fleet", "run", "-i", "apache:failure-oblivious", "--requests", "10",
            "--trace", str(trace),
        ]) == 0
        assert sorted(os.listdir(tmp_path)) == ["out.jsonl"]

    def test_fleet_report_rejects_traceless_file(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert cli_main(["fleet", "report", str(empty)]) == 1

    def test_bad_instance_spec_exits_with_usage_error(self, capsys):
        assert cli_main(["fleet", "run", "-i", "nonsense"]) == 2

    def test_exp_fleet_is_registered_and_runs(self):
        assert "exp-fleet" in EXPERIMENTS
        output = run_experiment("exp-fleet", total_requests=120, workers=0)
        assert output.experiment_id == "exp-fleet"
        assert "availability" in output.table
        assert output.data.total_requests == 120
