"""Tests for the propagation, availability, and security analyses."""

from collections import Counter

import pytest

from repro.analysis.propagation import TraceRecorder, measure_propagation
from repro.analysis.security import assess_security
from repro.errors import AccessKind, ErrorKind, MemoryErrorEvent
from repro.harness.engine import ENGINE
from repro.harness.stability import run_stability_experiment
from repro.servers import SERVER_CLASSES
from repro.telemetry.events import InvalidAccess
from repro.workloads.streams import mixed_stream


class TestTraceRecorder:
    def test_run_record_counts_as_its_expanded_singles(self):
        """A strided run and the single events it stands for tally alike."""
        error = MemoryErrorEvent(ErrorKind.OUT_OF_BOUNDS, AccessKind.WRITE, "regmatch#1",
                                 80, 80, 4, "apache.rewrite_captures", 7)
        run = InvalidAccess(error=error, count=10, stride=4)
        batched, singles = TraceRecorder(), TraceRecorder()
        batched.emit(run)
        for single in run.expand():
            singles.emit(InvalidAccess(error=single))
        assert batched.invalid_by_request == singles.invalid_by_request == Counter({7: 10})


class TestPropagation:
    def test_failure_oblivious_apache_has_short_propagation(self):
        stream = list(mixed_stream("apache", total_requests=24, attack_every=6))
        report = measure_propagation("apache", "failure-oblivious", stream, scale=0.1)
        assert report.error_requests > 0
        assert report.short_propagation
        assert report.max_control_distance == 0
        assert report.max_data_distance == 0

    def test_failure_oblivious_sendmail_has_short_propagation(self):
        stream = list(mixed_stream("sendmail", total_requests=24, attack_every=6))
        report = measure_propagation("sendmail", "failure-oblivious", stream, scale=0.1)
        assert report.error_requests > 0
        assert report.short_propagation

    def test_standard_apache_has_infinite_control_distance(self):
        stream = list(mixed_stream("apache", total_requests=24, attack_every=6))
        report = measure_propagation("apache", "standard", stream, scale=0.1)
        assert report.error_requests == 0 or report.max_control_distance == float("inf") \
            or report.max_control_distance == 0
        # The Standard build dies at the attack, so either it never logged an
        # error (unchecked builds do not log) or the run ended there.

    def test_report_defaults(self):
        stream = list(mixed_stream("mutt", total_requests=12, attack_every=0))
        report = measure_propagation("mutt", "failure-oblivious", stream, scale=0.1)
        assert report.max_control_distance == 0.0
        assert report.max_data_distance == 0.0


#: The builds the paper's availability argument compares (§1.4, §5.6).
AVAILABILITY_BUILDS = ("standard", "bounds-check", "failure-oblivious")


def stability_tally(server, policy):
    """One small stability run's tally: 40 requests, every 8th an attack."""
    return run_stability_experiment(
        server, policy, total_requests=40, attack_every=8, scale=0.1
    ).instances[0]


class TestAvailability:
    """Continued execution against crashing and terminate-and-restart.

    Restart costs process deaths, and a server whose error trigger persists
    in its environment (Pine's mailbox, Mutt's folder) re-encounters it on
    every restart; the failure-oblivious build keeps serving instead.
    """

    @pytest.fixture(scope="class")
    def tallies(self):
        return {policy: stability_tally("apache", policy) for policy in AVAILABILITY_BUILDS}

    def test_failure_oblivious_has_best_availability(self, tallies):
        fo = tallies["failure-oblivious"]
        assert fo.availability == 1.0
        assert fo.server_deaths == 0
        # Apache's regenerating child pool keeps the other builds serving too,
        # but only at the cost of repeated process deaths (§4.3.2, §4.7).
        assert tallies["standard"].server_deaths > 0
        assert all(
            (fo.availability, -fo.server_deaths) >= (t.availability, -t.server_deaths)
            for t in tallies.values()
        )

    def test_improvement_ratios(self, tallies):
        fo = tallies["failure-oblivious"].availability
        assert fo >= tallies["standard"].availability
        assert fo >= tallies["bounds-check"].availability

    def test_summary_rows_one_per_policy(self, tallies):
        assert sorted(tallies) == sorted(AVAILABILITY_BUILDS)
        assert {t.requests for t in tallies.values()} == {40}
        assert len({t.attack_requests for t in tallies.values()}) == 1

    def test_pine_restart_does_not_help(self):
        """Restarting Pine re-reads the poisoned mailbox and dies again (§4.7)."""
        standard = stability_tally("pine", "standard")
        assert standard.availability == 0.0
        assert standard.restarts > 0
        assert stability_tally("pine", "failure-oblivious").availability == 1.0

    @pytest.mark.parametrize("server", sorted(SERVER_CLASSES))
    def test_failure_oblivious_serves_through_every_attack(self, server):
        fo = stability_tally(server, "failure-oblivious")
        assert fo.availability == 1.0
        assert fo.server_deaths == 0 and fo.restarts == 0
        assert fo.attacks_survived == fo.attack_requests > 0
        assert fo.memory_errors_logged > 0

    @pytest.mark.parametrize("server", sorted(SERVER_CLASSES))
    def test_standard_build_dies_at_least_once_per_attack(self, server):
        """Each attack kills the Standard build; a persistent trigger kills
        every restart as well."""
        standard = stability_tally(server, "standard")
        assert standard.attack_requests > 0
        assert standard.server_deaths >= standard.attack_requests
        assert standard.restarts > 0


class TestSecurityAssessment:
    @pytest.fixture(scope="class")
    def assessments(self):
        cells = ENGINE.run_security_matrix(scale=0.1)
        return assess_security(cells=cells)

    def test_failure_oblivious_is_always_invulnerable(self, assessments):
        fo = [a for a in assessments if a.policy == "failure-oblivious"]
        assert len(fo) == 5
        assert all(a.invulnerable and a.continued_service for a in fo)

    def test_standard_is_never_invulnerable(self, assessments):
        std = [a for a in assessments if a.policy == "standard"]
        assert all(not a.invulnerable for a in std)

    def test_bounds_check_denies_service(self, assessments):
        bc = [a for a in assessments if a.policy == "bounds-check"]
        assert all(a.denial_of_service for a in bc)
        assert all(not a.code_execution for a in bc)

    def test_verdict_labels(self, assessments):
        labels = {a.verdict() for a in assessments}
        assert "invulnerable, keeps serving" in labels
        assert "denial of service" in labels

    def test_summary_by_policy(self, assessments):
        def count(policy, flag):
            return sum(getattr(a, flag) for a in assessments if a.policy == policy)

        assert count("failure-oblivious", "invulnerable") == 5
        assert count("failure-oblivious", "continued_service") == 5
        assert count("standard", "denial_of_service") == 5

    def test_assess_security_can_run_its_own_matrix(self):
        assessments = assess_security(servers=["apache"], policies=("failure-oblivious",), scale=0.1)
        assert len(assessments) == 1
