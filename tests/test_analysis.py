"""Tests for the propagation, availability, and security analyses."""

import pytest

from repro.analysis.availability import compare_availability
from repro.analysis.propagation import measure_propagation
from repro.analysis.security import assess_security, summarize_by_policy
from repro.harness.engine import ENGINE
from repro.workloads.streams import mixed_stream


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


class TestAvailability:
    @pytest.fixture(scope="class")
    def report(self):
        return compare_availability(
            "apache", total_requests=40, attack_every=8, scale=0.1
        )

    def test_failure_oblivious_has_best_availability(self, report):
        assert report.best_policy() == "failure-oblivious"
        assert report.service_rate("failure-oblivious") == 1.0
        assert report.results["failure-oblivious"].server_deaths == 0
        # Apache's regenerating child pool keeps the other builds serving too,
        # but only at the cost of repeated process deaths (§4.3.2, §4.7).
        assert report.results["standard"].server_deaths > 0

    def test_improvement_ratios(self, report):
        assert report.improvement_over("standard") >= 1.0
        assert report.improvement_over("bounds-check") >= 1.0

    def test_summary_rows_one_per_policy(self, report):
        assert len(report.summary_rows()) == 3

    def test_pine_restart_does_not_help(self):
        """Restarting Pine re-reads the poisoned mailbox and dies again (§4.7)."""
        report = compare_availability("pine", policies=("standard", "failure-oblivious"),
                                      total_requests=20, attack_every=5, scale=0.1)
        assert report.service_rate("standard") == 0.0
        assert report.service_rate("failure-oblivious") == 1.0
        assert report.improvement_over("standard") == float("inf")


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
        summary = summarize_by_policy(assessments)
        assert summary["failure-oblivious"]["invulnerable"] == 5
        assert summary["failure-oblivious"]["continued_service"] == 5
        assert summary["standard"]["denial_of_service"] == 5

    def test_assess_security_can_run_its_own_matrix(self):
        assessments = assess_security(servers=["apache"], policies=("failure-oblivious",), scale=0.1)
        assert len(assessments) == 1
