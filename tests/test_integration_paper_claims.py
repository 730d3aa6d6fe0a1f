"""End-to-end tests asserting the paper's headline claims hold in this reproduction.

Each test corresponds to a sentence-level claim from the paper, so the test
names double as a checklist of what the reproduction demonstrates.
"""

import pytest

from repro.analysis.security import assess_security
from repro.core.policies import POLICY_NAMES
from repro.harness.runner import (
    run_attack_scenario,
    run_performance_figure,
    run_security_matrix,
)
from repro.harness.stability import run_stability_experiment
from repro.harness.throughput import run_throughput_experiment, throughput_ratio
from repro.servers import SERVER_CLASSES


ALL_SERVERS = sorted(SERVER_CLASSES)


class TestHeadlineSecurityClaims:
    """§1: failure-oblivious computing makes the servers invulnerable to the
    known attacks and lets them keep serving legitimate requests."""

    @pytest.fixture(scope="class")
    def assessments(self):
        return assess_security(cells=run_security_matrix(scale=0.1))

    def test_all_five_servers_are_reproduced(self):
        assert len(ALL_SERVERS) == 5

    def test_failure_oblivious_eliminates_every_vulnerability(self, assessments):
        fo = [a for a in assessments if a.policy == "failure-oblivious"]
        assert all(a.invulnerable for a in fo)

    def test_failure_oblivious_continues_to_serve_every_server(self, assessments):
        fo = [a for a in assessments if a.policy == "failure-oblivious"]
        assert all(a.continued_service for a in fo)

    def test_standard_builds_fail_on_every_server(self, assessments):
        std = [a for a in assessments if a.policy == "standard"]
        assert all(a.denial_of_service or a.code_execution for a in std)

    def test_bounds_check_builds_deny_service_on_every_server(self, assessments):
        bc = [a for a in assessments if a.policy == "bounds-check"]
        assert all(a.denial_of_service for a in bc)
        assert all(not a.continued_service for a in bc)


class TestPerformanceClaims:
    """§4: checking overhead exists but the servers stay usable, and the
    I/O-dominated Apache requests see only a few percent of overhead."""

    def test_apache_overhead_is_small(self):
        rows = run_performance_figure("apache", repetitions=8, scale=0.5)
        for row in rows:
            assert row.slowdown < 1.6

    def test_interactive_servers_stay_interactive(self):
        rows = run_performance_figure("mutt", repetitions=6, scale=0.25)
        for row in rows:
            # The paper's perceptibility threshold is 100 ms.
            assert row.failure_oblivious.mean_ms < 100

    def test_failure_oblivious_is_slower_but_not_catastrophic(self):
        # Large bodies give the most stable timings; small-request ratios are
        # noisy at the tens-of-microseconds level when the whole suite runs.
        rows = run_performance_figure("sendmail", repetitions=8, scale=0.25,
                                      kinds=["recv_large", "send_large"])
        for row in rows:
            assert 0.9 < row.slowdown < 12  # the paper's observed range is ~1x-8x


class TestAvailabilityClaims:
    """§4.3.2 and §4.x.4: throughput under attack and long-run stability."""

    def test_apache_throughput_ordering_matches_paper(self):
        results = run_throughput_experiment(attack_fraction=0.5, total_requests=80, pool_size=2)
        fo_over_bc = throughput_ratio(results, "failure-oblivious", "bounds-check")
        fo_over_std = throughput_ratio(results, "failure-oblivious", "standard")
        assert fo_over_bc > 1.5
        assert fo_over_std > 1.5

    @pytest.mark.parametrize("server_name", ALL_SERVERS)
    def test_failure_oblivious_stability_is_flawless(self, server_name):
        result = run_stability_experiment(
            server_name, "failure-oblivious", total_requests=40, attack_every=8, scale=0.1
        ).instances[0]
        assert result.flawless
        assert result.attacks_survived == result.attack_requests

    @pytest.mark.parametrize("server_name", ["pine", "mutt"])
    def test_restarting_does_not_recover_persistent_triggers(self, server_name):
        """§4.7: when the trigger persists in the environment, restart-based
        recovery just dies again during initialization."""
        result = run_stability_experiment(
            server_name, "bounds-check", total_requests=20, attack_every=5,
            restart_on_death=True, scale=0.1,
        ).instances[0]
        assert result.legitimate_served == 0


class TestVariantClaims:
    """§5.1: the servers also work with the boundless and redirect variants."""

    @pytest.mark.parametrize("policy_name", ["boundless", "redirect"])
    @pytest.mark.parametrize("server_name", ALL_SERVERS)
    def test_variants_also_keep_all_servers_serving(self, server_name, policy_name):
        scenario = run_attack_scenario(server_name, policy_name, scale=0.1)
        assert scenario.survived_attack
        assert scenario.continued_service

    def test_registry_exposes_exactly_the_evaluated_builds(self):
        assert set(POLICY_NAMES) == {
            "standard", "bounds-check", "failure-oblivious", "boundless", "redirect"
        }
