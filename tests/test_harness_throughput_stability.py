"""Tests for the throughput-under-attack and stability experiments."""

import pytest

from repro.fleet.scheduler import InstanceSpec, run_fleet
from repro.harness.stability import run_stability_experiment
from repro.harness.throughput import run_throughput_experiment, throughput_ratio
from repro.servers.base import Request
from repro.workloads.streams import mixed_stream


class TestThroughput:
    @pytest.fixture(scope="class")
    def results(self):
        return run_throughput_experiment(
            attack_fraction=0.5, total_requests=80, pool_size=2
        )

    def test_all_builds_measured(self, results):
        assert set(results) == {"standard", "bounds-check", "failure-oblivious"}

    def test_failure_oblivious_children_never_die(self, results):
        assert results["failure-oblivious"].child_deaths == 0

    def test_crashing_builds_lose_children(self, results):
        assert results["standard"].child_deaths > 0
        assert results["bounds-check"].child_deaths > 0

    def test_failure_oblivious_serves_every_legitimate_request(self, results):
        fo = results["failure-oblivious"]
        assert fo.legitimate_served == fo.legitimate_requests

    def test_failure_oblivious_throughput_is_highest(self, results):
        """The paper's §4.3.2 ordering: FO well above Bounds Check and Standard."""
        assert throughput_ratio(results, "failure-oblivious", "bounds-check") > 2.0
        assert throughput_ratio(results, "failure-oblivious", "standard") > 2.0

    def test_restart_time_only_charged_to_crashing_builds(self, results):
        assert results["failure-oblivious"].restart_seconds == 0
        assert results["bounds-check"].restart_seconds > 0

    def test_throughput_values_are_positive(self, results):
        assert all(result.throughput_rps > 0 for result in results.values())

    def test_unknown_policy_rejected(self):
        with pytest.raises(KeyError):
            run_throughput_experiment(policies=("asan",), total_requests=10)


class TestStability:
    def test_failure_oblivious_apache_is_flawless(self):
        result = run_stability_experiment(
            "apache", "failure-oblivious", total_requests=60, attack_every=10, scale=0.1
        ).instances[0]
        assert result.flawless
        assert result.attacks_survived == result.attack_requests
        assert result.server_deaths + result.boot_deaths == 0

    def test_failure_oblivious_sendmail_logs_wakeup_errors(self):
        result = run_stability_experiment(
            "sendmail", "failure-oblivious", total_requests=40, attack_every=8, scale=0.1
        ).instances[0]
        assert result.flawless
        assert "sendmail.daemon_wakeup" in result.error_sites

    def test_standard_apache_needs_restarts(self):
        result = run_stability_experiment(
            "apache", "standard", total_requests=60, attack_every=10, scale=0.1
        ).instances[0]
        assert result.server_deaths + result.boot_deaths > 0
        assert result.restarts > 0

    def test_bounds_check_pine_cannot_start(self):
        result = run_stability_experiment(
            "pine", "bounds-check", total_requests=30, attack_every=10, scale=0.1
        ).instances[0]
        assert result.legitimate_served == 0
        assert not result.flawless

    def test_restart_disabled(self):
        result = run_stability_experiment(
            "apache", "standard", total_requests=40, attack_every=10,
            restart_on_death=False, scale=0.1,
        ).instances[0]
        assert result.restarts == 0
        assert result.legitimate_failed > 0

    def test_custom_stream_is_respected(self):
        stream = mixed_stream("apache", total_requests=25, attack_every=5)
        result = run_fleet(
            [InstanceSpec("apache", "failure-oblivious", requests=stream.requests)],
            scale=0.1,
        ).instances[0]
        assert result.requests == 25
        assert result.attack_requests == stream.attack_count

    def test_service_rate_bounds(self):
        result = run_stability_experiment(
            "mutt", "failure-oblivious", total_requests=30, attack_every=6, scale=0.1
        ).instances[0]
        assert 0.0 <= result.availability <= 1.0


def run_fragile(kinds):
    """Serve ``kinds`` on one toy-fragile instance (which boots itself and
    reboots from scratch: its class has ``checkpoint_restarts`` False)."""
    requests = [Request(kind=kind) for kind in kinds]
    return run_fleet(
        [InstanceSpec("toy-fragile", "standard", requests=requests)]
    ).instances[0]


class TestRestartDeathAccounting:
    """Regression: a restart that dies at boot is a server death on BOTH paths.

    The boot-time path always counted it; the in-loop path (the monitor's
    per-request restart) once silently dropped it, understating deaths for
    every persistent-trigger scenario.
    """

    def test_failed_in_loop_restarts_count_as_deaths(self, fragile_profile):
        result = run_fragile(["ok", "crash", "ok", "ok"])
        # One death from the crashing request, plus one per failed restart
        # attempt (the monitor retries before each remaining request).
        assert result.restarts == 2
        assert result.server_deaths + result.boot_deaths == 3
        assert result.legitimate_served == 1
        # The crashing request plus the two requests arriving while down.
        assert result.legitimate_failed == 3

    def test_successful_restarts_still_count_no_extra_deaths(self, fragile_profile):
        result = run_fragile(["ok", "ok"])
        assert result.server_deaths + result.boot_deaths == 0
        assert result.restarts == 0
