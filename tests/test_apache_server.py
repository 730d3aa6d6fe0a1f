"""Tests for the Apache reimplementation and child pool (paper §4.3)."""

from repro.core.policies import BoundsCheckPolicy, FailureObliviousPolicy, StandardPolicy
from repro.errors import RequestOutcome
from repro.servers.apache import (
    ApacheServer,
    ChildProcessPool,
    RewriteRule,
    VULNERABLE_RULE,
)
from repro.servers.base import DEFAULT_HISTORY_LIMIT, Request
from repro.workloads.attacks import apache_attack_request, apache_vulnerable_config


def make_apache(policy_cls, vulnerable=False):
    config = apache_vulnerable_config() if vulnerable else {}
    server = ApacheServer(policy_cls, config=config)
    server.start()
    return server


class TestBenignServing:
    def test_serves_home_page(self):
        server = make_apache(FailureObliviousPolicy)
        result = server.process(Request(kind="get", payload={"url": "/index.html"}))
        assert result.outcome is RequestOutcome.SERVED
        assert b"research project" in result.response.body

    def test_serves_large_file_completely(self):
        server = make_apache(FailureObliviousPolicy)
        result = server.process(Request(kind="get", payload={"url": "/download/big.dat"}))
        assert result.outcome is RequestOutcome.SERVED
        assert len(result.response.body) == 830 * 1024

    def test_missing_file_is_404(self):
        server = make_apache(FailureObliviousPolicy)
        result = server.process(Request(kind="get", payload={"url": "/missing"}))
        assert result.outcome is RequestOutcome.REJECTED_BY_ERROR_HANDLING
        assert "404" in result.response.detail

    def test_rewrite_rule_redirects(self):
        server = make_apache(FailureObliviousPolicy)
        result = server.process(Request(kind="get", payload={"url": "/old/readme.txt"}))
        assert result.outcome is RequestOutcome.SERVED
        assert b"failure-oblivious" in result.response.body

    def test_project_rule_maps_to_home_page(self):
        server = make_apache(FailureObliviousPolicy)
        result = server.process(Request(kind="get", payload={"url": "/project"}))
        assert result.outcome is RequestOutcome.SERVED

    def test_rule_capture_count(self):
        assert RewriteRule(pattern=r"^/a/(.*)$", replacement="/b/$1").capture_count() == 2
        assert VULNERABLE_RULE.capture_count() > 10

    def test_benign_urls_fine_even_with_vulnerable_rule(self):
        for policy_cls in (StandardPolicy, BoundsCheckPolicy, FailureObliviousPolicy):
            server = make_apache(policy_cls, vulnerable=True)
            result = server.process(Request(kind="get", payload={"url": "/index.html"}))
            assert result.outcome is RequestOutcome.SERVED, policy_cls.__name__


class TestAttackBehaviour:
    """The >10-capture rewrite overflow (§4.3.2)."""

    def test_standard_child_crashes(self):
        server = make_apache(StandardPolicy, vulnerable=True)
        result = server.process(apache_attack_request())
        assert result.outcome is RequestOutcome.CRASHED

    def test_bounds_check_child_terminates(self):
        server = make_apache(BoundsCheckPolicy, vulnerable=True)
        result = server.process(apache_attack_request())
        assert result.outcome is RequestOutcome.TERMINATED_BY_CHECK

    def test_failure_oblivious_continues_and_serves_subsequent_requests(self):
        server = make_apache(FailureObliviousPolicy, vulnerable=True)
        attack = server.process(apache_attack_request())
        assert attack.outcome in (
            RequestOutcome.SERVED,
            RequestOutcome.REJECTED_BY_ERROR_HANDLING,
        )
        follow_up = server.process(Request(kind="get", payload={"url": "/index.html"}))
        assert follow_up.outcome is RequestOutcome.SERVED

    def test_failure_oblivious_discards_only_extra_captures(self):
        server = make_apache(FailureObliviousPolicy, vulnerable=True)
        server.process(apache_attack_request())
        events = server.ctx.error_log.events()
        assert events, "the attack must attempt out-of-bounds writes"
        assert all("apache.rewrite_captures" == event.site for event in events)

    def test_attack_is_repeatable_against_failure_oblivious(self):
        server = make_apache(FailureObliviousPolicy, vulnerable=True)
        for _ in range(5):
            result = server.process(apache_attack_request())
            assert not result.fatal
        assert server.alive


class TestChildProcessPool:
    def test_pool_starts_children(self):
        pool = ChildProcessPool(FailureObliviousPolicy, pool_size=3)
        assert pool.alive_children() == 3

    def test_pool_serves_legitimate_requests(self):
        pool = ChildProcessPool(FailureObliviousPolicy, pool_size=2)
        result = pool.dispatch(Request(kind="get", payload={"url": "/index.html"}))
        assert result.outcome is RequestOutcome.SERVED

    def test_bounds_check_children_die_and_are_replaced(self):
        pool = ChildProcessPool(
            BoundsCheckPolicy, pool_size=2, config=apache_vulnerable_config()
        )
        pool.dispatch(apache_attack_request())
        assert pool.child_deaths == 1
        # The dead slot is replaced lazily when it is next scheduled.
        for _ in range(4):
            result = pool.dispatch(Request(kind="get", payload={"url": "/index.html"}))
            assert result.outcome is RequestOutcome.SERVED
        assert pool.restart_seconds > 0

    def test_failure_oblivious_children_never_die(self):
        pool = ChildProcessPool(
            FailureObliviousPolicy, pool_size=2, config=apache_vulnerable_config()
        )
        for _ in range(6):
            pool.dispatch(apache_attack_request())
        assert pool.child_deaths == 0
        assert pool.restart_seconds == 0

    def test_children_keep_a_bounded_history(self):
        """A long-serving child keeps only its newest results, like a fleet
        instance, and so does a replacement child."""
        pool = ChildProcessPool(
            BoundsCheckPolicy, pool_size=1, config=apache_vulnerable_config()
        )
        try:
            requests = [Request(kind="get", payload={"url": "/index.html"})
                        for _ in range(DEFAULT_HISTORY_LIMIT + 20)]
            results = [pool.dispatch(request) for request in requests]
            assert list(pool.children[0].history) == results[-DEFAULT_HISTORY_LIMIT:]
            pool.dispatch(apache_attack_request())
            pool.dispatch(requests[0])
            assert pool.children[0].history.maxlen == DEFAULT_HISTORY_LIMIT
        finally:
            pool.close()

    def test_pool_error_accounting(self):
        pool = ChildProcessPool(
            FailureObliviousPolicy, pool_size=1, config=apache_vulnerable_config()
        )
        pool.dispatch(apache_attack_request())
        assert pool.total_memory_errors() > 0
