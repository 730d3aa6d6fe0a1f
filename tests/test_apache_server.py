"""Tests for the Apache reimplementation and child pool (paper §4.3)."""

import gc
import weakref

import pytest

from repro.core.policies import BoundsCheckPolicy, FailureObliviousPolicy, StandardPolicy
from repro.errors import RequestOutcome, SegmentationFault
from repro.memory.address_space import HEAP_BASE
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


#: Attacks driven through the pool's reaping twins.
REAP_ATTACKS = 6


@pytest.fixture
def no_cycle_collection():
    """Run with the cycle collector off, so only reference counts free."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _track(pool, seen, segments):
    """Remember every child the pool has forked and a weak reference to
    each of its segments."""
    for child in pool.children:
        if not any(child is known for known in seen):
            seen.append(child)
            segments.extend(weakref.ref(segment)
                            for segment in child.ctx.space.segments())


def _live(refs):
    return sum(ref() is not None for ref in refs)


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

    @pytest.mark.usefixtures("no_cycle_collection")
    def test_dead_child_is_reaped_before_its_replacement_forks(self):
        """Counted twin of the reap: with the cycle collector off, a dead
        child's segments are freed before its replacement forks, so the live
        segments stay at ``pool_size x 3`` however many children died."""
        pool = ChildProcessPool(
            BoundsCheckPolicy, pool_size=2, config=apache_vulnerable_config()
        )
        seen, segments = [], []
        _track(pool, seen, segments)
        dead_heaps = []
        fork = pool._fork_child
        reaped_at_fork = []

        def fork_after_reap():
            reaped_at_fork.append(dead_heaps[-1]() is None)
            return fork()

        pool._fork_child = fork_after_reap
        benign = Request(kind="get", payload={"url": "/index.html"})
        try:
            for attack in range(REAP_ATTACKS):
                slot = pool._next_child
                victim = pool.children[slot]
                dead_heaps.append(weakref.ref(victim.ctx.space.heap))
                assert pool.dispatch(apache_attack_request()).fatal
                # Replacement is lazy: the other slot serves first.
                assert pool.dispatch(benign).outcome is RequestOutcome.SERVED
                assert dead_heaps[-1]() is not None
                result = pool.dispatch(benign)
                assert result.outcome is RequestOutcome.SERVED
                assert pool.children[slot] is not victim
                assert dead_heaps[-1]() is None
                _track(pool, seen, segments)
                assert _live(segments) == pool.pool_size * 3
                # The dead child's log stays readable; its memory does not.
                assert victim.memory_error_count() >= 1
                with pytest.raises(SegmentationFault):
                    victim.ctx.space.read(HEAP_BASE, 1)
            assert reaped_at_fork == [True] * REAP_ATTACKS
            assert pool.child_deaths == REAP_ATTACKS
            assert len(seen) == pool.pool_size + REAP_ATTACKS
        finally:
            pool.close()

    @pytest.mark.usefixtures("no_cycle_collection")
    def test_failure_oblivious_pool_reaps_nothing(self):
        pool = ChildProcessPool(
            FailureObliviousPolicy, pool_size=2, config=apache_vulnerable_config()
        )
        seen, segments = [], []
        _track(pool, seen, segments)
        try:
            for _ in range(REAP_ATTACKS):
                assert not pool.dispatch(apache_attack_request()).fatal
                _track(pool, seen, segments)
            assert seen == pool.children
            assert _live(segments) == len(segments) == pool.pool_size * 3
            assert all(child.ctx.space.segments() for child in seen)
        finally:
            pool.close()
