"""Tests for the timing harness."""

import pytest

from repro.core.policies import FailureObliviousPolicy, StandardPolicy
from repro.errors import RequestOutcome
from repro.harness.timing import WARMUP, TimingResult, measure_paired, slowdown
from repro.servers.apache import ApacheServer
from repro.servers.base import Request


def apache(policy_cls=FailureObliviousPolicy):
    server = ApacheServer(policy_cls)
    server.start()
    return server


def home_page(_index: int) -> Request:
    return Request(kind="get", payload={"url": "/index.html"})


class TestTimingResult:
    def test_mean_and_stdev(self):
        result = TimingResult(label="x", samples_seconds=[0.001, 0.002, 0.003])
        assert result.mean_seconds == pytest.approx(0.002)
        assert result.mean_ms == pytest.approx(2.0)
        assert result.stdev_seconds > 0
        assert result.repetitions == 3

    def test_single_sample_has_zero_stdev(self):
        result = TimingResult(label="x", samples_seconds=[0.001])
        assert result.stdev_seconds == 0.0

    def test_empty_result_is_nan(self):
        result = TimingResult(label="x")
        assert result.mean_seconds != result.mean_seconds

    def test_describe_contains_label_and_unit(self):
        result = TimingResult(label="read", samples_seconds=[0.001])
        assert "read" in result.describe() and "ms" in result.describe()

    def test_all_served_flag(self):
        result = TimingResult(label="x", samples_seconds=[0.001],
                              outcomes=[RequestOutcome.SERVED])
        assert result.all_served


class TestMeasurement:
    def test_measure_collects_requested_repetitions(self):
        result = measure_paired({"fo": apache()}, home_page, repetitions=5, label="small")["fo"]
        assert result.repetitions == 5
        assert result.all_served
        assert result.mean_seconds > 0

    def test_reset_hook_called_every_repetition(self):
        calls = []
        measure_paired(
            {"fo": apache()}, home_page, repetitions=3,
            reset=lambda server, index: calls.append(index),
        )
        assert calls == list(range(WARMUP + 3))

    def test_zero_repetitions_rejected(self):
        with pytest.raises(ValueError):
            measure_paired({"fo": apache()}, home_page, repetitions=0)

    def test_dead_server_is_skipped(self):
        server = apache()
        server.alive = False
        result = measure_paired({"fo": server}, home_page, repetitions=5)["fo"]
        assert result.repetitions == 0

    def test_measure_paired_interleaves_builds(self):
        servers = {"standard": apache(StandardPolicy), "failure-oblivious": apache()}
        results = measure_paired(servers, home_page, repetitions=4, label="small")
        assert set(results) == {"standard", "failure-oblivious"}
        assert all(r.repetitions == 4 for r in results.values())


class TestDerivedMetrics:
    def test_slowdown_ratio(self):
        base = TimingResult(label="b", samples_seconds=[0.001] * 3)
        other = TimingResult(label="o", samples_seconds=[0.003] * 3)
        assert slowdown(base, other) == pytest.approx(3.0)

    def test_slowdown_with_missing_data_is_nan(self):
        assert slowdown(TimingResult("a"), TimingResult("b")) != slowdown(
            TimingResult("a"), TimingResult("b")
        )
