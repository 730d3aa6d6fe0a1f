"""Tests for the shared server lifecycle (boot, process, classify, restart)."""

import pytest

from repro.core.policies import (
    BoundlessPolicy,
    BoundsCheckPolicy,
    FailureObliviousPolicy,
    RedirectPolicy,
    StandardPolicy,
)
from repro.errors import RequestOutcome
from repro.servers.base import Request, Response, Server, ServerError
from repro.telemetry.events import RequestEnd
from repro.telemetry.sinks import ListSink

#: Out-of-bounds reads one ``flood`` request makes: more than the error
#: log's ring retains (10 000 records).
FLOOD_READS = 12_000


class EchoServer(Server):
    """A minimal concrete server used to exercise the base class."""

    name = "echo"

    def startup(self) -> None:
        self.booted = True
        if self.config.get("fail_boot"):
            buf = self.ctx.malloc(4, name="boot_buf")
            self.ctx.mem.write(buf + 4, b"overflow!")

    def handle(self, request: Request) -> Response:
        if request.kind == "echo":
            return Response.ok(body=bytes(request.payload.get("data", b"")))
        if request.kind == "reject":
            raise ServerError("anticipated error")
        if request.kind == "overflow":
            buf = self.ctx.malloc(4, name="req_buf")
            self.ctx.mem.write(buf, b"X" * 64)
            return Response.ok()
        if request.kind == "flood":
            buf = self.ctx.malloc(8, name="flood_buf")
            for offset in range(8, 8 + FLOOD_READS):
                self.ctx.mem.read_byte(buf + offset)
            return Response.ok()
        raise ServerError(f"unknown kind {request.kind}")


class TestLifecycle:
    def test_start_then_process(self):
        server = EchoServer(FailureObliviousPolicy)
        boot = server.start()
        assert boot.outcome is RequestOutcome.SERVED
        result = server.process(Request(kind="echo", payload={"data": b"hi"}))
        assert result.outcome is RequestOutcome.SERVED
        assert result.response.body == b"hi"

    def test_anticipated_error_keeps_server_alive(self):
        server = EchoServer(FailureObliviousPolicy)
        server.start()
        result = server.process(Request(kind="reject"))
        assert result.outcome is RequestOutcome.REJECTED_BY_ERROR_HANDLING
        assert server.alive
        assert result.acceptable

    def test_unknown_kind_is_rejected_not_fatal(self):
        server = EchoServer(FailureObliviousPolicy)
        server.start()
        result = server.process(Request(kind="bogus"))
        assert result.outcome is RequestOutcome.REJECTED_BY_ERROR_HANDLING

    def test_boot_failure_under_bounds_check(self):
        server = EchoServer(BoundsCheckPolicy, config={"fail_boot": True})
        boot = server.start()
        assert boot.outcome is RequestOutcome.TERMINATED_BY_CHECK
        assert not server.alive
        assert not server.started

    def test_boot_survives_under_failure_oblivious(self):
        server = EchoServer(FailureObliviousPolicy, config={"fail_boot": True})
        boot = server.start()
        assert boot.outcome is RequestOutcome.SERVED
        assert server.alive

    def test_overflow_request_classification_per_policy(self):
        fo = EchoServer(FailureObliviousPolicy)
        fo.start()
        assert fo.process(Request(kind="overflow")).outcome is RequestOutcome.SERVED

        bc = EchoServer(BoundsCheckPolicy)
        bc.start()
        assert bc.process(Request(kind="overflow")).outcome is RequestOutcome.TERMINATED_BY_CHECK

        std = EchoServer(StandardPolicy)
        std.start()
        assert std.process(Request(kind="overflow")).outcome is RequestOutcome.CRASHED

    def test_dead_server_refuses_requests(self):
        server = EchoServer(BoundsCheckPolicy)
        server.start()
        server.process(Request(kind="overflow"))
        result = server.process(Request(kind="echo"))
        assert result.outcome is RequestOutcome.CRASHED
        assert result.fatal

    def test_restart_revives_server(self):
        server = EchoServer(BoundsCheckPolicy)
        server.start()
        server.process(Request(kind="overflow"))
        assert not server.alive
        boot = server.restart()
        assert server.alive
        assert boot.outcome is RequestOutcome.SERVED
        assert server.restarts == 1

    def test_restart_resets_error_log(self):
        server = EchoServer(FailureObliviousPolicy, config={"fail_boot": True})
        server.start()
        assert server.memory_error_count() > 0
        server.restart()
        # fresh policy, fresh log; only the new boot's errors remain
        assert server.memory_error_count() == server.ctx.error_log.total_recorded

    def test_history_and_counters(self):
        server = EchoServer(FailureObliviousPolicy)
        server.start()
        server.process(Request(kind="echo"))
        server.process(Request(kind="reject"))
        assert server.requests_processed == 2
        assert len(server.history) == 2

    def test_memory_errors_attached_to_result(self):
        server = EchoServer(FailureObliviousPolicy)
        server.start()
        result = server.process(Request(kind="overflow"))
        assert len(result.memory_errors) == 1

    @pytest.mark.parametrize(
        "policy_cls", [FailureObliviousPolicy, BoundlessPolicy, RedirectPolicy]
    )
    def test_request_error_count_exceeds_ring_capacity(self, policy_cls):
        server = EchoServer(policy_cls)
        server.start()
        sink = server.add_telemetry_sink(ListSink((RequestEnd,)))
        recorded = server.ctx.error_log.total_recorded
        result = server.process(Request(kind="flood"))
        assert server.ctx.error_log.total_recorded - recorded == FLOOD_READS
        (end,) = sink.events
        assert end.memory_errors == FLOOD_READS
        assert sum(count for _site, count in end.error_sites) <= server.ctx.error_log.capacity
        assert len(result.memory_errors) == server.ctx.error_log.capacity

    def test_elapsed_time_recorded(self):
        server = EchoServer(FailureObliviousPolicy)
        server.start()
        result = server.process(Request(kind="echo"))
        assert result.elapsed_seconds > 0

    def test_describe_mentions_policy(self):
        server = EchoServer(FailureObliviousPolicy)
        assert "failure-oblivious" in server.describe()


class TestHistoryBounding:
    """Regression for the soak memory leak: history grew one RequestResult
    per request forever; it is now a deque, cappable for long runs."""

    def test_unbounded_by_default(self):
        server = EchoServer(FailureObliviousPolicy)
        server.start()
        for _ in range(10):
            server.process(Request(kind="echo"))
        assert len(server.history) == 10
        assert server.history.maxlen is None

    def test_constructor_limit_caps_history(self):
        server = EchoServer(FailureObliviousPolicy, history_limit=4)
        server.start()
        for index in range(10):
            server.process(Request(kind="echo", payload={"data": bytes([index])}))
        assert len(server.history) == 4
        # The newest results are the ones retained.
        assert [result.response.body for result in server.history] == [
            bytes([6]), bytes([7]), bytes([8]), bytes([9])
        ]
        assert server.requests_processed == 10  # counters keep counting

    def test_limit_history_preserves_newest_tail(self):
        server = EchoServer(FailureObliviousPolicy)
        server.start()
        for index in range(6):
            server.process(Request(kind="echo", payload={"data": bytes([index])}))
        server.limit_history(2)
        assert [result.response.body for result in server.history] == [
            bytes([4]), bytes([5])
        ]
        server.limit_history(None)
        server.process(Request(kind="echo"))
        assert len(server.history) == 3

    def test_history_survives_checkpoint_restart(self):
        server = EchoServer(FailureObliviousPolicy, history_limit=8)
        server.start()
        server.process(Request(kind="echo"))
        server.restart()
        # History is server-lifetime bookkeeping, not process-image state.
        assert len(server.history) == 1


class TestRequestResponse:
    def test_request_ids_unique(self):
        a = Request(kind="x")
        b = Request(kind="x")
        assert a.request_id != b.request_id

    def test_request_describe_marks_attacks(self):
        assert "[attack]" in Request(kind="x", is_attack=True).describe()

    def test_response_constructors(self):
        assert Response.ok(b"body").is_ok
        assert not Response.error("nope").is_ok
