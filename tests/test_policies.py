"""Tests for the build-variant policies (the paper's core contribution).

A checked block access that fails is one run of one element whose width is
the event's ``length``; these tests drive the run hooks that way through
:func:`block_write` and :func:`block_read`.
"""

import pytest

from repro.core.manufacture import ZeroValueSequence
from repro.core.policies import (
    BoundlessPolicy,
    BoundsCheckPolicy,
    FailureObliviousPolicy,
    POLICY_NAMES,
    RedirectPolicy,
    StandardPolicy,
)
from repro.core.policy import AccessDecision, DecisionAction
from repro.errors import (
    AccessKind,
    BoundsCheckViolation,
    ErrorKind,
    MemoryErrorEvent,
    UseAfterFree,
)
from repro.telemetry.events import InvalidAccess, Manufacture
from repro.telemetry.sinks import ListSink


def oob_event(offset=10, access=AccessKind.WRITE, kind=ErrorKind.OUT_OF_BOUNDS, length=2):
    return MemoryErrorEvent(
        kind=kind, access=access, unit_name="u#1", unit_size=8, offset=offset, length=length
    )


def block_write(policy, data, offset=10, kind=ErrorKind.OUT_OF_BOUNDS):
    """One invalid block write of ``data``: a run of one ``len(data)``-byte element."""
    event = oob_event(offset, AccessKind.WRITE, kind, len(data))
    return policy.on_invalid_write_run(event, data)


def block_read(policy, length, offset=10, kind=ErrorKind.OUT_OF_BOUNDS):
    """One invalid block read of ``length`` bytes: a run of one element."""
    return policy.on_invalid_read_run(oob_event(offset, AccessKind.READ, kind, length), 1)


class TestStandardPolicy:
    def test_does_not_perform_checks(self):
        assert StandardPolicy().performs_checks is False


class TestBoundsCheckPolicy:
    def test_raises_on_invalid_write(self):
        decision = block_write(BoundsCheckPolicy(), b"xy")
        assert decision.action is DecisionAction.RAISE
        assert isinstance(decision.exception, BoundsCheckViolation)

    def test_raises_on_invalid_read(self):
        decision = block_read(BoundsCheckPolicy(), 2)
        assert isinstance(decision.exception, BoundsCheckViolation)

    def test_use_after_free_gets_specific_exception(self):
        decision = block_read(BoundsCheckPolicy(), 1, kind=ErrorKind.USE_AFTER_FREE)
        assert isinstance(decision.exception, UseAfterFree)

    def test_records_event_in_log(self):
        policy = BoundsCheckPolicy()
        block_write(policy, b"x")
        assert policy.error_log.total_recorded == 1

    def test_run_records_only_its_first_element(self):
        policy = BoundsCheckPolicy()
        policy.on_invalid_write_run(oob_event(length=4), bytes(12))
        assert policy.error_log.events() == [oob_event(length=4)]


class TestFailureObliviousPolicy:
    def test_discards_invalid_writes(self):
        policy = FailureObliviousPolicy()
        decision = block_write(policy, b"abc")
        assert decision.action is DecisionAction.DISCARD
        assert policy.stats.discarded_bytes == 3

    def test_manufactures_values_for_invalid_reads(self):
        policy = FailureObliviousPolicy()
        decision = block_read(policy, 4)
        assert decision.action is DecisionAction.SUPPLY
        assert decision.data == bytes([0, 1, 2, 0])

    def test_manufactured_values_follow_the_paper_sequence(self):
        policy = FailureObliviousPolicy()
        first = block_read(policy, 3).data
        second = block_read(policy, 3).data
        assert first == bytes([0, 1, 2])
        assert second == bytes([0, 1, 3])

    def test_custom_sequence_is_honoured(self):
        policy = FailureObliviousPolicy(sequence=ZeroValueSequence())
        data = block_read(policy, 5).data
        assert data == b"\x00" * 5

    def test_counters_track_reads_and_writes(self):
        policy = FailureObliviousPolicy()
        block_write(policy, b"ab")
        block_read(policy, 1)
        assert policy.stats.invalid_writes == 1
        assert policy.stats.invalid_reads == 1

    def test_events_logged(self):
        policy = FailureObliviousPolicy()
        block_write(policy, b"ab")
        assert policy.error_log.total_recorded == 1

    def test_block_access_publishes_single_records(self):
        """A run of one element is the plain single record: count 1, stride
        1, and one manufacture decision covering the element's bytes."""
        policy = FailureObliviousPolicy()
        stream = policy.bus.attach(ListSink((InvalidAccess, Manufacture)))
        block_read(policy, 4)
        event = oob_event(access=AccessKind.READ, length=4)
        assert stream.events == [InvalidAccess(error=event),
                                 Manufacture(length=4, count=1)]


class TestBoundlessPolicy:
    def test_stored_writes_are_returned_by_reads(self):
        policy = BoundlessPolicy()
        block_write(policy, b"XY", offset=10)
        decision = block_read(policy, 2, offset=10)
        assert decision.data == b"XY"

    def test_unwritten_bytes_are_manufactured(self):
        policy = BoundlessPolicy()
        decision = block_read(policy, 2, offset=40)
        assert decision.data == bytes([0, 1])

    def test_partial_overlap_mixes_stored_and_manufactured(self):
        policy = BoundlessPolicy()
        block_write(policy, b"Z", offset=10)
        decision = block_read(policy, 2, offset=10)
        assert decision.data[0:1] == b"Z"

    def test_stored_bytes_counter(self):
        policy = BoundlessPolicy()
        block_write(policy, b"hello", offset=10)
        assert policy.stored_bytes() == 5

    def test_store_capacity_degrades_to_discard(self):
        policy = BoundlessPolicy(max_stored_bytes=4)
        block_write(policy, b"abcd", offset=0)
        block_write(policy, b"efgh", offset=100)
        # Second write exceeded the cap and was discarded rather than stored.
        read = block_read(policy, 1, offset=100)
        assert read.data != b"e"

    def test_overwriting_stored_offsets_consumes_no_extra_capacity(self):
        policy = BoundlessPolicy(max_stored_bytes=4)
        for _ in range(10):
            block_write(policy, b"abcd", offset=0)
        # Ten overwrites of the same four offsets still fit in a 4-byte store.
        block_write(policy, b"WXYZ", offset=0)
        read = block_read(policy, 4, offset=0)
        assert read.data == b"WXYZ"
        assert policy.stored_bytes() == 4

    def test_overwrites_do_not_double_count_stored_bytes_stat(self):
        policy = BoundlessPolicy()
        block_write(policy, b"abcd", offset=0)
        block_write(policy, b"WXYZ", offset=0)
        block_write(policy, b"1234", offset=2)
        # 4 fresh offsets, then 0 fresh, then 2 fresh (offsets 4 and 5).
        assert policy.stats.stored_out_of_bounds_bytes == 6
        assert policy.stored_bytes() == 6


class TestRedirectPolicy:
    def test_redirects_out_of_bounds_offsets_into_unit(self):
        policy = RedirectPolicy()
        decision = block_write(policy, b"x", offset=10)
        assert decision.action is DecisionAction.REDIRECT
        assert decision.redirect_offset == 10 % 8

    def test_redirect_read(self):
        policy = RedirectPolicy()
        decision = block_read(policy, 1, offset=9)
        assert decision.redirect_offset == 1

    def test_use_after_free_falls_back_to_oblivious(self):
        policy = RedirectPolicy()
        decision = block_read(policy, 2, kind=ErrorKind.USE_AFTER_FREE)
        assert decision.action is DecisionAction.SUPPLY


class TestRegistry:
    def test_registry_contains_all_five_policies(self):
        assert set(POLICY_NAMES) == {
            "standard", "bounds-check", "failure-oblivious", "boundless", "redirect"
        }

    @pytest.mark.parametrize("name", sorted(POLICY_NAMES))
    def test_registry_name_is_the_policy_name(self, name):
        assert POLICY_NAMES[name]().name == name

    def test_describe_mentions_checking(self):
        assert "checks=off" in StandardPolicy().describe()
        assert "checks=on" in FailureObliviousPolicy().describe()

    def test_decision_constructors(self):
        assert AccessDecision.discard().action is DecisionAction.DISCARD
        assert AccessDecision.supply(b"x").data == b"x"
        assert AccessDecision.redirect(3).redirect_offset == 3

    def test_stats_as_dict_keys(self):
        stats = FailureObliviousPolicy().stats.as_dict()
        assert "checks_performed" in stats and "manufactured_values" in stats
