"""Tests for the build-variant policies (the paper's core contribution)."""

import pytest

from repro.core.manufacture import ZeroValueSequence
from repro.core.policies import (
    BoundlessPolicy,
    BoundsCheckPolicy,
    FailureObliviousPolicy,
    POLICY_NAMES,
    RedirectPolicy,
    StandardPolicy,
    make_policy,
)
from repro.core.policy import AccessDecision, DecisionAction
from repro.errors import (
    AccessKind,
    BoundsCheckViolation,
    ErrorKind,
    MemoryErrorEvent,
    UseAfterFree,
)


def oob_event(offset=10, access=AccessKind.WRITE, kind=ErrorKind.OUT_OF_BOUNDS):
    return MemoryErrorEvent(
        kind=kind, access=access, unit_name="u#1", unit_size=8, offset=offset, length=2
    )


class TestStandardPolicy:
    def test_does_not_perform_checks(self):
        assert StandardPolicy().performs_checks is False

    def test_invalid_hooks_pass_through_raw(self):
        policy = StandardPolicy()
        assert policy.on_invalid_write(oob_event(), b"xy").action is DecisionAction.PERFORM_RAW
        assert policy.on_invalid_read(oob_event(access=AccessKind.READ), 2).action is DecisionAction.PERFORM_RAW


class TestBoundsCheckPolicy:
    def test_raises_on_invalid_write(self):
        decision = BoundsCheckPolicy().on_invalid_write(oob_event(), b"xy")
        assert decision.action is DecisionAction.RAISE
        assert isinstance(decision.exception, BoundsCheckViolation)

    def test_raises_on_invalid_read(self):
        decision = BoundsCheckPolicy().on_invalid_read(oob_event(access=AccessKind.READ), 2)
        assert isinstance(decision.exception, BoundsCheckViolation)

    def test_use_after_free_gets_specific_exception(self):
        decision = BoundsCheckPolicy().on_invalid_read(
            oob_event(access=AccessKind.READ, kind=ErrorKind.USE_AFTER_FREE), 1
        )
        assert isinstance(decision.exception, UseAfterFree)

    def test_records_event_in_log(self):
        policy = BoundsCheckPolicy()
        policy.on_invalid_write(oob_event(), b"x")
        assert policy.error_log.total_recorded == 1


class TestFailureObliviousPolicy:
    def test_discards_invalid_writes(self):
        policy = FailureObliviousPolicy()
        decision = policy.on_invalid_write(oob_event(), b"abc")
        assert decision.action is DecisionAction.DISCARD
        assert policy.stats.discarded_bytes == 3

    def test_manufactures_values_for_invalid_reads(self):
        policy = FailureObliviousPolicy()
        decision = policy.on_invalid_read(oob_event(access=AccessKind.READ), 4)
        assert decision.action is DecisionAction.SUPPLY
        assert decision.data == bytes([0, 1, 2, 0])

    def test_manufactured_values_follow_the_paper_sequence(self):
        policy = FailureObliviousPolicy()
        first = policy.on_invalid_read(oob_event(access=AccessKind.READ), 3).data
        second = policy.on_invalid_read(oob_event(access=AccessKind.READ), 3).data
        assert first == bytes([0, 1, 2])
        assert second == bytes([0, 1, 3])

    def test_custom_sequence_is_honoured(self):
        policy = FailureObliviousPolicy(sequence=ZeroValueSequence())
        data = policy.on_invalid_read(oob_event(access=AccessKind.READ), 5).data
        assert data == b"\x00" * 5

    def test_counters_track_reads_and_writes(self):
        policy = FailureObliviousPolicy()
        policy.on_invalid_write(oob_event(), b"ab")
        policy.on_invalid_read(oob_event(access=AccessKind.READ), 1)
        assert policy.stats.invalid_writes == 1
        assert policy.stats.invalid_reads == 1

    def test_events_logged(self):
        policy = FailureObliviousPolicy()
        policy.on_invalid_write(oob_event(), b"ab")
        assert policy.error_log.total_recorded == 1


class TestBoundlessPolicy:
    def test_stored_writes_are_returned_by_reads(self):
        policy = BoundlessPolicy()
        policy.on_invalid_write(oob_event(offset=10), b"XY")
        decision = policy.on_invalid_read(oob_event(offset=10, access=AccessKind.READ), 2)
        assert decision.data == b"XY"

    def test_unwritten_bytes_are_manufactured(self):
        policy = BoundlessPolicy()
        decision = policy.on_invalid_read(oob_event(offset=40, access=AccessKind.READ), 2)
        assert decision.data == bytes([0, 1])

    def test_partial_overlap_mixes_stored_and_manufactured(self):
        policy = BoundlessPolicy()
        policy.on_invalid_write(oob_event(offset=10), b"Z")
        decision = policy.on_invalid_read(oob_event(offset=10, access=AccessKind.READ), 2)
        assert decision.data[0:1] == b"Z"

    def test_stored_bytes_counter(self):
        policy = BoundlessPolicy()
        policy.on_invalid_write(oob_event(offset=10), b"hello")
        assert policy.stored_bytes() == 5

    def test_store_capacity_degrades_to_discard(self):
        policy = BoundlessPolicy(max_stored_bytes=4)
        policy.on_invalid_write(oob_event(offset=0), b"abcd")
        policy.on_invalid_write(oob_event(offset=100), b"efgh")
        # Second write exceeded the cap and was discarded rather than stored.
        read = policy.on_invalid_read(oob_event(offset=100, access=AccessKind.READ), 1)
        assert read.data != b"e"

    def test_overwriting_stored_offsets_consumes_no_extra_capacity(self):
        policy = BoundlessPolicy(max_stored_bytes=4)
        for _ in range(10):
            policy.on_invalid_write(oob_event(offset=0), b"abcd")
        # Ten overwrites of the same four offsets still fit in a 4-byte store.
        policy.on_invalid_write(oob_event(offset=0), b"WXYZ")
        read = policy.on_invalid_read(oob_event(offset=0, access=AccessKind.READ), 4)
        assert read.data == b"WXYZ"
        assert policy.stored_bytes() == 4

    def test_overwrites_do_not_double_count_stored_bytes_stat(self):
        policy = BoundlessPolicy()
        policy.on_invalid_write(oob_event(offset=0), b"abcd")
        policy.on_invalid_write(oob_event(offset=0), b"WXYZ")
        policy.on_invalid_write(oob_event(offset=2), b"1234")
        # 4 fresh offsets, then 0 fresh, then 2 fresh (offsets 4 and 5).
        assert policy.stats.stored_out_of_bounds_bytes == 6
        assert policy.stored_bytes() == 6


class TestRedirectPolicy:
    def test_redirects_out_of_bounds_offsets_into_unit(self):
        policy = RedirectPolicy()
        decision = policy.on_invalid_write(oob_event(offset=10), b"x")
        assert decision.action is DecisionAction.REDIRECT
        assert decision.redirect_offset == 10 % 8

    def test_redirect_read(self):
        policy = RedirectPolicy()
        decision = policy.on_invalid_read(oob_event(offset=9, access=AccessKind.READ), 1)
        assert decision.redirect_offset == 1

    def test_use_after_free_falls_back_to_oblivious(self):
        policy = RedirectPolicy()
        decision = policy.on_invalid_read(
            oob_event(access=AccessKind.READ, kind=ErrorKind.USE_AFTER_FREE), 2
        )
        assert decision.action is DecisionAction.SUPPLY


class TestRegistry:
    def test_registry_contains_all_five_policies(self):
        assert set(POLICY_NAMES) == {
            "standard", "bounds-check", "failure-oblivious", "boundless", "redirect"
        }

    @pytest.mark.parametrize("name", sorted(POLICY_NAMES))
    def test_make_policy_instantiates(self, name):
        policy = make_policy(name)
        assert policy.name == name

    def test_make_policy_unknown_name(self):
        with pytest.raises(KeyError):
            make_policy("no-such-policy")

    def test_describe_mentions_checking(self):
        assert "checks=off" in StandardPolicy().describe()
        assert "checks=on" in FailureObliviousPolicy().describe()

    def test_decision_constructors(self):
        assert AccessDecision.discard().action is DecisionAction.DISCARD
        assert AccessDecision.supply(b"x").data == b"x"
        assert AccessDecision.redirect(3).redirect_offset == 3
        assert AccessDecision.perform_raw().action is DecisionAction.PERFORM_RAW

    def test_stats_as_dict_keys(self):
        stats = FailureObliviousPolicy().stats.as_dict()
        assert "checks_performed" in stats and "manufactured_values" in stats
