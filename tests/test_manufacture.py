"""Tests for the manufactured value sequence (paper §3)."""

import pytest

from repro.core.manufacture import (
    ManufacturedValueSequence,
    ZeroValueSequence,
)


class TestPaperSequence:
    def test_starts_with_zero_one(self):
        seq = ManufacturedValueSequence()
        assert seq.next_value() == 0
        assert seq.next_value() == 1

    def test_interleaves_zero_one_with_counter(self):
        seq = ManufacturedValueSequence()
        values = [seq.next_value() for _ in range(9)]
        assert values == [0, 1, 2, 0, 1, 3, 0, 1, 4]

    def test_zero_and_one_are_most_frequent(self):
        seq = ManufacturedValueSequence()
        values = [seq.next_value() for _ in range(3000)]
        counts = {v: values.count(v) for v in set(values)}
        assert counts[0] > counts[2]
        assert counts[1] > counts[2]

    def test_counter_eventually_produces_every_byte_value(self):
        seq = ManufacturedValueSequence()
        seen = set()
        for _ in range(3 * 256 * 2):
            seen.add(seq.next_value())
        assert set(range(256)) <= seen

    def test_counter_wraps_after_max_small(self):
        seq = ManufacturedValueSequence(max_small=4)
        values = [seq.next_value() for _ in range(12)]
        # counter walks 2, 3, 4 then wraps back to 2
        assert values[2::3] == [2, 3, 4, 2]

    def test_slash_character_appears(self):
        """The Midnight Commander loop needs '/' (47) to eventually appear."""
        seq = ManufacturedValueSequence()
        values = [seq.next_value() for _ in range(500)]
        assert ord("/") in values

    def test_reset_restarts_sequence(self):
        seq = ManufacturedValueSequence()
        first = [seq.next_value() for _ in range(10)]
        seq.reset()
        second = [seq.next_value() for _ in range(10)]
        assert first == second

    def test_produced_counter(self):
        seq = ManufacturedValueSequence()
        for _ in range(7):
            seq.next_value()
        assert seq.produced == 7

    def test_next_bytes_length(self):
        seq = ManufacturedValueSequence()
        assert len(seq.next_bytes(13)) == 13

    def test_peek_does_not_consume(self):
        seq = ManufacturedValueSequence()
        peeked = seq.peek(5)
        consumed = [seq.next_value() for _ in range(5)]
        assert peeked == consumed

    def test_iteration_protocol(self):
        seq = ManufacturedValueSequence()
        iterator = iter(seq)
        assert [next(iterator) for _ in range(3)] == [0, 1, 2]

    def test_without_zero_one_weighting(self):
        seq = ManufacturedValueSequence(favor_zero_one=False)
        assert [seq.next_value() for _ in range(4)] == [2, 3, 4, 5]

    def test_rejects_tiny_max_small(self):
        with pytest.raises(ValueError):
            ManufacturedValueSequence(max_small=1)


class TestAblationSequences:
    def test_zero_sequence_only_produces_zero(self):
        seq = ZeroValueSequence()
        assert all(seq.next_value() == 0 for _ in range(100))

    def test_zero_sequence_never_produces_slash(self):
        seq = ZeroValueSequence()
        assert ord("/") not in [seq.next_value() for _ in range(1000)]
