"""Manufactured value sequences for invalid reads.

Section 3 of the paper:

    "We therefore generate a sequence that iterates through all small
    integers, increasing the chance that, if the values are used to determine
    loop conditions, the computation will hit upon a value that will exit the
    loop (and avoid nontermination).  Because zero and one are usually the
    most commonly loaded values in computer programs, the sequence is designed
    to return these values more frequently than other, less common, values."

The default sequence below interleaves 0 and 1 with a counter that walks
through the remaining small integers:  0, 1, 2, 0, 1, 3, 0, 1, 4, ...  Once the
counter exceeds ``max_small`` it wraps back to 2, so every byte value in
``[0, max_small]`` eventually appears (which is what lets loops searching for a
particular character — the Midnight Commander ``/`` search — terminate).
"""

from __future__ import annotations

from typing import Iterator, List


class ManufacturedValueSequence:
    """Deterministic generator of values for invalid reads.

    Parameters
    ----------
    max_small:
        Largest value produced by the walking counter.  The default of 255
        covers every possible byte, guaranteeing that a loop searching memory
        for any particular character eventually observes it.
    favor_zero_one:
        If True (the paper's design), 0 and 1 are interleaved before every
        counter value so they appear far more frequently than other values.
    """

    def __init__(self, max_small: int = 255, favor_zero_one: bool = True) -> None:
        if max_small < 2:
            raise ValueError("max_small must be at least 2")
        self.max_small = max_small
        self.favor_zero_one = favor_zero_one
        self._counter = 2
        self._phase = 0
        self._produced = 0

    def reset(self) -> None:
        """Restart the sequence from the beginning."""
        self._counter = 2
        self._phase = 0
        self._produced = 0

    def checkpoint(self) -> tuple:
        """Snapshot the generator position (for process-image checkpoints)."""
        return (self._counter, self._phase, self._produced)

    def restore(self, cp: tuple) -> None:
        """Rewind the generator to a snapshot taken by :meth:`checkpoint`."""
        self._counter, self._phase, self._produced = cp

    @property
    def produced(self) -> int:
        """Total number of values handed out so far."""
        return self._produced

    def next_value(self) -> int:
        """Return the next manufactured value in ``[0, max_small]``."""
        self._produced += 1
        if not self.favor_zero_one:
            value = self._counter
            self._advance_counter()
            return value
        if self._phase == 0:
            self._phase = 1
            return 0
        if self._phase == 1:
            self._phase = 2
            return 1
        self._phase = 0
        value = self._counter
        self._advance_counter()
        return value

    def _advance_counter(self) -> None:
        self._counter += 1
        if self._counter > self.max_small:
            self._counter = 2

    def next_byte(self) -> int:
        """Return the next manufactured value clamped to a single byte."""
        return self.next_value() & 0xFF

    def next_bytes(self, length: int) -> bytes:
        """Return ``length`` manufactured bytes."""
        return bytes(self.next_byte() for _ in range(length))

    def peek(self, count: int) -> List[int]:
        """Return the next ``count`` values without consuming them."""
        saved = (self._counter, self._phase, self._produced)
        values = [self.next_value() for _ in range(count)]
        self._counter, self._phase, self._produced = saved
        return values

    def __iter__(self) -> Iterator[int]:
        while True:
            yield self.next_value()


class ZeroValueSequence(ManufacturedValueSequence):
    """Ablation variant: always manufacture zero.

    Used by the ablation benchmark to show why the paper's cycling sequence is
    needed — a constant sequence can leave loops that search for a particular
    character spinning forever (the Midnight Commander hang described in §3).
    """

    def __init__(self) -> None:
        super().__init__(max_small=2, favor_zero_one=False)

    def next_value(self) -> int:  # noqa: D102 - behaviour described in class docstring
        self._produced += 1
        return 0
