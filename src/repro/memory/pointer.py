"""Fat pointers that remember their intended referent.

Ruwase & Lam's extension to the Jones & Kelly scheme (the checker the paper
builds on) keeps out-of-bounds pointers usable by associating them with an
*out-of-bounds object* that records the unit the pointer was derived from.
:class:`FatPointer` captures the same idea directly: a pointer is a (data unit,
byte offset) pair, and the offset is allowed to wander outside ``[0, size)``.
Whether dereferencing such a pointer corrupts memory, terminates the program,
or is absorbed obliviously is decided by the active policy, not by the pointer.
"""

from __future__ import annotations

from typing import Union

from repro.errors import frozen_record
from repro.memory.data_unit import DataUnit, NULL_UNIT


@frozen_record
class FatPointer:
    """A typed pointer into the simulated address space.

    Attributes
    ----------
    referent:
        The data unit the pointer was derived from.
    offset:
        Byte offset relative to the referent's base.  May be negative or past
        the end of the unit; such pointers are legal to hold (and compare) but
        dereferencing them is a memory error.
    """

    referent: DataUnit
    offset: int = 0

    # -- constructors -------------------------------------------------------------

    @classmethod
    def null(cls) -> "FatPointer":
        """Return the null pointer."""
        return cls(referent=NULL_UNIT, offset=0)

    @classmethod
    def to_unit(cls, unit: DataUnit, offset: int = 0) -> "FatPointer":
        """Return a pointer to ``unit`` at ``offset``."""
        return cls(referent=unit, offset=offset)

    # -- properties ---------------------------------------------------------------

    @property
    def address(self) -> int:
        """The raw address this pointer designates."""
        return self.referent.base + self.offset

    @property
    def is_null(self) -> bool:
        """True for the null pointer (and any pointer into the null unit)."""
        return self.referent is NULL_UNIT

    @property
    def in_bounds(self) -> bool:
        """True if dereferencing one byte here would be legal."""
        return self.referent.alive and self.referent.contains_offset(self.offset)

    def remaining(self) -> int:
        """Length of the contiguous safe span starting at this pointer.

        This is the in-bounds window query the bulk substrate paths are built
        on: the number of bytes that can be accessed from here without any
        policy intervention.  Zero for dead units and for pointers that start
        out of bounds (including negative offsets), so a positive return value
        guarantees ``[offset, offset + remaining())`` is entirely legal.
        """
        unit = self.referent
        if not unit.alive or not (0 <= self.offset < unit.size):
            return 0
        return unit.size - self.offset

    # -- arithmetic ---------------------------------------------------------------

    def __add__(self, delta: int) -> "FatPointer":
        """Pointer arithmetic: ``p + n`` moves ``n`` bytes forward."""
        return FatPointer(self.referent, self.offset + delta)

    def __sub__(self, other: Union[int, "FatPointer"]) -> Union["FatPointer", int]:
        """``p - n`` moves backwards; ``p - q`` yields the byte distance."""
        if isinstance(other, FatPointer):
            return self.address - other.address
        return FatPointer(self.referent, self.offset - other)

    # -- comparisons --------------------------------------------------------------
    #
    # C permits comparing pointers; the paper notes that Pine and Midnight
    # Commander even compare out-of-bounds pointers.  Comparisons are therefore
    # defined on raw addresses and never raise.

    def __lt__(self, other: "FatPointer") -> bool:
        return self.address < other.address

    def __le__(self, other: "FatPointer") -> bool:
        return self.address <= other.address

    def __gt__(self, other: "FatPointer") -> bool:
        return self.address > other.address

    def __ge__(self, other: "FatPointer") -> bool:
        return self.address >= other.address

    def same_unit(self, other: "FatPointer") -> bool:
        """True if both pointers were derived from the same data unit."""
        return self.referent is other.referent

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        marker = "" if self.in_bounds else " OOB"
        return f"<FatPointer {self.referent.label()}+{self.offset}{marker}>"
