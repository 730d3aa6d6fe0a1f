"""The object table mapping addresses to data units (Jones & Kelly).

The CRED checker maintains a table of all live data units so that, given a
pointer value, it can recover which unit the pointer refers to and whether the
access stays in bounds.  This module provides that table as a sorted interval
map with O(log n) lookup.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.memory.data_unit import DataUnit, UnitKind, make_unit


@dataclass(frozen=True)
class UnitRecord:
    """Pure-data image of one :class:`~repro.memory.data_unit.DataUnit`.

    Checkpoints store records, not unit objects, so a checkpoint shares no
    mutable state with the live table: restoring resets the units the table
    still holds and builds the others (cloning into another process image
    builds them all) with identical fields — including the serial, which is
    deterministic per table (see :meth:`ObjectTable.next_serial`).
    """

    name: str
    base: int
    size: int
    kind: UnitKind
    owner: str
    serial: int
    alive: bool

    @classmethod
    def of(cls, unit: DataUnit) -> "UnitRecord":
        return cls(name=unit.name, base=unit.base, size=unit.size, kind=unit.kind,
                   owner=unit.owner, serial=unit.serial, alive=unit.alive)

    def build(self) -> DataUnit:
        unit = make_unit(name=self.name, base=self.base, size=self.size,
                         kind=self.kind, owner=self.owner, serial=self.serial)
        unit.alive = self.alive
        return unit

    def reset(self, unit: DataUnit) -> DataUnit:
        """Give ``unit`` (same base and serial) this record's fields."""
        unit.name = self.name
        unit.size = self.size
        unit.kind = self.kind
        unit.owner = self.owner
        unit.alive = self.alive
        return unit


@dataclass(frozen=True)
class ObjectTableCheckpoint:
    """Immutable snapshot of the live units, the retired ring, and counters."""

    live: Tuple[UnitRecord, ...]
    retired: Tuple[UnitRecord, ...]
    lookups: int
    next_serial: int


class ObjectTable:
    """Interval map from addresses to live data units.

    Units are stored sorted by base address.  The table assumes units never
    overlap, which the allocator and call stack guarantee; this is asserted at
    registration time to catch substrate bugs early.
    """

    def __init__(self) -> None:
        self._bases: List[int] = []
        self._units: List[DataUnit] = []
        #: Units that have been unregistered but are remembered so that
        #: use-after-free accesses can be attributed to the original unit.
        self._retired: List[DataUnit] = []
        #: Callbacks invoked whenever a unit dies (heap free *or* stack frame
        #: pop — unregister is the single definition of unit death).  Used by
        #: policies holding per-unit side state, e.g. the boundless store.
        self._death_hooks: List[Callable[[DataUnit], None]] = []
        self.lookups = 0
        self._serial_counter = 1

    def add_death_hook(self, hook: Callable[[DataUnit], None]) -> None:
        """Call ``hook(unit)`` every time a unit is unregistered."""
        self._death_hooks.append(hook)

    def next_serial(self) -> int:
        """Hand out the next per-table unit serial.

        The allocator and call stack draw serials here rather than from the
        module-global counter, so a process image that boots deterministically
        labels its units deterministically — two fresh boots (or a checkpoint
        restore and a from-scratch reboot) produce identical unit labels.
        """
        serial = self._serial_counter
        self._serial_counter += 1
        return serial

    def __len__(self) -> int:
        return len(self._units)

    def __iter__(self) -> Iterator[DataUnit]:
        return iter(self._units)

    def register(self, unit: DataUnit) -> DataUnit:
        """Add a live unit to the table."""
        index = bisect.bisect_left(self._bases, unit.base)
        if index < len(self._units) and self._units[index].base < unit.end:
            raise ValueError(
                f"unit {unit.label()} overlaps {self._units[index].label()}"
            )
        if index > 0 and self._units[index - 1].end > unit.base:
            raise ValueError(
                f"unit {unit.label()} overlaps {self._units[index - 1].label()}"
            )
        self._bases.insert(index, unit.base)
        self._units.insert(index, unit)
        return unit

    def unregister(self, unit: DataUnit) -> None:
        """Remove a unit (on free / frame pop) and mark it dead."""
        index = bisect.bisect_left(self._bases, unit.base)
        while index < len(self._units) and self._bases[index] == unit.base:
            if self._units[index] is unit:
                del self._bases[index]
                del self._units[index]
                unit.alive = False
                self._retired.append(unit)
                if len(self._retired) > 1024:
                    self._retired.pop(0)
                for hook in self._death_hooks:
                    hook(unit)
                return
            index += 1
        raise KeyError(f"unit {unit.label()} is not registered")

    def find(self, address: int) -> Optional[DataUnit]:
        """Return the live unit containing ``address``, or None.

        This is the per-access table lookup whose cost is the dominant source
        of the slowdown reported in the paper's performance figures.
        """
        self.lookups += 1
        index = bisect.bisect_right(self._bases, address) - 1
        if index < 0:
            return None
        unit = self._units[index]
        if unit.contains_address(address):
            return unit
        return None

    def find_retired(self, address: int) -> Optional[DataUnit]:
        """Return a dead unit that used to contain ``address`` (for UAF reporting)."""
        for unit in reversed(self._retired):
            if unit.contains_address(address):
                return unit
        return None

    def live_units(self) -> List[DataUnit]:
        """Return all live units ordered by base address."""
        return list(self._units)

    # -- checkpoint / restore -----------------------------------------------------

    def checkpoint(self) -> ObjectTableCheckpoint:
        """Snapshot the live units, the retired ring, and the counters."""
        return ObjectTableCheckpoint(
            live=tuple(UnitRecord.of(unit) for unit in self._units),
            retired=tuple(UnitRecord.of(unit) for unit in self._retired),
            lookups=self.lookups,
            next_serial=self._serial_counter,
        )

    def restore(self, cp: ObjectTableCheckpoint) -> Dict[int, DataUnit]:
        """Rebuild the table from a checkpoint, returning live units by base.

        A record the checkpoint keeps reuses the unit object the table
        already holds for it, live or retired (matched by base and serial),
        with its fields reset from the record.  So a pointer taken before
        the checkpoint still names the unit the table holds (it can be
        freed), and a unit freed since the checkpoint is alive again for the
        pointers that still name it.  Only the other records get fresh
        :class:`DataUnit` objects, as a from-scratch reboot would.  Units
        the checkpoint does not hold drop out and are marked dead: the
        restored allocator hands their bytes out again, so a stale pointer
        into one must be an invalid access, not an alias of the next
        allocation.  Death hooks do *not* fire — an image swap is not a
        program-visible unit death.  The returned mapping lets the allocator
        and call stack rewire their own references to the same objects.
        """
        held = {(unit.base, unit.serial): unit for unit in self._retired}
        held.update(((unit.base, unit.serial), unit) for unit in self._units)

        def adopt(record: UnitRecord) -> DataUnit:
            unit = held.pop((record.base, record.serial), None)
            return record.build() if unit is None else record.reset(unit)

        self._units = [adopt(record) for record in cp.live]
        self._retired = [adopt(record) for record in cp.retired]
        for unit in held.values():
            unit.alive = False
        self._bases = [unit.base for unit in self._units]
        self.lookups = cp.lookups
        self._serial_counter = cp.next_serial
        return {unit.base: unit for unit in self._units}
