"""A simulated call stack with overwritable return-address slots.

The Apache, Sendmail, and Midnight Commander vulnerabilities are stack buffer
overruns: an unchecked write runs past the end of a stack-allocated buffer and
overwrites the saved return address (or neighbouring locals).  The paper's
Standard builds then either crash with a segmentation violation or, for a
crafted payload, jump to attacker-injected code.

This module reproduces that failure mode.  Each frame lays out its locals at
increasing addresses followed by an 8-byte return-address slot, mirroring the
downward-growing x86 stack where locals sit *below* the saved return address,
so an overflow that runs forward out of a local buffer reaches the slot.  When
a frame is popped, the slot is compared against the value saved at push time:

* intact           -> normal return;
* overwritten with bytes that look like an attacker payload -> :class:`~repro.errors.ControlFlowHijack`;
* otherwise corrupted -> :class:`~repro.errors.SegmentationFault`.

Stack memory is deliberately *not* cleared between frames, so uninitialized
locals expose stale bytes — which is exactly the Midnight Commander bug
(§4.5.1: "the buffer is never initialized").
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import ControlFlowHijack, SegmentationFault
from repro.memory.address_space import AddressSpace
from repro.memory.data_unit import DataUnit, UnitKind, make_unit
from repro.memory.object_table import ObjectTable


@dataclass(frozen=True)
class FrameCheckpoint:
    """Pure-data image of one stack frame (locals referenced by base address)."""

    function: str
    base: int
    return_slot_addr: int
    saved_return_value: int
    cursor: int
    local_bases: Tuple[int, ...]


@dataclass(frozen=True)
class CallStackCheckpoint:
    """Immutable snapshot of the frame list and counters."""

    top: int
    frames: Tuple[FrameCheckpoint, ...]
    frame_counter: int
    pushes: int
    pops: int

#: Size of the saved return address slot at the top of each frame.
RETURN_SLOT_SIZE = 8

#: Byte patterns that the harness's attack payloads embed.  If a corrupted
#: return slot contains one of these patterns the corruption is classified as
#: a successful control-flow hijack rather than a plain crash.
ATTACK_MARKERS = (b"\x41\x41\x41\x41", b"\x90\x90\x90\x90", b"\xde\xad\xbe\xef")

_RETURN_STRUCT = struct.Struct("<Q")


@dataclass
class StackFrame:
    """One activation record on the simulated stack."""

    function: str
    base: int
    return_slot_addr: int = 0
    saved_return_value: int = 0
    locals: List[DataUnit] = field(default_factory=list)
    #: Next free address for local allocation inside this frame.
    cursor: int = 0


class CallStack:
    """Simulated call stack allocating frames in the ``stack`` segment."""

    def __init__(self, address_space: AddressSpace, object_table: ObjectTable) -> None:
        self.space = address_space
        self.table = object_table
        segment = address_space.stack
        self._stack_base = segment.base
        self._stack_end = segment.end
        self._top = segment.base
        self._frames: List[StackFrame] = []
        self._frame_counter = 0
        self.pushes = 0
        self.pops = 0

    # -- frame management ---------------------------------------------------------

    @property
    def depth(self) -> int:
        """Current number of live frames."""
        return len(self._frames)

    def current_frame(self) -> StackFrame:
        """Return the innermost live frame."""
        if not self._frames:
            raise RuntimeError("no live stack frame")
        return self._frames[-1]

    def push_frame(self, function: str) -> StackFrame:
        """Enter a function: reserve a frame with a saved return address slot."""
        self._frame_counter += 1
        frame = StackFrame(function=function, base=self._top, cursor=self._top)
        self._frames.append(frame)
        self.pushes += 1
        return frame

    def alloc_local(self, name: str, size: int) -> DataUnit:
        """Allocate a local buffer/variable in the current frame.

        The memory is not cleared: stale bytes from earlier frames remain
        visible, as on a real stack.
        """
        if size <= 0:
            raise ValueError("local size must be positive")
        frame = self.current_frame()
        if frame.return_slot_addr:
            raise RuntimeError(
                f"cannot allocate local {name!r} after the frame of {frame.function!r} "
                "was sealed"
            )
        base = frame.cursor
        if base + size > self._stack_end:
            raise SegmentationFault(base, "stack overflow (out of simulated stack)")
        unit = make_unit(name=name, base=base, size=size, kind=UnitKind.STACK,
                         owner=frame.function, serial=self.table.next_serial())
        self.table.register(unit)
        frame.locals.append(unit)
        frame.cursor = base + size
        return unit

    def seal_frame(self) -> None:
        """Finish laying out the frame: place the saved return address slot.

        Server code calls this after declaring its locals (the analogue of the
        compiler emitting the function prologue).  Any unchecked write that
        runs forward out of the last local lands on this slot.
        """
        frame = self.current_frame()
        if frame.return_slot_addr:
            return
        slot_addr = frame.cursor
        if slot_addr + RETURN_SLOT_SIZE > self._stack_end:
            raise SegmentationFault(slot_addr, "stack overflow placing return slot")
        saved = 0x00400000 + self._frame_counter * 0x10  # synthetic text address
        self.space.write(slot_addr, _RETURN_STRUCT.pack(saved))
        frame.return_slot_addr = slot_addr
        frame.saved_return_value = saved
        frame.cursor = slot_addr + RETURN_SLOT_SIZE
        self._top = frame.cursor

    def pop_frame(self) -> None:
        """Leave a function, verifying the saved return address.

        Raises
        ------
        ControlFlowHijack
            If the slot was overwritten with attacker-marked bytes.
        SegmentationFault
            If the slot was otherwise corrupted (a wild jump / crash).
        """
        frame = self.current_frame()
        hijack: Optional[BaseException] = None
        if frame.return_slot_addr:
            raw = self.space.read(frame.return_slot_addr, RETURN_SLOT_SIZE)
            (value,) = _RETURN_STRUCT.unpack(raw)
            if value != frame.saved_return_value:
                if any(marker in raw for marker in ATTACK_MARKERS):
                    hijack = ControlFlowHijack(value, payload_tag=raw.hex())
                else:
                    hijack = SegmentationFault(
                        value, f"return to corrupted address {value:#x}"
                    )
        for unit in frame.locals:
            if unit.alive:
                self.table.unregister(unit)
        self._frames.pop()
        self._top = frame.base
        self.pops += 1
        if hijack is not None:
            raise hijack

    # -- checkpoint / restore -----------------------------------------------------

    def checkpoint(self) -> CallStackCheckpoint:
        """Snapshot the live frames (locals by base address) and counters."""
        return CallStackCheckpoint(
            top=self._top,
            frames=tuple(
                FrameCheckpoint(
                    function=frame.function,
                    base=frame.base,
                    return_slot_addr=frame.return_slot_addr,
                    saved_return_value=frame.saved_return_value,
                    cursor=frame.cursor,
                    local_bases=tuple(unit.base for unit in frame.locals),
                )
                for frame in self._frames
            ),
            frame_counter=self._frame_counter,
            pushes=self.pushes,
            pops=self.pops,
        )

    def restore(self, cp: CallStackCheckpoint, units_by_base: Dict[int, DataUnit]) -> None:
        """Rebuild the frame list from a checkpoint.

        ``units_by_base`` maps live-unit bases to the objects rebuilt by the
        object table's restore, so frames and table agree on identity.  The
        frame counter is restored too: the synthetic return addresses sealed
        into post-restore frames match a from-scratch reboot's exactly.
        """
        self._frames = [
            StackFrame(
                function=frame.function,
                base=frame.base,
                return_slot_addr=frame.return_slot_addr,
                saved_return_value=frame.saved_return_value,
                cursor=frame.cursor,
                locals=[units_by_base[base] for base in frame.local_bases],
            )
            for frame in cp.frames
        ]
        self._top = cp.top
        self._frame_counter = cp.frame_counter
        self.pushes = cp.pushes
        self.pops = cp.pops
