"""Tests for the simulated call stack and return-slot corruption detection."""

import pytest

from repro.errors import ControlFlowHijack, SegmentationFault
from repro.memory.address_space import AddressSpace
from repro.memory.object_table import ObjectTable
from repro.memory.stack import CallStack, RETURN_SLOT_SIZE


@pytest.fixture
def stack():
    space = AddressSpace(stack_size=4096)
    table = ObjectTable()
    return space, table, CallStack(space, table)


class TestFrames:
    def test_push_pop(self, stack):
        _, _, call_stack = stack
        call_stack.push_frame("f")
        assert call_stack.depth == 1
        call_stack.pop_frame()
        assert call_stack.depth == 0

    def test_alloc_local_registers_unit(self, stack):
        _, table, call_stack = stack
        call_stack.push_frame("f")
        unit = call_stack.alloc_local("buf", 32)
        assert table.find(unit.base) is unit
        call_stack.pop_frame()
        assert table.find(unit.base) is None
        assert not unit.alive

    def test_locals_are_laid_out_consecutively(self, stack):
        _, _, call_stack = stack
        call_stack.push_frame("f")
        a = call_stack.alloc_local("a", 16)
        b = call_stack.alloc_local("b", 8)
        assert b.base == a.end

    def test_return_slot_placed_after_locals(self, stack):
        _, _, call_stack = stack
        frame = call_stack.push_frame("f")
        buf = call_stack.alloc_local("buf", 16)
        call_stack.seal_frame()
        assert frame.return_slot_addr == buf.end

    def test_cannot_alloc_after_seal(self, stack):
        _, _, call_stack = stack
        call_stack.push_frame("f")
        call_stack.seal_frame()
        with pytest.raises(RuntimeError):
            call_stack.alloc_local("late", 8)

    def test_nested_frames_stack_upwards(self, stack):
        _, _, call_stack = stack
        call_stack.push_frame("outer")
        call_stack.alloc_local("a", 16)
        call_stack.seal_frame()
        inner = call_stack.push_frame("inner")
        b = call_stack.alloc_local("b", 8)
        assert b.base >= inner.base
        call_stack.pop_frame()
        call_stack.pop_frame()

    def test_stack_memory_not_cleared_between_frames(self, stack):
        """Uninitialized locals expose stale data — the Midnight Commander bug."""
        space, _, call_stack = stack
        call_stack.push_frame("first")
        a = call_stack.alloc_local("a", 16)
        space.write(a.base, b"STALESTALESTALE!")
        call_stack.pop_frame()
        call_stack.push_frame("second")
        b = call_stack.alloc_local("b", 16)
        assert space.read(b.base, 16) == b"STALESTALESTALE!"
        call_stack.pop_frame()

    def test_stack_exhaustion(self):
        space = AddressSpace(stack_size=128)
        call_stack = CallStack(space, ObjectTable())
        call_stack.push_frame("f")
        with pytest.raises(SegmentationFault):
            call_stack.alloc_local("huge", 4096)

    def test_current_frame_requires_live_frame(self, stack):
        _, _, call_stack = stack
        with pytest.raises(RuntimeError):
            call_stack.current_frame()

class TestReturnSlotCorruption:
    def test_intact_return_slot_pops_cleanly(self, stack):
        _, _, call_stack = stack
        call_stack.push_frame("f")
        call_stack.alloc_local("buf", 16)
        call_stack.seal_frame()
        call_stack.pop_frame()  # must not raise

    def test_overflow_with_plain_data_causes_segfault(self, stack):
        space, _, call_stack = stack
        call_stack.push_frame("f")
        buf = call_stack.alloc_local("buf", 16)
        call_stack.seal_frame()
        space.write(buf.base, b"\\" * (16 + RETURN_SLOT_SIZE))
        with pytest.raises(SegmentationFault):
            call_stack.pop_frame()

    def test_overflow_with_attack_marker_is_hijack(self, stack):
        space, _, call_stack = stack
        call_stack.push_frame("f")
        buf = call_stack.alloc_local("buf", 16)
        call_stack.seal_frame()
        space.write(buf.base, b"A" * (16 + RETURN_SLOT_SIZE))
        with pytest.raises(ControlFlowHijack):
            call_stack.pop_frame()

    def test_corrupted_frame_still_unwinds(self, stack):
        """Even when pop raises, the frame must be gone so the process can die cleanly."""
        space, _, call_stack = stack
        call_stack.push_frame("f")
        buf = call_stack.alloc_local("buf", 8)
        call_stack.seal_frame()
        space.write(buf.end, b"A" * 8)
        with pytest.raises(ControlFlowHijack):
            call_stack.pop_frame()
        assert call_stack.depth == 0

    def test_unsealed_frame_has_no_return_slot_check(self, stack):
        _, _, call_stack = stack
        call_stack.push_frame("f")
        call_stack.alloc_local("buf", 8)
        call_stack.pop_frame()  # no seal, no check, no exception
