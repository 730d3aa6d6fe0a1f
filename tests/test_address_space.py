"""Tests for the simulated address space."""

import pytest

from repro.errors import SegmentationFault
from repro.memory.address_space import (
    AddressSpace,
    GLOBALS_BASE,
    HEAP_BASE,
    STACK_BASE,
)


class TestSegments:
    def test_standard_segments_exist(self):
        space = AddressSpace()
        assert {segment.name for segment in space.segments()} == {"globals", "heap", "stack"}

    def test_segment_bases(self):
        space = AddressSpace()
        assert space.globals.base == GLOBALS_BASE
        assert space.heap.base == HEAP_BASE
        assert space.stack.base == STACK_BASE

    def test_map_segment_rejects_overlap(self):
        space = AddressSpace()
        with pytest.raises(ValueError):
            space.map_segment("evil", HEAP_BASE + 10, 100)

    def test_map_segment_rejects_zero_size(self):
        space = AddressSpace()
        with pytest.raises(ValueError):
            space.map_segment("empty", 0x9000_0000, 0)

    def test_custom_segment_is_usable(self):
        space = AddressSpace()
        segment = space.map_segment("mmap", 0x9000_0000, 64)
        space.write(segment.base, b"hello")
        assert space.read(segment.base, 5) == b"hello"

    def test_find_segment(self):
        space = AddressSpace()
        assert space.find_segment(HEAP_BASE).name == "heap"
        assert space.find_segment(0x0) is None

    def test_is_mapped_range_spanning_end(self):
        space = AddressSpace(heap_size=64)
        assert space.is_mapped(HEAP_BASE, 64)
        assert not space.is_mapped(HEAP_BASE, 65)


class TestRawAccess:
    def test_write_then_read(self):
        space = AddressSpace()
        space.write(HEAP_BASE + 100, b"data")
        assert space.read(HEAP_BASE + 100, 4) == b"data"

    def test_read_unmapped_faults(self):
        space = AddressSpace()
        with pytest.raises(SegmentationFault):
            space.read(0x1234, 1)

    def test_write_unmapped_faults(self):
        space = AddressSpace()
        with pytest.raises(SegmentationFault):
            space.write(0x1234, b"x")

    def test_write_past_segment_end_faults(self):
        space = AddressSpace(heap_size=32)
        with pytest.raises(SegmentationFault):
            space.write(HEAP_BASE + 30, b"abcdef")

    def test_fault_records_address(self):
        space = AddressSpace()
        with pytest.raises(SegmentationFault) as excinfo:
            space.read_byte(0x42)
        assert excinfo.value.address == 0x42

    def test_byte_helpers(self):
        space = AddressSpace()
        space.write_byte(STACK_BASE + 5, 0xAB)
        assert space.read_byte(STACK_BASE + 5) == 0xAB

    def test_byte_fast_path_crosses_segments(self):
        space = AddressSpace()
        space.write_byte(HEAP_BASE, 1)
        space.write_byte(STACK_BASE, 2)
        assert space.read_byte(HEAP_BASE) == 1
        assert space.read_byte(STACK_BASE) == 2

    def test_byte_fast_path_faults_on_unmapped(self):
        space = AddressSpace()
        space.read_byte(HEAP_BASE)
        with pytest.raises(SegmentationFault):
            space.read_byte(0x50)
        with pytest.raises(SegmentationFault):
            space.write_byte(0x50, 1)

    def test_fill(self):
        space = AddressSpace()
        space.fill(HEAP_BASE, 0x7F, 16)
        assert space.read(HEAP_BASE, 16) == b"\x7f" * 16

    def test_zero_length_read_and_write(self):
        space = AddressSpace()
        assert space.read(HEAP_BASE, 0) == b""
        space.write(HEAP_BASE, b"")  # no-op, must not fault

    def test_negative_length_rejected(self):
        space = AddressSpace()
        with pytest.raises(ValueError):
            space.read(HEAP_BASE, -1)

    def test_raw_access_counters(self):
        space = AddressSpace()
        space.write(HEAP_BASE, b"abcd")
        space.read(HEAP_BASE, 4)
        assert space.raw_writes >= 4
        assert space.raw_reads >= 4

    def test_memory_initially_zeroed(self):
        space = AddressSpace()
        assert space.read(HEAP_BASE, 64) == b"\x00" * 64


class TestReadView:
    def test_view_matches_read_and_is_readonly(self):
        space = AddressSpace()
        space.write(HEAP_BASE + 8, b"payload")
        view = space.read_view(HEAP_BASE + 8, 7)
        assert isinstance(view, memoryview)
        assert view == b"payload"
        assert view.readonly
        with pytest.raises(TypeError):
            view[0] = 0

    def test_view_aliases_live_memory(self):
        space = AddressSpace()
        space.write(HEAP_BASE, b"before")
        view = space.read_view(HEAP_BASE, 6)
        space.write(HEAP_BASE, b"after!")
        assert bytes(view) == b"after!"

    def test_view_charges_raw_reads(self):
        space = AddressSpace()
        before = space.raw_reads
        space.read_view(HEAP_BASE, 32)
        assert space.raw_reads == before + 32

    def test_view_faults_like_read(self):
        space = AddressSpace(heap_size=64)
        with pytest.raises(SegmentationFault):
            space.read_view(HEAP_BASE, 65)
        with pytest.raises(ValueError):
            space.read_view(HEAP_BASE, -1)


class TestTouchedBlockRestore:
    def test_checkpoint_records_touched_blocks(self):
        space = AddressSpace()
        space.write(HEAP_BASE, b"x")
        space.write(HEAP_BASE + 5000, b"y")
        cp = space.checkpoint()
        touched = dict(cp.touched_blocks)
        assert touched["heap"] == (0, 1)

    def test_clone_into_fresh_space_is_sparse_and_exact(self):
        parent = AddressSpace()
        parent.write(HEAP_BASE + 123, b"template state")
        parent.write(STACK_BASE + 9000, b"frame")
        cp = parent.checkpoint()

        clone = AddressSpace()
        clone.restore(cp)
        assert clone.read(HEAP_BASE + 123, 14) == b"template state"
        assert clone.read(STACK_BASE + 9000, 5) == b"frame"
        # The clone's full contents equal the checkpoint's, including the
        # untouched (skipped) blocks.
        for name, _base, contents in cp.segments:
            assert bytes(clone.segment(name).data) == bytes(contents)

    def test_clone_overwrites_its_own_prior_writes(self):
        cp = AddressSpace().checkpoint()
        dirty_space = AddressSpace()
        # Writes in blocks the checkpoint never touched must still be undone.
        dirty_space.write(HEAP_BASE + 100_000, b"stale garbage")
        dirty_space.restore(cp)
        assert dirty_space.read(HEAP_BASE + 100_000, 13) == b"\x00" * 13

    def test_restore_sequence_across_checkpoints(self):
        space = AddressSpace()
        space.write(HEAP_BASE, b"AAAA")
        cp_a = space.checkpoint()
        space.write(HEAP_BASE + 8192, b"BBBB")
        space.checkpoint()  # cp_b; epoch now differs from cp_a
        space.restore(cp_a)  # cross-epoch restore takes the sparse path
        assert space.read(HEAP_BASE, 4) == b"AAAA"
        assert space.read(HEAP_BASE + 8192, 4) == b"\x00" * 4
