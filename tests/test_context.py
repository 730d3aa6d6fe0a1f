"""Tests for the MemoryContext convenience layer."""

import pytest

from repro.core.policies import FailureObliviousPolicy, StandardPolicy
from repro.errors import ControlFlowHijack, SegmentationFault
from repro.memory.context import MemoryContext


class TestHeapHelpers:
    def test_malloc_returns_base_pointer(self, fo_ctx):
        ptr = fo_ctx.malloc(16, name="thing")
        assert ptr.offset == 0
        assert ptr.referent.name == "thing"

    def test_calloc_zeroes(self, fo_ctx):
        ptr = fo_ctx.calloc(4, 4)
        assert fo_ctx.mem.read(ptr, 16) == b"\x00" * 16

    def test_free_releases(self, fo_ctx):
        ptr = fo_ctx.malloc(8)
        fo_ctx.free(ptr)
        assert not ptr.referent.alive

    def test_realloc_moves_content(self, fo_ctx):
        ptr = fo_ctx.malloc(4)
        fo_ctx.mem.write(ptr, b"abcd")
        bigger = fo_ctx.realloc(ptr, 16)
        assert fo_ctx.mem.read(bigger, 4) == b"abcd"

    def test_realloc_none_allocates(self, fo_ctx):
        ptr = fo_ctx.realloc(None, 8)
        assert ptr.referent.size == 8

    def test_c_string_round_trip(self, fo_ctx):
        ptr = fo_ctx.alloc_c_string(b"hello world")
        assert fo_ctx.read_c_string(ptr) == b"hello world"


class TestStackHelpers:
    def test_stack_frame_context_manager_pops(self, fo_ctx):
        with fo_ctx.stack_frame("f"):
            assert fo_ctx.stack.depth == 1
        assert fo_ctx.stack.depth == 0

    def test_stack_frame_pops_on_exception(self, fo_ctx):
        with pytest.raises(ValueError):
            with fo_ctx.stack_frame("f"):
                raise ValueError("boom")
        assert fo_ctx.stack.depth == 0

    def test_stack_buffer_and_seal(self, fo_ctx):
        with fo_ctx.stack_frame("f"):
            buf = fo_ctx.stack_buffer("local", 32)
            fo_ctx.seal_frame()
            fo_ctx.mem.write(buf, b"x" * 32)
            assert fo_ctx.mem.read(buf, 4) == b"xxxx"

    def test_stack_overflow_standard_vs_oblivious(self):
        std = MemoryContext(StandardPolicy())
        with pytest.raises((SegmentationFault, ControlFlowHijack)):
            with std.stack_frame("victim"):
                buf = std.stack_buffer("buf", 8)
                std.seal_frame()
                std.mem.write(buf, b"A" * 32)
        fo = MemoryContext(FailureObliviousPolicy())
        with fo.stack_frame("victim"):
            buf = fo.stack_buffer("buf", 8)
            fo.seal_frame()
            fo.mem.write(buf, b"A" * 32)  # absorbed; no exception on pop


class TestPolicyPlumbing:
    def test_default_policy_is_failure_oblivious(self):
        ctx = MemoryContext()
        assert ctx.policy.name == "failure-oblivious"

    def test_error_log_property(self, fo_ctx):
        buf = fo_ctx.malloc(4)
        fo_ctx.mem.write(buf + 4, b"x")
        assert len(fo_ctx.error_log) == 1

    def test_check_cost_increases_with_accesses(self, fo_ctx):
        buf = fo_ctx.malloc(4)
        before = fo_ctx.policy.checks_performed
        fo_ctx.mem.read(buf, 4)
        assert fo_ctx.policy.checks_performed == before + 1

    def test_custom_segment_sizes(self):
        ctx = MemoryContext(FailureObliviousPolicy(), heap_size=1 << 16, stack_size=1 << 12)
        assert ctx.space.heap.size == 1 << 16
        assert ctx.space.stack.size == 1 << 12

    def test_exit_unmaps_memory_and_keeps_the_log(self, fo_ctx):
        buf = fo_ctx.malloc(4)
        fo_ctx.mem.write(buf + 4, b"x")
        checks = fo_ctx.policy.checks_performed
        fo_ctx.exit()
        assert fo_ctx.space.segments() == []
        assert len(fo_ctx.error_log) == 1
        assert fo_ctx.policy.checks_performed == checks
        assert fo_ctx.table.find(buf.address) is buf.referent
        with pytest.raises(SegmentationFault):
            fo_ctx.mem.read(buf, 4)
