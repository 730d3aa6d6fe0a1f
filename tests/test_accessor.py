"""Tests for the policy-mediated memory accessor — the heart of the mechanism."""

import pytest

from repro.core.policies import (
    BoundlessPolicy,
    RedirectPolicy,
)
from repro.errors import BoundsCheckViolation, ErrorKind, SegmentationFault, UseAfterFree
from repro.memory.context import MemoryContext
from repro.memory.pointer import FatPointer


class TestInBoundsAccess:
    def test_round_trip(self, fo_ctx):
        buf = fo_ctx.malloc(16)
        fo_ctx.mem.write(buf, b"hello world")
        assert fo_ctx.mem.read(buf, 11) == b"hello world"

    def test_round_trip_is_policy_independent(self, any_policy_name):
        from tests.conftest import POLICY_CLASSES

        ctx = MemoryContext(POLICY_CLASSES[any_policy_name]())
        buf = ctx.malloc(16)
        ctx.mem.write(buf + 4, b"abcd")
        assert ctx.mem.read(buf + 4, 4) == b"abcd"

    def test_byte_helpers(self, fo_ctx):
        buf = fo_ctx.malloc(8)
        fo_ctx.mem.write_byte(buf + 3, 0x7E)
        assert fo_ctx.mem.read_byte(buf + 3) == 0x7E

    def test_int_helpers_signed(self, fo_ctx):
        buf = fo_ctx.malloc(8)
        fo_ctx.mem.write_int(buf, -12345, size=4)
        assert fo_ctx.mem.read_int(buf, size=4, signed=True) == -12345

    def test_int_helpers_unsigned(self, fo_ctx):
        buf = fo_ctx.malloc(8)
        fo_ctx.mem.write_int(buf, 0xDEADBEEF, size=4, signed=False)
        assert fo_ctx.mem.read_int(buf, size=4, signed=False) == 0xDEADBEEF

    def test_zero_length_operations(self, fo_ctx):
        buf = fo_ctx.malloc(4)
        assert fo_ctx.mem.read(buf, 0) == b""
        fo_ctx.mem.write(buf, b"")

    def test_zero_unit(self, fo_ctx):
        buf = fo_ctx.malloc(8)
        fo_ctx.mem.write(buf, b"12345678")
        fo_ctx.mem.zero_unit(buf.referent)
        assert fo_ctx.mem.read(buf, 8) == b"\x00" * 8


class TestFailureObliviousSemantics:
    def test_out_of_bounds_write_discarded(self, fo_ctx):
        buf = fo_ctx.malloc(8)
        neighbour = fo_ctx.malloc(8)
        fo_ctx.mem.write(neighbour, b"AAAAAAAA")
        fo_ctx.mem.write(buf + 8, b"ZZZZ")
        assert fo_ctx.mem.read(neighbour, 8) == b"AAAAAAAA"

    def test_partial_overflow_writes_in_bounds_prefix(self, fo_ctx):
        buf = fo_ctx.malloc(8)
        fo_ctx.mem.write(buf + 4, b"abcdefgh")
        assert fo_ctx.mem.read(buf + 4, 4) == b"abcd"

    def test_out_of_bounds_read_manufactures_paper_sequence(self, fo_ctx):
        buf = fo_ctx.malloc(8)
        assert fo_ctx.mem.read(buf + 8, 3) == bytes([0, 1, 2])

    def test_partial_out_of_bounds_read_mixes_real_and_manufactured(self, fo_ctx):
        buf = fo_ctx.malloc(8)
        fo_ctx.mem.write(buf, b"ABCDEFGH")
        data = fo_ctx.mem.read(buf + 6, 4)
        assert data[:2] == b"GH"
        assert data[2:] == bytes([0, 1])

    def test_negative_offset_write_discarded(self, fo_ctx):
        buf = fo_ctx.malloc(8)
        fo_ctx.mem.write(buf - 4, b"XY")
        assert len(fo_ctx.error_log) == 1

    def test_null_pointer_read_manufactured(self, fo_ctx):
        value = fo_ctx.mem.read(FatPointer.null(), 2)
        assert len(value) == 2
        assert fo_ctx.error_log.events()[0].kind is ErrorKind.NULL_DEREF

    def test_use_after_free_read_manufactured(self, fo_ctx):
        buf = fo_ctx.malloc(8)
        fo_ctx.free(buf)
        fo_ctx.mem.read(buf, 4)
        assert fo_ctx.error_log.events()[0].kind is ErrorKind.USE_AFTER_FREE

    def test_error_events_carry_site_and_request(self, fo_ctx):
        buf = fo_ctx.malloc(8)
        fo_ctx.set_site("test.site")
        fo_ctx.set_request(42)
        fo_ctx.mem.write(buf + 9, b"x")
        event = fo_ctx.error_log.events()[0]
        assert event.site == "test.site"
        assert event.request_id == 42

    def test_byte_fastpath_oob_write_discarded(self, fo_ctx):
        buf = fo_ctx.malloc(8)
        other = fo_ctx.malloc(8)
        fo_ctx.mem.write_byte(buf + 8, 0x41)
        assert fo_ctx.mem.read_byte(other) != 0x41 or len(fo_ctx.error_log) == 1

    def test_byte_fastpath_oob_read_manufactured(self, fo_ctx):
        buf = fo_ctx.malloc(8)
        assert fo_ctx.mem.read_byte(buf + 100) in range(256)
        assert len(fo_ctx.error_log) == 1

    def test_checks_counted(self, fo_ctx):
        buf = fo_ctx.malloc(8)
        before = fo_ctx.policy.stats.checks_performed
        fo_ctx.mem.read(buf, 4)
        fo_ctx.mem.write(buf, b"ab")
        assert fo_ctx.policy.stats.checks_performed == before + 2


class TestBoundsCheckSemantics:
    def test_oob_write_raises(self, bc_ctx):
        buf = bc_ctx.malloc(8)
        with pytest.raises(BoundsCheckViolation):
            bc_ctx.mem.write(buf + 8, b"x")

    def test_oob_read_raises(self, bc_ctx):
        buf = bc_ctx.malloc(8)
        with pytest.raises(BoundsCheckViolation):
            bc_ctx.mem.read(buf + 20, 1)

    def test_partial_overflow_still_raises(self, bc_ctx):
        buf = bc_ctx.malloc(8)
        with pytest.raises(BoundsCheckViolation):
            bc_ctx.mem.write(buf + 4, b"abcdefgh")

    def test_use_after_free_raises(self, bc_ctx):
        buf = bc_ctx.malloc(8)
        bc_ctx.free(buf)
        with pytest.raises(UseAfterFree):
            bc_ctx.mem.read_byte(buf)

    def test_in_bounds_does_not_raise(self, bc_ctx):
        buf = bc_ctx.malloc(8)
        bc_ctx.mem.write(buf, b"12345678")
        assert bc_ctx.mem.read(buf, 8) == b"12345678"


class TestStandardSemantics:
    def test_oob_write_corrupts_neighbouring_allocation(self, std_ctx):
        buf = std_ctx.malloc(8)
        neighbour = std_ctx.malloc(8)
        std_ctx.mem.write(neighbour, b"AAAAAAAA")
        distance = neighbour.address - buf.address
        std_ctx.mem.write(buf + distance, b"ZZZZ")
        assert std_ctx.mem.read(neighbour, 4) == b"ZZZZ"

    def test_far_oob_write_faults(self, std_ctx):
        buf = std_ctx.malloc(8)
        with pytest.raises(SegmentationFault):
            std_ctx.mem.write(buf + 100 * 1024 * 1024, b"x")

    def test_no_checks_counted(self, std_ctx):
        buf = std_ctx.malloc(8)
        std_ctx.mem.read(buf, 4)
        assert std_ctx.policy.stats.checks_performed == 0

    def test_no_events_logged_for_silent_corruption(self, std_ctx):
        buf = std_ctx.malloc(8)
        std_ctx.malloc(8)
        std_ctx.mem.write(buf + 8, b"Z")
        assert len(std_ctx.error_log) == 0


class TestVariantSemantics:
    def test_boundless_out_of_bounds_round_trip(self):
        ctx = MemoryContext(BoundlessPolicy())
        buf = ctx.malloc(8)
        ctx.mem.write(buf + 20, b"remember me")
        assert ctx.mem.read(buf + 20, 11) == b"remember me"

    def test_boundless_does_not_corrupt_neighbours(self):
        ctx = MemoryContext(BoundlessPolicy())
        buf = ctx.malloc(8)
        neighbour = ctx.malloc(8)
        ctx.mem.write(neighbour, b"BBBBBBBB")
        ctx.mem.write(buf + (neighbour.address - buf.address), b"XXXX")
        assert ctx.mem.read(neighbour, 8) == b"BBBBBBBB"

    def test_redirect_wraps_into_unit(self):
        ctx = MemoryContext(RedirectPolicy())
        buf = ctx.malloc(8)
        ctx.mem.write(buf, b"01234567")
        ctx.mem.write_byte(buf + 9, ord("Z"))
        assert ctx.mem.read_byte(buf + 1) == ord("Z")

    def test_redirect_read_wraps(self):
        ctx = MemoryContext(RedirectPolicy())
        buf = ctx.malloc(8)
        ctx.mem.write(buf, b"01234567")
        assert ctx.mem.read_byte(buf + 8) == ord("0")


class TestDecisionCache:
    """The per-accessor referent cache: hits skip the table bisect but keep
    every observable counter — and the cache can never outlive its unit."""

    def test_repeat_access_charges_one_check_and_lookup_each(self, fo_ctx):
        buf = fo_ctx.malloc(16)
        fo_ctx.mem.read(buf, 4)  # fill the cache
        assert fo_ctx.mem._cached_unit is buf.referent
        lookups_before = fo_ctx.table.lookups
        checks_before = fo_ctx.policy.stats.checks_performed
        fo_ctx.mem.read(buf, 4)
        fo_ctx.mem.write(buf + 8, b"zz")
        fo_ctx.mem.read_byte(buf + 1)
        fo_ctx.mem.write_byte(buf + 2, 7)
        # One check and one lookup per access, exactly as without the cache.
        assert fo_ctx.policy.stats.checks_performed == checks_before + 4
        assert fo_ctx.table.lookups == lookups_before + 4

    def test_cache_hit_still_detects_out_of_bounds(self, fo_ctx):
        buf = fo_ctx.malloc(8)
        fo_ctx.mem.write(buf, b"x")  # cache the unit
        neighbour = fo_ctx.malloc(8)
        canary = b"CANARY!!"
        fo_ctx.mem.write(neighbour, canary)
        fo_ctx.mem.write(buf + 8, b"overflow")  # cached unit, invalid offset
        assert fo_ctx.mem.read(neighbour, 8) == canary
        assert fo_ctx.error_log.total_recorded > 0

    def test_free_evicts_the_cached_unit(self, fo_ctx):
        buf = fo_ctx.malloc(8)
        fo_ctx.mem.write(buf, b"live")
        fo_ctx.free(buf)
        # A use-after-free must be classified as such, not served from cache.
        fo_ctx.mem.write(buf, b"dead")
        events = list(fo_ctx.error_log.events())
        assert events and events[-1].kind is ErrorKind.USE_AFTER_FREE

    def test_restore_invalidates_the_cache(self, fo_ctx):
        buf = fo_ctx.malloc(8)
        fo_ctx.mem.write(buf, b"pre")
        image = fo_ctx.checkpoint()
        fo_ctx.mem.write(buf, b"mid")
        fo_ctx.restore(image)
        assert fo_ctx.mem._cached_unit is None
        # Accesses after the restore behave exactly like a cold accessor.
        assert fo_ctx.mem.read(buf, 3) == b"pre"

    def test_cache_disabled_context_never_caches(self):
        from repro.core.policies import FailureObliviousPolicy

        ctx = MemoryContext(FailureObliviousPolicy(), decision_cache=False)
        buf = ctx.malloc(8)
        ctx.mem.write(buf, b"a")
        ctx.mem.read(buf, 1)
        assert ctx.mem._cached_unit is None

    def test_standard_policy_does_not_cache(self):
        from repro.core.policies import StandardPolicy

        ctx = MemoryContext(StandardPolicy())
        buf = ctx.malloc(8)
        ctx.mem.write(buf, b"a")
        assert ctx.mem._cached_unit is None
