"""Tests for the C string routines over simulated memory."""

import pytest

from repro.errors import BoundsCheckViolation, InfiniteLoopGuard
from repro.memory import cstring


class TestStrlenStrcpy:
    def test_strlen(self, fo_ctx):
        s = fo_ctx.alloc_c_string(b"hello")
        assert cstring.strlen(fo_ctx.mem, s) == 5

    def test_strlen_empty(self, fo_ctx):
        s = fo_ctx.alloc_c_string(b"")
        assert cstring.strlen(fo_ctx.mem, s) == 0

    def test_strlen_guard_fires_before_scanning_forever(self, fo_ctx):
        s = fo_ctx.alloc_c_string(b"a" * 32)
        with pytest.raises(InfiniteLoopGuard):
            cstring.strlen(fo_ctx.mem, s, limit=8)

    def test_strcpy(self, fo_ctx):
        src = fo_ctx.alloc_c_string(b"copy me")
        dst = fo_ctx.malloc(16)
        cstring.strcpy(fo_ctx.mem, dst, src)
        assert fo_ctx.read_c_string(dst) == b"copy me"

    def test_strcpy_overflow_is_policy_governed(self, bc_ctx):
        src = bc_ctx.alloc_c_string(b"this string is too long")
        dst = bc_ctx.malloc(4)
        with pytest.raises(BoundsCheckViolation):
            cstring.strcpy(bc_ctx.mem, dst, src)

    def test_strcpy_overflow_truncated_under_fo(self, fo_ctx):
        src = fo_ctx.alloc_c_string(b"this string is too long")
        dst = fo_ctx.malloc(4)
        cstring.strcpy(fo_ctx.mem, dst, src)
        assert fo_ctx.mem.read(dst, 4) == b"this"
        assert fo_ctx.error_log.count_writes() > 0

    def test_strncpy_pads_with_nul(self, fo_ctx):
        src = fo_ctx.alloc_c_string(b"ab")
        dst = fo_ctx.malloc(8)
        fo_ctx.mem.write(dst, b"XXXXXXXX")
        cstring.strncpy(fo_ctx.mem, dst, src, 6)
        assert fo_ctx.mem.read(dst, 6) == b"ab\x00\x00\x00\x00"

    def test_strncpy_respects_limit(self, fo_ctx):
        src = fo_ctx.alloc_c_string(b"abcdef")
        dst = fo_ctx.malloc(8)
        cstring.strncpy(fo_ctx.mem, dst, src, 3)
        assert fo_ctx.mem.read(dst, 3) == b"abc"


class TestStrcatStrchrStrcmp:
    def test_strcat_appends(self, fo_ctx):
        dst = fo_ctx.malloc(32)
        fo_ctx.mem.write(dst, b"foo\x00")
        src = fo_ctx.alloc_c_string(b"bar")
        cstring.strcat(fo_ctx.mem, dst, src)
        assert fo_ctx.read_c_string(dst) == b"foobar"

    def test_strcat_accumulates_like_midnight_commander(self, fo_ctx):
        dst = fo_ctx.malloc(64)
        fo_ctx.mem.write_byte(dst, 0)
        for piece in (b"/usr", b"/lib", b"/x"):
            cstring.strcat(fo_ctx.mem, dst, fo_ctx.alloc_c_string(piece))
        assert fo_ctx.read_c_string(dst) == b"/usr/lib/x"

    def test_strchr_found(self, fo_ctx):
        s = fo_ctx.alloc_c_string(b"path/to/file")
        ptr = cstring.strchr(fo_ctx.mem, s, ord("/"))
        assert ptr is not None and ptr - s == 4

    def test_strchr_not_found_returns_none(self, fo_ctx):
        s = fo_ctx.alloc_c_string(b"nope")
        assert cstring.strchr(fo_ctx.mem, s, ord("/")) is None

    def test_strcmp_equal_and_ordering(self, fo_ctx):
        a = fo_ctx.alloc_c_string(b"abc")
        b = fo_ctx.alloc_c_string(b"abc")
        c = fo_ctx.alloc_c_string(b"abd")
        assert cstring.strcmp(fo_ctx.mem, a, b) == 0
        assert cstring.strcmp(fo_ctx.mem, a, c) == -1
        assert cstring.strcmp(fo_ctx.mem, c, a) == 1


class TestMemOps:
    def test_memcpy(self, fo_ctx):
        src = fo_ctx.malloc(16)
        dst = fo_ctx.malloc(16)
        fo_ctx.mem.write(src, b"0123456789abcdef")
        cstring.memcpy(fo_ctx.mem, dst, src, 16)
        assert fo_ctx.mem.read(dst, 16) == b"0123456789abcdef"

    def test_memset(self, fo_ctx):
        dst = fo_ctx.malloc(8)
        cstring.memset(fo_ctx.mem, dst, 0x55, 8)
        assert fo_ctx.mem.read(dst, 8) == b"\x55" * 8

    def test_memcpy_overflow_discarded_under_fo(self, fo_ctx):
        src = fo_ctx.malloc(16)
        dst = fo_ctx.malloc(8)
        fo_ctx.mem.write(src, b"0123456789abcdef")
        cstring.memcpy(fo_ctx.mem, dst, src, 16)
        assert fo_ctx.mem.read(dst, 8) == b"01234567"
        assert fo_ctx.error_log.count_writes() == 1

    def test_write_and_read_c_string_round_trip(self, fo_ctx):
        buf = fo_ctx.malloc(32)
        cstring.write_c_string(fo_ctx.mem, buf, b"round trip")
        assert cstring.read_c_string(fo_ctx.mem, buf) == b"round trip"

