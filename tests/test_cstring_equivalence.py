"""Equivalence of the span-based fast paths with per-byte references.

The fast paths in :mod:`repro.memory.cstring` and the accessor's span helpers
— including the batched out-of-bounds continuation, which hands a whole
invalid run to the policy in one call — must be observably identical to the
byte-at-a-time loops they replaced, under every policy, for everything a
program (or the paper's evaluation) can see: returned values, the final
memory image, the error-log event stream and every aggregate query over it,
the policy's continuation statistics, and the manufactured-value sequence's
consumption.  The single intentional exception is ``checks_performed``, which
counts one check per span/run rather than per byte (see README
"Performance").

Each property builds two identically laid-out contexts, runs the reference
byte loop on one and the shipped fast path on the other, and compares.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import MemoryFault
from repro.memory import cstring
from repro.memory.context import MemoryContext
from repro.memory.pointer import FatPointer
from repro.telemetry.sinks import CounterSink
from tests.conftest import POLICY_CLASSES
from tests.reference_cstring import (
    ref_read_c_string,
    ref_strchr,
    ref_strcmp,
    ref_strcpy,
    ref_strlen,
    ref_strncpy,
)

POLICY_NAMES = sorted(POLICY_CLASSES)


# -- comparison plumbing -------------------------------------------------------


def _normalize_event(event):
    """Comparable identity of one error-log event across twin contexts.

    The unit *serial* differs between contexts (it is a global counter), so
    the unit is identified by its base name + size instead.
    """
    return (
        event.kind, event.access, event.offset, event.length, event.site,
        event.unit_name.split("#")[0], event.unit_size,
    )


def _observe(ctx, outcome):
    """Everything a program can observe after one cstring call.

    ``checks_performed`` is deliberately excluded: the fast path pays one
    check per span (and, since the batched continuation, one per invalid
    run) instead of per byte, which is the documented invariant change.
    """
    stats = ctx.policy.stats.as_dict()
    stats.pop("checks_performed")
    log = ctx.error_log
    sequence = getattr(ctx.policy, "sequence", None)
    counters = ctx.observed_counters
    return {
        "outcome": outcome,
        "heap": bytes(ctx.space.heap.data),
        "events": [_normalize_event(event) for event in log.events()],
        "stats": stats,
        # The full §3 error-log query surface: aggregate answers must not
        # depend on whether the stream was recorded per byte or as runs.
        "log_total": log.total_recorded,
        "log_dropped": log.dropped,
        "log_by_site": log.count_by_site(),
        "log_by_kind": log.count_by_kind(),
        "log_reads": log.count_reads(),
        "log_writes": log.count_writes(),
        "log_top_sites": log.most_common_sites(3),
        "log_tail": [_normalize_event(event) for event in log.tail(4)],
        "log_summary": log.summary(),
        # Stream-level aggregates (what a trace summary reports): the
        # CounterSink weighs run records by their count, so these equal the
        # per-byte stream's aggregates field for field.
        "counters": {
            "by_type": counters.by_type,
            "invalid_total": counters.invalid_total,
            "invalid_by_site": counters.invalid_by_site,
            "invalid_by_kind": counters.invalid_by_kind,
            "invalid_by_access": counters.invalid_by_access,
            "manufactured_bytes": counters.manufactured_bytes,
            "discarded_bytes": counters.discarded_bytes,
            "stored_bytes": counters.stored_bytes,
            "redirected_accesses": counters.redirected_accesses,
        },
        # Manufactured-value consumption: identical counts plus identical
        # returned bytes pin down identical consumption order.
        "sequence_produced": sequence.produced if sequence is not None else None,
    }


def _normalize(value, base_ptr):
    """Make return values comparable across twin contexts."""
    if isinstance(value, FatPointer):
        # Pointers from different contexts never compare equal; the offset
        # from the argument pointer is the meaningful identity.
        return ("ptr", value.address - base_ptr.address)
    return value


def _run_twin(policy_name, setup, reference_op, fast_op):
    """Run reference and fast implementations on twin contexts and compare.

    ``SCAN_LIMIT`` is shrunk for the duration: runaway scans (overlapping
    self-propagating copies, unterminated buffers under the Standard build)
    otherwise walk the per-byte reference through up to a mebibyte of heap
    per example.  Both implementations read the module global at call time,
    so the guard fires identically.
    """
    observations = []
    original_limit = cstring.SCAN_LIMIT
    cstring.SCAN_LIMIT = 2048
    try:
        for operation in (reference_op, fast_op):
            # Small segments: the default 4 MiB heap makes per-example
            # snapshots the dominant cost of the whole suite.
            ctx = MemoryContext(POLICY_CLASSES[policy_name](),
                                heap_size=32 * 1024, stack_size=8 * 1024,
                                globals_size=4 * 1024)
            ctx.observed_counters = ctx.bus.attach(CounterSink())
            pointers = setup(ctx)
            ctx.observed_counters.clear()  # setup allocations are not under test
            try:
                outcome = ("ok", _normalize(operation(ctx.mem, *pointers), pointers[0]))
            except MemoryFault as fault:
                # The fault address pins where the access stopped (Standard's
                # segmentation faults carry one; checking builds' faults do not).
                outcome = ("fault", type(fault).__name__, getattr(fault, "address", None))
            observations.append(_observe(ctx, outcome))
    finally:
        cstring.SCAN_LIMIT = original_limit
    reference, fast = observations
    assert fast == reference


# -- strategies ----------------------------------------------------------------

policies = st.sampled_from(POLICY_NAMES)
text = st.binary(min_size=0, max_size=48).map(lambda b: b.replace(b"\x00", b"\x01"))
sizes = st.integers(min_value=1, max_value=64)
COMMON_SETTINGS = dict(max_examples=40, deadline=None)


class TestStrcpyFamily:
    @settings(**COMMON_SETTINGS)
    @given(policy=policies, payload=text, dst_size=sizes)
    def test_strcpy_including_partial_overflow(self, policy, payload, dst_size):
        """dst smaller than src straddles the unit boundary mid-copy."""

        def setup(ctx):
            src = ctx.alloc_c_string(payload)
            dst = ctx.malloc(dst_size)
            return dst, src

        _run_twin(policy, setup, ref_strcpy, cstring.strcpy)

    @settings(**COMMON_SETTINGS)
    @given(policy=policies, payload=text, dst_size=sizes,
           n=st.integers(min_value=0, max_value=96))
    def test_strncpy_with_nul_padding(self, policy, payload, dst_size, n):
        def setup(ctx):
            src = ctx.alloc_c_string(payload)
            dst = ctx.malloc(dst_size)
            return dst, src

        _run_twin(policy, setup,
                  lambda mem, d, s: ref_strncpy(mem, d, s, n),
                  lambda mem, d, s: cstring.strncpy(mem, d, s, n))

    @settings(**COMMON_SETTINGS)
    @given(policy=policies, payload=text, delta=st.integers(min_value=-8, max_value=8))
    def test_strcpy_overlapping_regions(self, policy, payload, delta):
        """Overlapping forward copies must self-propagate exactly like C."""

        def setup(ctx):
            buf = ctx.malloc(len(payload) + 24)
            cstring.write_c_string(ctx.mem, buf + max(0, -delta), payload)
            src = buf + max(0, -delta)
            dst = src + delta
            return dst, src

        _run_twin(policy, setup, ref_strcpy, cstring.strcpy)


class TestScanFamily:
    @settings(**COMMON_SETTINGS)
    @given(policy=policies, payload=text, limit=st.integers(min_value=0, max_value=80))
    def test_strlen_with_guard_limits(self, policy, payload, limit):
        def setup(ctx):
            return (ctx.alloc_c_string(payload),)

        _run_twin(policy, setup,
                  lambda mem, s: ref_strlen(mem, s, limit),
                  lambda mem, s: cstring.strlen(mem, s, limit))

    @settings(**COMMON_SETTINGS)
    @given(policy=policies, payload=text, ch=st.integers(min_value=0, max_value=255))
    def test_strchr(self, policy, payload, ch):
        def setup(ctx):
            return (ctx.alloc_c_string(payload),)

        def fast(mem, s):
            found = cstring.strchr(mem, s, ch)
            return None if found is None else found - s

        def reference(mem, s):
            found = ref_strchr(mem, s, ch)
            return None if found is None else found - s

        _run_twin(policy, setup, reference, fast)

    @settings(**COMMON_SETTINGS)
    @given(policy=policies, left=text, right=text)
    def test_strcmp(self, policy, left, right):
        def setup(ctx):
            return ctx.alloc_c_string(left), ctx.alloc_c_string(right)

        _run_twin(policy, setup, ref_strcmp, cstring.strcmp)

    @settings(**COMMON_SETTINGS)
    @given(policy=policies, payload=text, missing_nul=st.booleans(),
           limit=st.integers(min_value=0, max_value=512))
    def test_read_c_string(self, policy, payload, missing_nul, limit):
        """missing_nul plants a buffer with no terminator: the scan runs off
        the unit and the policy decides what happens next.  An explicit limit
        keeps the redirect policy — which wraps the scan back into the
        NUL-free unit forever — bounded."""

        def setup(ctx):
            if missing_nul:
                buf = ctx.malloc(max(1, len(payload)), name="unterminated")
                ctx.mem.write(buf, payload[: max(1, len(payload))] or b"\x01")
                return (buf,)
            return (ctx.alloc_c_string(payload),)

        _run_twin(policy, setup,
                  lambda mem, s: ref_read_c_string(mem, s, limit),
                  lambda mem, s: cstring.read_c_string(mem, s, limit))


class TestRedirectWraparound:
    """Redirect-policy bulk paths against their per-byte definition."""

    @pytest.mark.parametrize("length", [1, 3, 8, 11, 24])
    def test_redirected_read_wraps_like_per_byte(self, length):
        ctx = MemoryContext(POLICY_CLASSES["redirect"]())
        buf = ctx.malloc(8)
        ctx.mem.write(buf, b"01234567")
        data = ctx.mem.read(buf + 9, length)
        expected = bytes(b"01234567"[(9 + i) % 8] for i in range(length))
        assert data == expected

    @pytest.mark.parametrize("length", [1, 3, 8, 11, 24])
    def test_redirected_write_wraps_like_per_byte(self, length):
        reference_ctx = MemoryContext(POLICY_CLASSES["redirect"]())
        fast_ctx = MemoryContext(POLICY_CLASSES["redirect"]())
        payload = bytes((i * 37 + 5) % 256 for i in range(length))
        images = []
        for ctx, bulk in ((reference_ctx, False), (fast_ctx, True)):
            buf = ctx.malloc(8)
            ctx.mem.write(buf, b"01234567")
            if bulk:
                ctx.mem.write(buf + 9, payload)
            else:
                for i, byte in enumerate(payload):
                    ctx.mem.write_byte(buf + 9 + i, byte)
            images.append(ctx.mem.read(buf, 8))
        assert images[0] == images[1]


# -- accessor-level span helpers ------------------------------------------------


def ref_read_span(mem, ptr, n):
    """Per-byte reference for MemoryAccessor.read_span."""
    return bytes(mem.read_byte(ptr + i) for i in range(n))


def ref_write_span(mem, ptr, data):
    """Per-byte reference for MemoryAccessor.write_span."""
    for i in range(len(data)):
        mem.write_byte(ptr + i, data[i])


class TestSpanHelperEquivalence:
    """read_span/write_span with out-of-bounds suffixes, prefixes, and UAF.

    These drive the batched continuation directly: the invalid portion of
    the range reaches the policy as one run, and every observation must
    match the per-byte loops above — including pointers that start below
    their unit (the run re-enters bounds) and dead units.
    """

    @settings(**COMMON_SETTINGS)
    @given(policy=policies, unit_size=sizes,
           start=st.integers(min_value=-24, max_value=80),
           length=st.integers(min_value=1, max_value=96))
    def test_read_span_with_oob_runs(self, policy, unit_size, start, length):
        def setup(ctx):
            base = ctx.malloc(unit_size, name="window")
            ctx.mem.write(base, bytes((i * 7 + 1) % 256 for i in range(unit_size)))
            return (base + start,)

        _run_twin(policy, setup,
                  lambda mem, p: ref_read_span(mem, p, length),
                  lambda mem, p: mem.read_span(p, length))

    @settings(**COMMON_SETTINGS)
    @given(policy=policies, unit_size=sizes,
           start=st.integers(min_value=-24, max_value=80),
           payload=st.binary(min_size=1, max_size=96))
    def test_write_span_with_oob_runs(self, policy, unit_size, start, payload):
        def setup(ctx):
            base = ctx.malloc(unit_size, name="window")
            return (base + start,)

        _run_twin(policy, setup,
                  lambda mem, p: ref_write_span(mem, p, payload),
                  lambda mem, p: mem.write_span(p, payload))

    @settings(**COMMON_SETTINGS)
    @given(policy=policies, unit_size=sizes,
           length=st.integers(min_value=1, max_value=64),
           use_read=st.booleans())
    def test_use_after_free_runs(self, policy, unit_size, length, use_read):
        """The whole range over a dead unit is one use-after-free run."""

        def setup(ctx):
            base = ctx.malloc(unit_size, name="freed")
            ctx.free(base)
            return (base,)

        if use_read:
            _run_twin(policy, setup,
                      lambda mem, p: ref_read_span(mem, p, length),
                      lambda mem, p: mem.read_span(p, length))
        else:
            payload = bytes(range(length % 251, length % 251 + length))[:length] or b"\x01"
            _run_twin(policy, setup,
                      lambda mem, p: ref_write_span(mem, p, payload),
                      lambda mem, p: mem.write_span(p, payload))

    @settings(**COMMON_SETTINGS)
    @given(policy=policies, payload=text, dst_size=sizes,
           terminated=st.booleans())
    def test_read_span_until_crosses_the_boundary(self, policy, payload, dst_size, terminated):
        """read_span_until with a limit past the unit end: the scan either
        finds the NUL in the span or continues through the invalid run via
        the policy's scan hook (falling back per byte where it must)."""

        def setup(ctx):
            buf = ctx.malloc(max(1, dst_size), name="scanbuf")
            stored = payload[:dst_size]
            if stored:
                ctx.mem.write(buf, stored)
            if terminated and len(stored) < dst_size:
                ctx.mem.write_byte(buf + len(stored), 0)
            return (buf,)

        def reference(mem, p):
            # Per-byte model of "read until NUL, limit N": read_byte until a
            # zero appears or the limit is exhausted.
            limit = dst_size + 16
            out = bytearray()
            for i in range(limit):
                byte = mem.read_byte(p + i)
                out.append(byte)
                if byte == 0:
                    return (bytes(out), i)
            return (bytes(out), -1)

        def fast(mem, p):
            limit = dst_size + 16
            out = bytearray()
            pos = 0
            # Mirror the reference loop on top of read_span_until, taking the
            # per-byte path wherever the accessor reports no progress.
            while pos < limit:
                data, index = mem.read_span_until(p + pos, 0, limit - pos)
                if index >= 0:
                    out += data
                    return (bytes(out), pos + index)
                if data:
                    out += data
                    pos += len(data)
                    continue
                byte = mem.read_byte(p + pos)
                out.append(byte)
                if byte == 0:
                    return (bytes(out), pos)
                pos += 1
            return (bytes(out), -1)

        _run_twin(policy, setup, reference, fast)


class TestAttackFloodEquivalence:
    """The headline scenario: a long attack payload overflowing a small buffer.

    The destination leaves its unit early, so nearly every written byte is an
    invalid access — exactly the flood the batched continuation collapses to
    one policy decision per source span.  Everything observable must equal
    the frozen per-byte loops, under every policy.
    """

    @settings(max_examples=20, deadline=None)
    @given(policy=policies,
           dst_size=st.integers(min_value=1, max_value=16),
           flood_len=st.integers(min_value=32, max_value=600))
    def test_strcpy_flood(self, policy, dst_size, flood_len):
        def setup(ctx):
            src = ctx.alloc_c_string(b"A" * flood_len, name="attack")
            dst = ctx.malloc(dst_size, name="victim")
            return dst, src

        _run_twin(policy, setup, ref_strcpy, cstring.strcpy)

    @settings(max_examples=20, deadline=None)
    @given(policy=policies,
           dst_size=st.integers(min_value=1, max_value=16),
           n=st.integers(min_value=32, max_value=300),
           payload_len=st.integers(min_value=0, max_value=80))
    def test_strncpy_flood_with_padding(self, policy, dst_size, n, payload_len):
        """Covers both flood phases: copying past the unit and NUL-padding
        past the unit."""

        def setup(ctx):
            src = ctx.alloc_c_string(b"B" * payload_len, name="attack")
            dst = ctx.malloc(dst_size, name="victim")
            return dst, src

        _run_twin(policy, setup,
                  lambda mem, d, s: ref_strncpy(mem, d, s, n),
                  lambda mem, d, s: cstring.strncpy(mem, d, s, n))

    @settings(max_examples=15, deadline=None)
    @given(policy=policies, flood_len=st.integers(min_value=64, max_value=600))
    def test_boundless_flood_read_back(self, policy, flood_len):
        """After a flood, reading the overflowed range back replays stored
        bytes (boundless) or manufactures (others) identically per byte."""

        def run(mem, dst, src):
            try:
                cstring.strcpy(mem, dst, src)
            except MemoryFault:
                pass
            return mem.read_span(dst, flood_len + 1)

        def run_reference(mem, dst, src):
            try:
                ref_strcpy(mem, dst, src)
            except MemoryFault:
                pass
            return ref_read_span(mem, dst, flood_len + 1)

        def setup(ctx):
            src = ctx.alloc_c_string(b"C" * flood_len, name="attack")
            dst = ctx.malloc(8, name="victim")
            return dst, src

        _run_twin(policy, setup, run_reference, run)


class TestSegmentEndUnderStandard:
    """The unchecked build's span paths stop exactly where the byte loop faults.

    Under Standard a safe span runs to the end of the containing segment and
    the next byte is unmapped.  Each operation here crosses the end of the
    heap segment: it must write (or read) the same in-segment prefix as the
    per-byte reference and then fault at the same address.
    """

    @settings(**COMMON_SETTINGS)
    @given(before_end=st.integers(min_value=1, max_value=40),
           past_end=st.integers(min_value=1, max_value=24),
           operation=st.sampled_from(
               ["write_bytes", "strncpy", "read_span", "read_c_string"]))
    def test_crossing_the_heap_end(self, before_end, past_end, operation):
        length = before_end + past_end
        payload = bytes(1 + i % 255 for i in range(length))

        def setup(ctx):
            src = ctx.alloc_c_string(b"pad", name="short")
            # No checks under Standard: the pointer is just a raw address
            # ``before_end`` bytes short of the segment end.
            tail = src + (ctx.space.heap.end - src.address - before_end)
            ctx.mem.write(tail, b"\x7f" * before_end)  # NUL-free up to the end
            return tail, src

        fast, reference = {
            "write_bytes": (
                lambda mem, d, s: cstring.write_bytes(mem, d, payload),
                lambda mem, d, s: ref_write_span(mem, d, payload)),
            "strncpy": (
                lambda mem, d, s: cstring.strncpy(mem, d, s, length),
                lambda mem, d, s: ref_strncpy(mem, d, s, length)),
            "read_span": (
                lambda mem, d, s: mem.read_span(d, length),
                lambda mem, d, s: ref_read_span(mem, d, length)),
            "read_c_string": (
                lambda mem, d, s: cstring.read_c_string(mem, d),
                lambda mem, d, s: ref_read_c_string(mem, d)),
        }[operation]
        _run_twin("standard", setup, reference, fast)
