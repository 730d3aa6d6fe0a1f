"""Property-based tests (hypothesis) for substrate invariants.

The invariants checked here are the ones the paper's mechanism relies on:

* failure-oblivious execution never lets an out-of-bounds access touch any
  byte outside the intended data unit;
* the bounds-check build never silently tolerates an invalid access;
* in-bounds behaviour is identical across all build variants;
* the manufactured value sequence is deterministic and byte-valued;
* the allocator never hands out overlapping data units.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core.manufacture import ManufacturedValueSequence
from repro.core.policies import (
    BoundsCheckPolicy,
    FailureObliviousPolicy,
    StandardPolicy,
)
from repro.errors import BoundsCheckViolation, UseAfterFree
from repro.memory.context import MemoryContext

small_sizes = st.integers(min_value=1, max_value=64)
offsets = st.integers(min_value=-32, max_value=160)
payloads = st.binary(min_size=1, max_size=64)


class TestFailureObliviousIsolation:
    @settings(max_examples=60, deadline=None)
    @given(size=small_sizes, offset=offsets, data=payloads)
    def test_oob_writes_never_touch_other_units(self, size, offset, data):
        ctx = MemoryContext(FailureObliviousPolicy())
        target = ctx.malloc(size, name="target")
        sentinel = ctx.malloc(64, name="sentinel")
        canary = bytes((i * 7 + 3) % 256 for i in range(64))
        ctx.mem.write(sentinel, canary)
        ctx.mem.write(target + offset, data)
        assert ctx.mem.read(sentinel, 64) == canary

    @settings(max_examples=60, deadline=None)
    @given(size=small_sizes, offset=offsets, length=st.integers(min_value=1, max_value=32))
    def test_oob_reads_never_fault_and_have_requested_length(self, size, offset, length):
        ctx = MemoryContext(FailureObliviousPolicy())
        target = ctx.malloc(size, name="target")
        data = ctx.mem.read(target + offset, length)
        assert len(data) == length

    @settings(max_examples=40, deadline=None)
    @given(size=small_sizes, data=payloads)
    def test_heap_metadata_survives_any_single_overflow(self, size, data):
        ctx = MemoryContext(FailureObliviousPolicy())
        buf = ctx.malloc(size)
        ctx.mem.write(buf + size, data)
        ctx.heap.verify_heap()  # must not raise

    @settings(max_examples=40, deadline=None)
    @given(size=small_sizes, data=payloads)
    def test_return_slot_survives_any_single_overflow(self, size, data):
        ctx = MemoryContext(FailureObliviousPolicy())
        with ctx.stack_frame("victim"):
            buf = ctx.stack_buffer("buf", size)
            ctx.seal_frame()
            ctx.mem.write(buf + size, data)
        # Exiting the with block verifies the return slot; no exception means intact.


class TestBoundsCheckNeverSilent:
    @settings(max_examples=60, deadline=None)
    @given(size=small_sizes, offset=offsets, data=payloads)
    def test_every_invalid_write_raises(self, size, offset, data):
        ctx = MemoryContext(BoundsCheckPolicy())
        buf = ctx.malloc(size)
        invalid = offset < 0 or offset + len(data) > size
        try:
            ctx.mem.write(buf + offset, data)
            raised = False
        except (BoundsCheckViolation, UseAfterFree):
            raised = True
        assert raised == invalid


class TestPolicyEquivalenceInBounds:
    @settings(max_examples=60, deadline=None)
    @given(size=small_sizes, data=payloads)
    def test_in_bounds_writes_read_back_identically(self, size, data):
        data = data[:size]
        images = []
        for policy_cls in (StandardPolicy, BoundsCheckPolicy, FailureObliviousPolicy):
            ctx = MemoryContext(policy_cls())
            buf = ctx.malloc(size)
            ctx.mem.write(buf, data)
            images.append(ctx.mem.read(buf, len(data)))
        assert images[0] == images[1] == images[2] == data


class TestManufactureProperties:
    @settings(max_examples=40, deadline=None)
    @given(count=st.integers(min_value=1, max_value=512))
    def test_sequence_is_deterministic(self, count):
        first = ManufacturedValueSequence()
        second = ManufacturedValueSequence()
        assert [first.next_value() for _ in range(count)] == [
            second.next_value() for _ in range(count)
        ]

    @settings(max_examples=40, deadline=None)
    @given(count=st.integers(min_value=1, max_value=512))
    def test_values_are_bytes(self, count):
        seq = ManufacturedValueSequence()
        assert all(0 <= seq.next_byte() <= 255 for _ in range(count))


class TestAllocatorProperties:
    @settings(max_examples=30, deadline=None)
    @given(sizes=st.lists(st.integers(min_value=1, max_value=128), min_size=1, max_size=40))
    def test_live_allocations_never_overlap(self, sizes):
        ctx = MemoryContext(FailureObliviousPolicy())
        units = [ctx.malloc(size).referent for size in sizes]
        spans = sorted((unit.base, unit.end) for unit in units)
        for (base_a, end_a), (base_b, _end_b) in zip(spans, spans[1:]):
            assert end_a <= base_b

    @settings(max_examples=30, deadline=None)
    @given(
        sizes=st.lists(st.integers(min_value=1, max_value=64), min_size=2, max_size=20),
        free_every=st.integers(min_value=2, max_value=5),
    )
    def test_malloc_free_cycles_keep_heap_consistent(self, sizes, free_every):
        ctx = MemoryContext(FailureObliviousPolicy())
        live = []
        for index, size in enumerate(sizes):
            live.append(ctx.malloc(size))
            if index % free_every == 0 and live:
                ctx.free(live.pop(0))
        ctx.heap.verify_heap()
        spans = sorted((p.referent.base, p.referent.end) for p in live)
        for (base_a, end_a), (base_b, _end_b) in zip(spans, spans[1:]):
            assert end_a <= base_b


# -- decision-cache equivalence --------------------------------------------------

_cache_op = st.one_of(
    st.tuples(st.just("malloc"), st.integers(min_value=1, max_value=32)),
    st.tuples(st.just("free"), st.integers(min_value=0, max_value=7)),
    st.tuples(st.just("realloc"), st.integers(min_value=0, max_value=7),
              st.integers(min_value=1, max_value=32)),
    st.tuples(st.just("write"), st.integers(min_value=0, max_value=7),
              st.integers(min_value=-8, max_value=40),
              st.binary(min_size=1, max_size=16)),
    st.tuples(st.just("read"), st.integers(min_value=0, max_value=7),
              st.integers(min_value=-8, max_value=40),
              st.integers(min_value=1, max_value=16)),
    st.tuples(st.just("checkpoint")),
    st.tuples(st.just("restore")),
)

_cache_ops = st.lists(_cache_op, min_size=1, max_size=25)

#: The span paths: batched run hooks (write_span / read_span) and the
#: terminator scan (read_span_until with a small byte alphabet, so scans both
#: hit and miss inside manufactured and redirected runs).
_span_op = st.one_of(
    st.tuples(st.just("write_span"), st.integers(min_value=0, max_value=7),
              st.integers(min_value=-8, max_value=40),
              st.binary(min_size=1, max_size=48)),
    st.tuples(st.just("read_span"), st.integers(min_value=0, max_value=7),
              st.integers(min_value=-8, max_value=40),
              st.integers(min_value=1, max_value=48)),
    st.tuples(st.just("read_span_until"), st.integers(min_value=0, max_value=7),
              st.integers(min_value=-8, max_value=40),
              st.integers(min_value=0, max_value=3),
              st.integers(min_value=1, max_value=48)),
)

_ledger_ops = st.lists(st.one_of(_cache_op, _span_op), min_size=1, max_size=25)


def _apply_op(ctx, slots, image, op):
    """Perform one drawn op; return (trace entry, checkpoint image)."""
    kind = op[0]
    if kind == "malloc":
        slots.append(ctx.malloc(op[1], name="unit"))
        return "malloc", image
    if kind == "free":
        ctx.free(slots[op[1] % len(slots)])
        return "free", image
    if kind == "realloc":
        index = op[1] % len(slots)
        slots[index] = ctx.realloc(slots[index], op[2])
        return "realloc", image
    if kind == "checkpoint":
        return "checkpoint", ctx.checkpoint()
    if kind == "restore":
        ctx.restore(image)
        return "restore", image
    ptr = slots[op[1] % len(slots)] + op[2]
    if kind == "write":
        ctx.mem.write(ptr, op[3])
        return "write", image
    if kind == "write_span":
        ctx.mem.write_span(ptr, op[3])
        return "write_span", image
    if kind == "read":
        return bytes(ctx.mem.read(ptr, op[3])), image
    if kind == "read_span":
        return bytes(ctx.mem.read_span(ptr, op[3])), image
    data, index = ctx.mem.read_span_until(ptr, op[3], op[4])
    return (bytes(data), index), image


def _run_ops(ctx, ops, after_each=None):
    """Drive ``ops`` against ``ctx``; return the trace of their results.

    Every op works on a slot list seeded with one 16-byte unit and on one
    checkpoint image taken up front; exceptions land in the trace instead of
    propagating, so any divergence between two runs shows up there.
    """
    slots = [ctx.malloc(16, name="seed")]
    image = ctx.checkpoint()
    trace = []
    for op in ops:
        try:
            entry, image = _apply_op(ctx, slots, image, op)
            trace.append(entry)
        except Exception as exc:  # every divergence shows up in the trace
            trace.append(("raised", type(exc).__name__))
        if after_each is not None:
            after_each(ctx)
    return trace


class TestDecisionCacheEquivalence:
    """The accessor's referent cache is purely an optimization.

    Cached and uncached contexts must produce identical telemetry streams,
    error-log answers, policy statistics (``checks_performed`` included — the
    cache still notes one check per access) and table lookup counts, across
    free / realloc / checkpoint / restore cycles — exactly the edges where a
    stale cache entry would diverge.
    """

    @settings(max_examples=30, deadline=None)
    @given(policy_name=st.sampled_from(["standard", "bounds-check",
                                        "failure-oblivious", "boundless", "redirect"]),
           ops=_cache_ops)
    def test_cached_equals_uncached(self, policy_name, ops):
        from tests.conftest import POLICY_CLASSES
        from repro.telemetry.sinks import CounterSink

        observations = []
        for cached in (False, True):
            ctx = MemoryContext(POLICY_CLASSES[policy_name](), decision_cache=cached,
                                heap_size=32 * 1024, stack_size=8 * 1024,
                                globals_size=4 * 1024)
            counters = ctx.bus.attach(CounterSink())
            trace = _run_ops(ctx, ops)
            log = ctx.error_log
            observations.append({
                "trace": trace,
                "heap": bytes(ctx.space.heap.data),
                "stats": ctx.policy.stats.as_dict(),
                "lookups": ctx.table.lookups,
                "raw_reads": ctx.space.raw_reads,
                "raw_writes": ctx.space.raw_writes,
                "log_total": log.total_recorded,
                "log_by_site": log.count_by_site(),
                "log_by_kind": log.count_by_kind(),
                "log_reads": log.count_reads(),
                "log_writes": log.count_writes(),
                "log_summary": log.summary(),
                "counters": {
                    "by_type": counters.by_type,
                    "invalid_total": counters.invalid_total,
                    "invalid_by_kind": counters.invalid_by_kind,
                    "manufactured_bytes": counters.manufactured_bytes,
                    "discarded_bytes": counters.discarded_bytes,
                    "stored_bytes": counters.stored_bytes,
                    "redirected_accesses": counters.redirected_accesses,
                },
            })
        assert observations[0] == observations[1]


# -- the policy statistics and the error log's counters --------------------------


def _assert_one_ledger(ctx):
    """Policy statistics equal the error log's own counters, fact by fact.

    The sink's tallies are read through the log's checkpoint (its pure-data
    snapshot of exactly those counters), so the restored state is compared
    too.
    """
    stats = ctx.policy.stats
    log = ctx.error_log
    _ring, counts = log.checkpoint()
    assert stats.invalid_reads == log.count_reads()
    assert stats.invalid_writes == log.count_writes()
    assert stats.manufactured_values == counts["manufactured_bytes"]
    assert stats.discarded_bytes == counts["discarded_bytes"]
    assert stats.stored_out_of_bounds_bytes == counts["stored_bytes"]
    assert stats.redirected_accesses == counts["redirected_accesses"]


class TestStatisticsMatchErrorLog:
    """Every continuation fact the policy statistics report is also counted
    by the error log's :class:`~repro.telemetry.sinks.CounterSink`, and the
    two agree after every op — scalar and span accesses, scans, frees,
    reallocs, checkpoints and restores — under all five policies."""

    @settings(max_examples=40, deadline=None)
    @given(policy_name=st.sampled_from(["standard", "bounds-check",
                                        "failure-oblivious", "boundless", "redirect"]),
           ops=_ledger_ops)
    def test_statistics_equal_log_counters(self, policy_name, ops):
        from tests.conftest import POLICY_CLASSES

        ctx = MemoryContext(POLICY_CLASSES[policy_name](),
                            heap_size=32 * 1024, stack_size=8 * 1024,
                            globals_size=4 * 1024)
        _run_ops(ctx, ops, after_each=_assert_one_ledger)
