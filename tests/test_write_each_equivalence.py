"""Equivalence of ``MemoryAccessor.write_each`` with its per-byte definition.

``write_each(ptr, data)`` is defined as ``for i, b in enumerate(data):
write_byte(ptr + i, b)``: the servers' "store the text one byte at a time,
then the NUL" loops call it instead of spelling the loop out.  A valid range
goes down in one raw store, so this module proves that store is charged and
recorded exactly as the loop is, under every policy and with the decision
cache on or off: the final memory image and dirty blocks, every per-access
counter (``checks_performed`` included, unlike the span helpers), the error
log's records and aggregate counters, the continuation side state, where
the decision cache is left, and the raised fault with its address.

Each example builds two identically laid-out contexts, runs the loop on one
and ``write_each`` on the other, and compares.  Ranges are drawn in bounds,
straddling the unit's end, starting below it, past it, on a freed unit, and
running off the end of the heap segment (where the Standard build stores
the in-segment prefix and then faults).
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.errors import MemoryFault
from repro.memory.context import MemoryContext
from tests.conftest import POLICY_CLASSES

POLICY_NAMES = sorted(POLICY_CLASSES)


def ref_write_each(mem, ptr, data):
    """The per-byte definition of :meth:`MemoryAccessor.write_each`."""
    for i, byte in enumerate(data):
        mem.write_byte(ptr + i, byte)


def _normalize_event(event):
    """An error record without its unit serial (a process-wide counter)."""
    return (
        event.kind, event.access, event.offset, event.length, event.site,
        event.unit_name.split("#")[0], event.unit_size,
    )


def _observe(ctx, outcome):
    """Everything the loop and ``write_each`` must agree on."""
    policy = ctx.policy
    store = getattr(policy, "_store", {})
    sequence = getattr(policy, "sequence", None)
    cached = ctx.mem._cached_unit
    return {
        "outcome": outcome,
        "segments": {s.name: bytes(s.data) for s in ctx.space.segments()},
        "dirty": {s.name: sorted(s.dirty) for s in ctx.space.segments()},
        "checks_performed": policy.checks_performed,
        "lookups": ctx.table.lookups,
        "raw_reads": ctx.space.raw_reads,
        "raw_writes": ctx.space.raw_writes,
        "events": [_normalize_event(event) for event in ctx.error_log.events()],
        "log_counters": ctx.error_log.counters.checkpoint(),
        # Boundless keys its store by unit identity; the buckets are the data.
        "boundless_store": sorted(sorted(bucket.items()) for bucket in store.values()),
        "sequence_produced": sequence.produced if sequence is not None else None,
        "cached_unit": None if cached is None else (cached.name, cached.size),
    }


def _run_twin(policy_name, decision_cache, setup, data):
    observations = []
    for operation in (ref_write_each, lambda mem, ptr, payload: mem.write_each(ptr, payload)):
        # Small segments keep the per-example memory image comparison cheap.
        ctx = MemoryContext(POLICY_CLASSES[policy_name](),
                            heap_size=32 * 1024, stack_size=8 * 1024,
                            globals_size=4 * 1024, decision_cache=decision_cache)
        ctx.set_site("write_each")
        ptr = setup(ctx)
        try:
            operation(ctx.mem, ptr, data)
            outcome = ("ok",)
        except MemoryFault as fault:
            # Standard's segmentation faults carry the address where the
            # store stopped; checking builds' faults carry none.
            outcome = ("fault", type(fault).__name__, getattr(fault, "address", None))
        observations.append(_observe(ctx, outcome))
    reference, fused = observations
    assert fused == reference


policies = st.sampled_from(POLICY_NAMES)
sizes = st.integers(min_value=1, max_value=64)
payloads = st.binary(min_size=0, max_size=96)
#: Which unit the decision cache holds when the store starts.
warm_states = st.sampled_from(["cold", "same", "other"])
COMMON_SETTINGS = dict(max_examples=150, deadline=None)


def _window_setup(unit_size, warm, freed, offset_of):
    """Allocate the target unit (and a neighbour), warm the cache, point in."""

    def setup(ctx):
        window = ctx.malloc(unit_size, name="window")
        other = ctx.malloc(8, name="other")
        if warm == "same":
            ctx.mem.write_byte(window, 0x5A)
        elif warm == "other":
            ctx.mem.write_byte(other, 0x5A)
        if freed:
            ctx.free(window)
        return window + offset_of(ctx, window.referent)

    return setup


class TestWriteEachEquivalence:
    @settings(**COMMON_SETTINGS)
    @given(policy=policies, cache=st.booleans(), unit_size=sizes,
           start=st.integers(min_value=-24, max_value=80), payload=payloads,
           warm=warm_states, freed=st.booleans())
    def test_matches_per_byte_loop_around_a_unit(self, policy, cache, unit_size, start,
                                                 payload, warm, freed):
        """In bounds, straddling either end, wholly outside, and freed."""
        setup = _window_setup(unit_size, warm, freed, lambda ctx, unit: start)
        _run_twin(policy, cache, setup, payload)

    @settings(**COMMON_SETTINGS)
    @given(policy=policies, cache=st.booleans(), unit_size=sizes,
           back=st.integers(min_value=0, max_value=40),
           payload=st.binary(min_size=1, max_size=96), warm=warm_states)
    def test_matches_per_byte_loop_across_the_segment_end(self, policy, cache, unit_size,
                                                          back, payload, warm):
        """A range running off the heap segment: Standard stores the mapped
        prefix and faults at the segment end; checking builds see one
        out-of-bounds range far past the unit."""
        setup = _window_setup(unit_size, warm, False,
                              lambda ctx, unit: ctx.space.heap.end - unit.base - back)
        _run_twin(policy, cache, setup, payload)

    def test_valid_store_is_one_raw_store(self, monkeypatch):
        """The fused path does not fall back to the loop on a valid range."""
        for policy in POLICY_NAMES:
            ctx = MemoryContext(POLICY_CLASSES[policy](), heap_size=32 * 1024)
            buf = ctx.malloc(16)
            monkeypatch.setattr(ctx.mem, "write_byte", None)
            ctx.mem.write_each(buf + 2, b"abc\x00")
            assert ctx.mem.read(buf + 2, 4) == b"abc\x00"
