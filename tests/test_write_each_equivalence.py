"""Equivalence of ``write_each`` and ``read_each`` with their element loops.

``MemoryAccessor.write_each(ptr, data, width)`` is defined as ``for i in
range(n): write(ptr + i*width, data[i*width:(i+1)*width])`` and
``read_each(ptr, count, width)`` as the concatenation of ``read(ptr +
i*width, width)`` for ``i`` in ``range(count)``; at width 1 ``write_each`` is
also ``for i, b in enumerate(data): write_byte(ptr + i, b)``.  The servers'
"store the text one byte at a time, then the NUL" loops and Apache's capture
offsets (4-byte elements) call them instead of spelling the loops out.  A
valid range goes down in one raw store or read, and a clean out-of-bounds
suffix is one strided policy run, so this module proves both are charged and
recorded exactly as the loop is, under every policy and with the decision
cache on or off: the final memory image and dirty blocks, every per-access
counter (``checks_performed`` included, unlike the span helpers), the error
log's records and aggregate counters (``CounterSink.by_type`` among them),
the invalid-access stream on the bus expanded to single events, the
continuation side state, where the decision cache is left, the bytes read,
and the raised fault with its address.

Each example builds two identically laid-out contexts, runs the frozen loop
on one and the accessor method on the other, and compares.  Ranges are
drawn in bounds, straddling the unit's end, starting below it, past it, on
a freed unit, and running off the end of the heap segment (where the
Standard build stores or reads the in-segment elements and then faults).
Two policy edges get their own draws: Boundless at and across its
``max_stored_bytes``, and Redirect on units whose size is not a multiple of
the element width.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.policies import BoundlessPolicy, RedirectPolicy
from repro.errors import MemoryFault
from repro.memory.context import MemoryContext
from repro.telemetry.events import InvalidAccess, expand_invalid_accesses
from repro.telemetry.sinks import ListSink
from tests.conftest import POLICY_CLASSES

POLICY_NAMES = sorted(POLICY_CLASSES)
WIDTHS = (1, 2, 4, 8)


def ref_write_each(mem, ptr, data):
    """The per-byte definition of :meth:`MemoryAccessor.write_each` at width 1."""
    for i, byte in enumerate(data):
        mem.write_byte(ptr + i, byte)


def ref_write_elements(mem, ptr, data, width):
    """The element-loop definition of :meth:`MemoryAccessor.write_each`."""
    for i in range(len(data) // width):
        mem.write(ptr + i * width, data[i * width:(i + 1) * width])


def ref_read_elements(mem, ptr, count, width):
    """The element-loop definition of :meth:`MemoryAccessor.read_each`."""
    return b"".join(mem.read(ptr + i * width, width) for i in range(count))


def fused_write_each(width):
    """``write_each`` at ``width``; width 1 goes through the default argument."""
    if width == 1:
        return lambda mem, ptr, data: mem.write_each(ptr, data)
    return lambda mem, ptr, data: mem.write_each(ptr, data, width)


def _normalize_event(event):
    """An error record without its unit serial (a process-wide counter)."""
    return (
        event.kind, event.access, event.offset, event.length, event.site,
        event.unit_name.split("#")[0], event.unit_size,
    )


def _observe(ctx, outcome, stream):
    """Everything the loop and the accessor method must agree on."""
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
        # The counter sink's checkpoint carries every aggregate, by_type too.
        "log_counters": ctx.error_log.counters.checkpoint(),
        "bus_invalid_accesses": [_normalize_event(event)
                                 for event in expand_invalid_accesses(stream.events)],
        # Boundless keys its store by unit identity; the buckets are the data.
        "boundless_store": sorted(sorted(bucket.items()) for bucket in store.values()),
        "stored_total": getattr(policy, "_stored_total", None),
        "sequence_produced": sequence.produced if sequence is not None else None,
        "cached_unit": None if cached is None else (cached.name, cached.size),
    }


def _run_twin(make_policy, decision_cache, setup, reference, fused):
    """Run ``reference`` and ``fused`` as ``operation(mem, ptr)`` on twin contexts."""
    observations = []
    for operation in (reference, fused):
        # Small segments keep the per-example memory image comparison cheap.
        ctx = MemoryContext(make_policy(),
                            heap_size=32 * 1024, stack_size=8 * 1024,
                            globals_size=4 * 1024, decision_cache=decision_cache)
        ctx.set_site("write_each")
        ptr = setup(ctx)
        stream = ListSink((InvalidAccess,))
        ctx.policy.bus.attach(stream)
        try:
            result = operation(ctx.mem, ptr)
            outcome = ("ok", None if result is None else bytes(result))
        except MemoryFault as fault:
            # Standard's segmentation faults carry the address where the
            # access stopped; checking builds' faults carry none.
            outcome = ("fault", type(fault).__name__, getattr(fault, "address", None))
        observations.append(_observe(ctx, outcome, stream))
    reference_observed, fused_observed = observations
    assert fused_observed == reference_observed


def _write_twin(make_policy, decision_cache, setup, data, width):
    _run_twin(make_policy, decision_cache, setup,
              lambda mem, ptr: ref_write_elements(mem, ptr, data, width),
              lambda mem, ptr: fused_write_each(width)(mem, ptr, data))


def _read_twin(make_policy, decision_cache, setup, count, width):
    _run_twin(make_policy, decision_cache, setup,
              lambda mem, ptr: ref_read_elements(mem, ptr, count, width),
              lambda mem, ptr: mem.read_each(ptr, count, width))


def _elements(payload, width):
    """``payload`` cut to whole ``width``-byte elements."""
    return payload[:len(payload) // width * width]


policies = st.sampled_from(POLICY_NAMES)
sizes = st.integers(min_value=1, max_value=64)
payloads = st.binary(min_size=0, max_size=96)
counts = st.integers(min_value=0, max_value=24)
#: Which unit the decision cache holds when the access starts.
warm_states = st.sampled_from(["cold", "same", "other"])
COMMON_SETTINGS = dict(max_examples=150, deadline=None)
WIDTH_SETTINGS = dict(max_examples=100, deadline=None)


def _window_setup(unit_size, warm, freed, offset_of):
    """Allocate the target unit (and a neighbour), warm the cache, point in.

    Both units are filled with byte patterns first (raw, the same on both
    twins) so reads return bytes that tell offsets apart.
    """

    def setup(ctx):
        window = ctx.malloc(unit_size, name="window")
        other = ctx.malloc(8, name="other")
        ctx.space.write(window.address, bytes((7 * i + 3) & 0xFF for i in range(unit_size)))
        ctx.space.write(other.address, b"OTHER!!!")
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
        _run_twin(POLICY_CLASSES[policy], cache, setup,
                  lambda mem, ptr: ref_write_each(mem, ptr, payload),
                  lambda mem, ptr: mem.write_each(ptr, payload))

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
        _run_twin(POLICY_CLASSES[policy], cache, setup,
                  lambda mem, ptr: ref_write_each(mem, ptr, payload),
                  lambda mem, ptr: mem.write_each(ptr, payload))

    def test_valid_store_is_one_raw_store(self, monkeypatch):
        """The fused path does not fall back to the loop on a valid range."""
        for policy in POLICY_NAMES:
            ctx = MemoryContext(POLICY_CLASSES[policy](), heap_size=32 * 1024)
            buf = ctx.malloc(16)
            monkeypatch.setattr(ctx.mem, "write_byte", None)
            ctx.mem.write_each(buf + 2, b"abc\x00")
            assert ctx.mem.read(buf + 2, 4) == b"abc\x00"


@pytest.mark.parametrize("width", WIDTHS)
class TestElementWidthEquivalence:
    """``write_each`` and ``read_each`` against the frozen element loops."""

    @settings(**WIDTH_SETTINGS)
    @given(policy=policies, cache=st.booleans(), unit_size=sizes,
           start=st.integers(min_value=-24, max_value=80), payload=payloads,
           warm=warm_states, freed=st.booleans())
    def test_write_matches_element_loop_around_a_unit(self, width, policy, cache, unit_size,
                                                      start, payload, warm, freed):
        """In bounds, straddling either end, wholly outside, and freed."""
        setup = _window_setup(unit_size, warm, freed, lambda ctx, unit: start)
        _write_twin(POLICY_CLASSES[policy], cache, setup, _elements(payload, width), width)

    @settings(**WIDTH_SETTINGS)
    @given(policy=policies, cache=st.booleans(), unit_size=sizes,
           back=st.integers(min_value=0, max_value=40),
           payload=st.binary(min_size=8, max_size=96), warm=warm_states)
    def test_write_matches_element_loop_across_the_segment_end(self, width, policy, cache,
                                                               unit_size, back, payload,
                                                               warm):
        """Off the heap segment: Standard faults on the first element that
        is not wholly mapped, without storing its in-segment bytes."""
        setup = _window_setup(unit_size, warm, False,
                              lambda ctx, unit: ctx.space.heap.end - unit.base - back)
        _write_twin(POLICY_CLASSES[policy], cache, setup, _elements(payload, width), width)

    @settings(**WIDTH_SETTINGS)
    @given(policy=policies, cache=st.booleans(), unit_size=sizes,
           start=st.integers(min_value=-24, max_value=80), count=counts,
           warm=warm_states, freed=st.booleans())
    def test_read_matches_element_loop_around_a_unit(self, width, policy, cache, unit_size,
                                                     start, count, warm, freed):
        setup = _window_setup(unit_size, warm, freed, lambda ctx, unit: start)
        _read_twin(POLICY_CLASSES[policy], cache, setup, count, width)

    @settings(**WIDTH_SETTINGS)
    @given(policy=policies, cache=st.booleans(), unit_size=sizes,
           back=st.integers(min_value=0, max_value=40),
           count=st.integers(min_value=1, max_value=24), warm=warm_states)
    def test_read_matches_element_loop_across_the_segment_end(self, width, policy, cache,
                                                              unit_size, back, count, warm):
        setup = _window_setup(unit_size, warm, False,
                              lambda ctx, unit: ctx.space.heap.end - unit.base - back)
        _read_twin(POLICY_CLASSES[policy], cache, setup, count, width)

    @settings(**WIDTH_SETTINGS)
    @given(cache=st.booleans(), unit_size=sizes,
           valid=st.integers(min_value=0, max_value=8),
           earlier=st.integers(min_value=0, max_value=6),
           spare=st.integers(min_value=-12, max_value=12),
           payload=st.binary(min_size=1, max_size=96), warm=warm_states)
    def test_boundless_at_and_across_its_capacity(self, width, cache, unit_size, valid,
                                                  earlier, spare, payload, warm):
        """The side store's capacity sits within a few bytes of what the
        out-of-bounds suffix needs, after an earlier store that the suffix
        partly overwrites: each element is stored whole or discarded whole."""
        data = _elements(payload, width)
        start = max(0, unit_size - valid * width)
        suffix = max(0, start + len(data) - unit_size)
        # An earlier element-wise store past the end fills ``earlier``
        # elements of the same offsets (identically on both twins).
        prior = bytes(range(earlier * width))
        capacity = max(0, len(prior) + suffix + spare)

        def setup(ctx):
            ptr = _window_setup(unit_size, warm, False, lambda ctx, unit: start)(ctx)
            ref_write_elements(ctx.mem, _at(ptr, unit_size), prior, width)
            return ptr

        _write_twin(lambda: BoundlessPolicy(max_stored_bytes=capacity), cache, setup,
                    data, width)

    @settings(**WIDTH_SETTINGS)
    @given(cache=st.booleans(), unit_size=sizes,
           back=st.integers(min_value=0, max_value=6),
           shift=st.integers(min_value=-3, max_value=3),
           payload=st.binary(min_size=1, max_size=96), warm=warm_states)
    def test_redirect_write_on_units_not_a_multiple_of_the_width(self, width, cache, unit_size,
                                                                 back, shift, payload, warm):
        """Element boundaries that meet the unit end, and ones that straddle
        it, on unit sizes the width does not divide: the wrapped stores land
        per byte where the element loop's do."""
        setup = _redirect_setup(unit_size, width, back, shift, warm)
        _write_twin(RedirectPolicy, cache, setup, _elements(payload, width), width)

    @settings(**WIDTH_SETTINGS)
    @given(cache=st.booleans(), unit_size=sizes,
           back=st.integers(min_value=0, max_value=6),
           shift=st.integers(min_value=-3, max_value=3),
           count=st.integers(min_value=1, max_value=24), warm=warm_states)
    def test_redirect_read_on_units_not_a_multiple_of_the_width(self, width, cache, unit_size,
                                                                back, shift, count, warm):
        setup = _redirect_setup(unit_size, width, back, shift, warm)
        _read_twin(RedirectPolicy, cache, setup, count, width)


def _redirect_setup(unit_size, width, back, shift, warm):
    """A unit the width does not divide (above width 1), entered ``back``
    elements before its end, moved by ``shift`` bytes."""
    if width > 1 and unit_size % width == 0:
        unit_size += 1
    start = max(0, unit_size - back * width + shift)
    return _window_setup(unit_size, warm, False, lambda ctx, unit: start)

def _at(ptr, offset):
    """``ptr`` moved to ``offset`` within its unit's coordinates."""
    return ptr + (offset - ptr.offset)
