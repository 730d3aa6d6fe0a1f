"""Differential test of the block-access continuation.

A checked ``read``/``write`` whose range fails its check — and so every
failing ``read_byte``/``write_byte``/``read_int``/``write_int`` — performs
its in-bounds prefix and hands the rest to the policy.  This module runs
short sequences of those calls on twin contexts, one through the frozen
scalar path of ``tests/reference_continuation.py`` and one through the
shipped accessor, and compares everything either side can observe: the
returned bytes or integers, the raised fault's type, address and event,
every segment's bytes, the check, lookup and raw-access counters, the error
log's aggregate counters, and the **unexpanded** continuation stream on the
bus — every field of every ``InvalidAccess``, ``Discard``, ``Manufacture``
and ``Redirect`` record, ``count``/``stride``/``stored`` included — plus the
Boundless store, the manufactured sequence's consumption and where the
decision cache is left.  The one exception is a policy whose invalid write
is a pure discard (failure-oblivious): its consecutive invalid
``write_byte`` stores are published as one run, which is the per-byte
records in one, so its stream is compared one record per element
(:func:`tests.conftest.per_element`).

Ranges straddle the unit's end, start below it, lie wholly past it, hit a
freed unit or go through a null pointer, under the four checking policies
with the decision cache on and off.  Boundless is also drawn at and across
its ``max_stored_bytes``, and Redirect on dead units (which take the
failure-oblivious continuation).
"""

from __future__ import annotations

import dataclasses

from hypothesis import given, settings, strategies as st

from repro.core.policies import BoundlessPolicy, RedirectPolicy
from repro.errors import MemoryFault
from repro.memory.context import MemoryContext
from repro.memory.pointer import FatPointer
from repro.telemetry.events import Discard, InvalidAccess, Manufacture, Redirect
from repro.telemetry.sinks import ListSink
from tests.conftest import POLICY_CLASSES, per_element
from tests.reference_continuation import (
    ref_read,
    ref_read_byte,
    ref_read_int,
    ref_write,
    ref_write_byte,
    ref_write_int,
)

CHECKING_POLICIES = sorted(name for name, cls in POLICY_CLASSES.items()
                           if cls.performs_checks)
CONTINUATION_RECORDS = (InvalidAccess, Discard, Manufacture, Redirect)

#: Operation name → (frozen reference, shipped call); both take
#: ``(mem, ptr, argument)``.
OPERATIONS = {
    "read": (ref_read, lambda mem, ptr, n: mem.read(ptr, n)),
    "write": (ref_write, lambda mem, ptr, data: mem.write(ptr, data)),
    "read_byte": (lambda mem, ptr, _: ref_read_byte(mem, ptr),
                  lambda mem, ptr, _: mem.read_byte(ptr)),
    "write_byte": (ref_write_byte, lambda mem, ptr, value: mem.write_byte(ptr, value)),
    "read_int": (lambda mem, ptr, shape: ref_read_int(mem, ptr, *shape),
                 lambda mem, ptr, shape: mem.read_int(ptr, *shape)),
    "write_int": (lambda mem, ptr, args: ref_write_int(mem, ptr, *args),
                  lambda mem, ptr, args: mem.write_int(ptr, *args)),
}


def _normalize_error(event):
    """An error event without its unit serial (a process-wide counter)."""
    return (
        event.kind, event.access, event.offset, event.length, event.site,
        event.unit_name.split("#")[0], event.unit_size, event.request_id,
    )


def _normalize_record(record):
    """Every field of one continuation record, unit serials dropped."""
    values = []
    for field in dataclasses.fields(record):
        value = getattr(record, field.name)
        if field.name == "error":
            value = _normalize_error(value)
        values.append((field.name, value))
    return (type(record).__name__, tuple(values))


def _records(policy, stream):
    """The stream record by record, or per element where consecutive
    invalid byte stores coalesce into one run."""
    if policy.discards_invalid_writes:
        return per_element(stream.events)
    return [_normalize_record(record) for record in stream.events]


def _outcome(call):
    try:
        result = call()
    except MemoryFault as fault:
        event = getattr(fault, "event", None)
        return ("fault", type(fault).__name__, getattr(fault, "address", None),
                None if event is None else _normalize_error(event))
    return ("ok", result)


def _observe(ctx, outcomes, stream):
    policy = ctx.policy
    store = getattr(policy, "_store", {})
    sequence = getattr(policy, "sequence", None)
    cached = ctx.mem._cached_unit
    return {
        "outcomes": outcomes,
        "segments": {s.name: bytes(s.data) for s in ctx.space.segments()},
        "checks_performed": policy.checks_performed,
        "lookups": ctx.table.lookups,
        "raw_reads": ctx.space.raw_reads,
        "raw_writes": ctx.space.raw_writes,
        "log_counters": ctx.error_log.counters.checkpoint(),
        "records": _records(policy, stream),
        "boundless_store": sorted(sorted(bucket.items()) for bucket in store.values()),
        "stored_total": getattr(policy, "_stored_total", None),
        "sequence_produced": sequence.produced if sequence is not None else None,
        "cached_unit": None if cached is None else (cached.name, cached.size),
    }


def _run_twin(make_policy, decision_cache, setup, steps):
    """Run ``steps`` through the reference on one context, the accessor on
    its twin, and compare.  A step is ``(operation, shift, argument)``: the
    access goes to the set-up pointer moved by ``shift`` bytes.  A fault ends
    the sequence, as it ends the process."""
    observations = []
    for side in (0, 1):
        ctx = MemoryContext(make_policy(),
                            heap_size=32 * 1024, stack_size=8 * 1024,
                            globals_size=4 * 1024, decision_cache=decision_cache)
        ctx.set_site("block")
        ptr = setup(ctx)
        stream = ListSink(CONTINUATION_RECORDS)
        ctx.policy.bus.attach(stream)
        outcomes = []
        for name, shift, argument in steps:
            operation = OPERATIONS[name][side]
            outcomes.append(_outcome(lambda: operation(ctx.mem, ptr + shift, argument)))
            if outcomes[-1][0] == "fault":
                break
        observations.append(_observe(ctx, outcomes, stream))
    reference, shipped = observations
    assert shipped == reference


def _window_setup(unit_size, warm, target, start):
    """Allocate the target unit and a neighbour, fill both, warm the cache,
    and point ``start`` bytes into the target: the live unit, the same unit
    freed, or the null pointer."""

    def setup(ctx):
        window = ctx.malloc(unit_size, name="window")
        other = ctx.malloc(8, name="other")
        ctx.space.write(window.address, bytes((7 * i + 3) & 0xFF for i in range(unit_size)))
        ctx.space.write(other.address, b"OTHER!!!")
        if warm == "same":
            ctx.mem.write_byte(window, 0x5A)
        elif warm == "other":
            ctx.mem.write_byte(other, 0x5A)
        if target == "freed":
            ctx.free(window)
        elif target == "null":
            return FatPointer.null() + start
        return window + start

    return setup


def _argument(draw, name):
    if name == "read":
        return draw(st.integers(min_value=0, max_value=24))
    if name == "write":
        return draw(st.binary(min_size=0, max_size=24))
    if name == "write_byte":
        return draw(st.integers(min_value=0, max_value=255))
    if name == "read_int":
        return (draw(st.sampled_from((1, 2, 4, 8))), draw(st.booleans()))
    if name == "write_int":
        size = draw(st.sampled_from((1, 2, 4, 8)))
        return (draw(st.integers(min_value=-(1 << 64), max_value=1 << 64)), size,
                draw(st.booleans()))
    return None


@st.composite
def _steps(draw, max_steps=4):
    """One to ``max_steps`` accesses around the set-up pointer."""
    steps = []
    for _ in range(draw(st.integers(min_value=1, max_value=max_steps))):
        name = draw(st.sampled_from(sorted(OPERATIONS)))
        shift = draw(st.integers(min_value=-8, max_value=8))
        steps.append((name, shift, _argument(draw, name)))
    return steps


policies = st.sampled_from(CHECKING_POLICIES)
sizes = st.integers(min_value=1, max_value=48)
starts = st.integers(min_value=-24, max_value=72)
warm_states = st.sampled_from(["cold", "same", "other"])
targets = st.sampled_from(["live", "live", "freed", "null"])
SETTINGS = dict(max_examples=200, deadline=None)


class TestBlockContinuation:
    @settings(**SETTINGS)
    @given(policy=policies, cache=st.booleans(), unit_size=sizes, start=starts,
           warm=warm_states, target=targets, steps=_steps())
    def test_matches_scalar_reference(self, policy, cache, unit_size, start, warm,
                                      target, steps):
        """Straddling either end, wholly past it, freed and null, as
        sequences, so Boundless reads back what its writes stored."""
        _run_twin(POLICY_CLASSES[policy], cache,
                  _window_setup(unit_size, warm, target, start), steps)

    @settings(**SETTINGS)
    @given(cache=st.booleans(), unit_size=sizes,
           earlier=st.integers(min_value=0, max_value=12),
           spare=st.integers(min_value=-12, max_value=12),
           back=st.integers(min_value=0, max_value=8),
           warm=warm_states, steps=_steps())
    def test_boundless_at_and_across_its_capacity(self, cache, unit_size, earlier, spare,
                                                  back, warm, steps):
        """An earlier out-of-bounds store fills part of the side store, and
        its capacity sits within a few bytes of what the drawn accesses
        need: a block store is kept whole or discarded whole."""
        prior = bytes(range(1, earlier + 1))
        capacity = max(0, earlier + 8 + spare)

        def setup(ctx):
            ptr = _window_setup(unit_size, warm, "live", unit_size - back)(ctx)
            ref_write(ctx.mem, ptr + back, prior)
            return ptr

        _run_twin(lambda: BoundlessPolicy(max_stored_bytes=capacity), cache, setup, steps)

    @settings(**SETTINGS)
    @given(cache=st.booleans(), unit_size=sizes, start=starts, warm=warm_states,
           target=st.sampled_from(["freed", "null"]), steps=_steps())
    def test_redirect_on_dead_units(self, cache, unit_size, start, warm, target, steps):
        """Nothing to wrap into: Redirect takes the failure-oblivious
        continuation, manufacturing reads and discarding writes."""
        _run_twin(RedirectPolicy, cache, _window_setup(unit_size, warm, target, start),
                  steps)
