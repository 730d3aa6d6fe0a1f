"""Stateful differential test of the accessor against the frozen scalar path.

A Hypothesis ``RuleBasedStateMachine`` drives two *sides* through the same
steps.  Each side is a small process: two memory contexts whose buses feed
one shared ``ListSink`` (so the order of records across buses is compared
too), plus a probe ``ListSink`` that rules attach to and detach from the
first context's bus.  On the *reference* side ``write_byte`` and
``read_byte`` go through the frozen scalar path of
``tests/reference_continuation.py``, one policy decision per invalid byte;
on the *shipped* side they go through ``MemoryAccessor``, which under
failure-oblivious holds a streak of invalid byte stores as one open run and
flushes it before anything can observe it.  Every other call is the live
method on both sides.  (``tests/reference_cstring.py`` is no reference here:
its loops call the live ``write_byte``.)

The rules allocate and free heap units, push and pop stack frames, run
streaks of ``write_byte`` in and out of bounds with valid and invalid reads,
site and request changes, probe attaches and detaches, stores to other
units, error-log queries, frame pops and checkpoint restores between the
bytes, call ``read_byte``, ``write_each`` and
``write_span``, take and restore ``MemoryContext`` checkpoints, and ask the
error log every query it answers, comparing the answers.  After each step
both sides must agree on: the outcome (value, or fault type, address and
event), every segment's bytes, the check, lookup and raw-access counters,
the error log's events and its ``CounterSink``, the Boundless store, the
manufactured sequence's consumption, and both ``ListSink`` streams expanded
to one record per element (:func:`tests.conftest.per_element`).  The shipped
side is observed through the error log and ``EventBus.sinks``, both of which
flush, exactly as any reader of the records would observe it.

The machine runs under all five policies.  Budget: ``MACHINE_SETTINGS``
below, 60 examples of up to 25 steps per policy, 5-9 s of tier-1 on a
2-CPU host; keep the whole module under 15 s when extending it.
"""

from __future__ import annotations

from hypothesis import HealthCheck, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.core.errorlog import MemoryErrorLog
from repro.errors import MemoryFault
from repro.memory.context import MemoryContext
from repro.memory.pointer import FatPointer
from repro.telemetry.sinks import ListSink
from tests.conftest import POLICY_CLASSES, normalize_error, per_element
from tests.reference_continuation import ref_read_byte, ref_write_byte

MACHINE_SETTINGS = settings(
    max_examples=60,
    stateful_step_count=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: What may happen just before a byte of a streak is stored.
INTERJECTIONS = (
    "none", "none", "none", "none",
    "read_valid",       # crackaddr's ``*p`` between two stores
    "read_invalid",
    "site",
    "request",
    "probe",            # attach or detach the probe sink
    "store_other",      # a store to another unit, maybe in the other context
    "stream_gap",       # the streak skips a byte
    "query", "query",   # an error-log query or a context checkpoint
    "pop_frame",        # the streak's unit may die without an event
    "restore",          # back to the context's checkpoint; ends the streak
)

#: Every question the error log answers, plus the readers built on it.
QUERIES = (
    lambda ctx: len(ctx.error_log),
    lambda ctx: [normalize_error(event) for event in ctx.error_log],
    lambda ctx: [normalize_error(event) for event in ctx.error_log.events()],
    lambda ctx: [normalize_error(event) for event in ctx.error_log.tail(3)],
    lambda ctx: ctx.error_log.total_recorded,
    lambda ctx: ctx.error_log.dropped,
    lambda ctx: ctx.error_log.count_by_site(),
    lambda ctx: ctx.error_log.count_by_kind(),
    lambda ctx: ctx.error_log.count_reads(),
    lambda ctx: ctx.error_log.count_writes(),
    lambda ctx: ctx.error_log.most_common_sites(2),
    lambda ctx: ctx.error_log.summary(),
    lambda ctx: ctx.error_log.counters.checkpoint(),
    lambda ctx: ctx.error_log.checkpoint()[1],
    lambda ctx: ctx.policy.stats,
    lambda ctx: ctx.policy.checkpoint_state()["log"][1],
    lambda ctx: ctx.checkpoint().policy_state["log"][1],
    lambda ctx: [per_element(sink.events) for sink in ctx.bus.sinks
                 if isinstance(sink, ListSink)],
)

SITES = ("alpha", "beta")

#: A small error log, so the rules reach its eviction.
LOG_CAPACITY = 12


def _outcome(call):
    """The result of ``call``, or the fault it raised (type, address, event)."""
    try:
        result = call()
    except MemoryFault as fault:
        event = getattr(fault, "event", None)
        return ("fault", type(fault).__name__, getattr(fault, "address", None),
                None if event is None else normalize_error(event))
    if isinstance(result, (bytes, bytearray, memoryview)):
        result = bytes(result)
    return ("ok", result)


class Side:
    """One process's worth of state: two contexts, the shared and probe
    sinks, the pointers the rules aim at, and the outcomes of the step."""

    def __init__(self, policy_name: str, reference: bool) -> None:
        self.contexts = []
        self.shared = ListSink()
        self.probe = ListSink()
        self.probe_attached = False
        for index in range(2):
            policy = POLICY_CLASSES[policy_name]()
            policy.error_log = MemoryErrorLog(LOG_CAPACITY)
            policy.bus.scope["policy"] = policy.name
            ctx = MemoryContext(policy, heap_size=16 * 1024, stack_size=4 * 1024,
                                globals_size=1024)
            ctx.bus.scope["context"] = str(index)
            ctx.bus.attach(self.shared)
            self.contexts.append(ctx)
        #: ``(context index, pointer)`` for every unit made so far.
        self.units = []
        self.frames = [0, 0]
        self.saved = [None, None]
        self.outcomes = []
        if reference:
            self.write_byte = ref_write_byte
            self.read_byte = ref_read_byte
        else:
            self.write_byte = lambda mem, ptr, value: mem.write_byte(ptr, value)
            self.read_byte = lambda mem, ptr: mem.read_byte(ptr)

    def record(self, call) -> bool:
        """Run ``call``, keep its outcome, and say whether it completed."""
        self.outcomes.append(_outcome(call))
        return self.outcomes[-1][0] == "ok"

    def toggle_probe(self) -> None:
        bus = self.contexts[0].bus
        if self.probe_attached:
            bus.detach(self.probe)
        else:
            bus.attach(self.probe)
        self.probe_attached = not self.probe_attached

    def pop_frame(self, context: int) -> None:
        if self.frames[context]:
            self.frames[context] -= 1
            self.record(self.contexts[context].stack.pop_frame)

    def restore(self, context: int) -> None:
        """Restore the context's saved checkpoint, if it has one."""
        if self.saved[context] is None:
            return
        image, pointers, frames = self.saved[context]
        ctx = self.contexts[context]
        ctx.restore(image)
        self.frames[context] = frames
        # The restore rebuilds fresh units: aim at them, keep the units that
        # were already dead, and forget the ones made since (they would stay
        # marked alive although the table no longer holds them).
        fresh = {unit.base: unit for unit in ctx.table}
        self.units = [(index, ptr) for index, ptr in self.units if index != context] + [
            (context, FatPointer(fresh[ptr.referent.base]) if alive else ptr)
            for ptr, alive in pointers]

    def observe(self):
        """Everything both sides must agree on, read as a reader would:
        through the error log and the bus, which flush the open run."""
        seen = {"outcomes": self.outcomes}
        for index, ctx in enumerate(self.contexts):
            policy = ctx.policy
            store = getattr(policy, "_store", {})
            sequence = getattr(policy, "sequence", None)
            ctx.bus.sinks  # an observer's read: flushes before the sinks are read
            seen[index] = {
                "segments": {s.name: bytes(s.data) for s in ctx.space.segments()},
                "checks": policy.checks_performed,
                "lookups": ctx.table.lookups,
                "raw_reads": ctx.space.raw_reads,
                "raw_writes": ctx.space.raw_writes,
                "log": [normalize_error(event) for event in ctx.error_log.events()],
                "counters": ctx.error_log.counters.checkpoint(),
                "boundless_store": sorted(sorted(bucket.items())
                                          for bucket in store.values()),
                "stored_total": getattr(policy, "_stored_total", None),
                "sequence": None if sequence is None else sequence.produced,
            }
        seen["shared"] = per_element(self.shared.events)
        seen["probe"] = per_element(self.probe.events)
        return seen


class AccessorMachine(RuleBasedStateMachine):
    """The twin sides, stepped together; the policy is the subclass's."""

    POLICY = "failure-oblivious"

    def __init__(self) -> None:
        super().__init__()
        self.sides = (Side(self.POLICY, reference=True), Side(self.POLICY, reference=False))

    def each(self, operation) -> None:
        """Apply ``operation(side)`` to the reference side, then the shipped
        one, so the reference's records never flush a shipped run early."""
        for side in self.sides:
            side.outcomes = []
            operation(side)

    # -- units ------------------------------------------------------------------

    @rule(context=st.integers(0, 1), size=st.integers(1, 24))
    def malloc(self, context, size):
        def operation(side):
            ctx = side.contexts[context]
            holder = []
            if side.record(lambda: holder.append(ctx.malloc(size, name=f"h{size}"))):
                side.units.append((context, holder[0]))
        self.each(operation)

    @precondition(lambda self: self.sides[0].units)
    @rule(pick=st.integers(0, 63))
    def free(self, pick):
        def operation(side):
            context, ptr = side.units[pick % len(side.units)]
            unit = ptr.referent
            if unit.alive and unit.kind.name == "HEAP":
                side.record(lambda: side.contexts[context].free(FatPointer(unit)))
        self.each(operation)

    @rule(context=st.integers(0, 1),
          sizes=st.lists(st.integers(1, 16), min_size=1, max_size=2))
    def push_frame(self, context, sizes):
        def operation(side):
            ctx = side.contexts[context]
            ctx.stack.push_frame(f"f{side.frames[context]}")
            side.frames[context] += 1
            for i, size in enumerate(sizes):
                side.units.append((context, ctx.stack_buffer(f"local{i}", size)))
            side.record(ctx.seal_frame)
        self.each(operation)

    @precondition(lambda self: any(self.sides[0].frames))
    @rule(context=st.integers(0, 1))
    def pop_frame(self, context):
        self.each(lambda side: side.pop_frame(context))

    # -- accesses ---------------------------------------------------------------

    @precondition(lambda self: self.sides[0].units)
    @rule(pick=st.integers(0, 63), start=st.integers(-6, 30), data=st.data())
    def streak(self, pick, start, data):
        """``write_byte`` at consecutive offsets, with the interjections
        that may or may not end a coalesced run."""
        length = data.draw(st.integers(1, 24), label="length")
        values = data.draw(st.binary(min_size=length, max_size=length), label="values")
        between = data.draw(st.lists(st.sampled_from(INTERJECTIONS),
                                     min_size=length, max_size=length), label="between")
        others = data.draw(st.lists(st.integers(0, 63), min_size=length, max_size=length),
                           label="others")

        def operation(side):
            context, ptr = side.units[pick % len(side.units)]
            ctx = side.contexts[context]
            offset = start
            for value, interjection, other in zip(values, between, others):
                if interjection == "read_valid":
                    base = FatPointer(ptr.referent)
                    side.record(lambda: side.read_byte(ctx.mem, base))
                elif interjection == "read_invalid":
                    side.record(lambda: side.read_byte(ctx.mem, ptr + offset + 64))
                elif interjection == "site":
                    ctx.set_site(SITES[other % 2])
                elif interjection == "request":
                    ctx.set_request(other % 3 or None)
                elif interjection == "probe":
                    side.toggle_probe()
                elif interjection == "store_other":
                    other_context, target = side.units[other % len(side.units)]
                    other_ctx = side.contexts[other_context]
                    if not side.record(lambda: side.write_byte(
                            other_ctx.mem, target + other % 40 - 4, value)):
                        return
                elif interjection == "stream_gap":
                    offset += 1
                elif interjection == "query":
                    side.outcomes.append(QUERIES[other % len(QUERIES)](ctx))
                elif interjection == "pop_frame":
                    side.pop_frame(context)
                elif interjection == "restore" and side.saved[context] is not None:
                    side.restore(context)
                    return
                if not side.record(lambda: side.write_byte(ctx.mem, ptr + offset, value)):
                    return  # a fault ends the streak, as it ends the process
                offset += 1
        self.each(operation)

    @precondition(lambda self: self.sides[0].units)
    @rule(pick=st.integers(0, 63), offset=st.integers(-6, 30))
    def read_byte(self, pick, offset):
        def operation(side):
            context, ptr = side.units[pick % len(side.units)]
            side.record(lambda: side.read_byte(side.contexts[context].mem, ptr + offset))
        self.each(operation)

    @precondition(lambda self: self.sides[0].units)
    @rule(pick=st.integers(0, 63), offset=st.integers(-6, 30),
          payload=st.binary(max_size=24), width=st.sampled_from((1, 2, 4)),
          method=st.sampled_from(("write_each", "write_span")))
    def block_store(self, pick, offset, payload, width, method):
        def operation(side):
            context, ptr = side.units[pick % len(side.units)]
            mem = side.contexts[context].mem
            if method == "write_span":
                side.record(lambda: mem.write_span(ptr + offset, payload))
            else:
                data = payload[:len(payload) // width * width]
                side.record(lambda: mem.write_each(ptr + offset, data, width))
        self.each(operation)

    # -- attribution and observers ------------------------------------------------

    @rule(context=st.integers(0, 1), site=st.sampled_from(SITES))
    def set_site(self, context, site):
        self.each(lambda side: side.contexts[context].set_site(site))

    @rule(context=st.integers(0, 1), request=st.sampled_from((None, 1, 2)))
    def set_request(self, context, request):
        self.each(lambda side: side.contexts[context].set_request(request))

    @rule()
    def toggle_probe(self):
        self.each(lambda side: side.toggle_probe())

    # -- checkpoints ----------------------------------------------------------------

    @rule(context=st.integers(0, 1))
    def checkpoint(self, context):
        def operation(side):
            ctx = side.contexts[context]
            pointers = [(ptr, ptr.referent.alive) for index, ptr in side.units
                        if index == context]
            side.saved[context] = (ctx.checkpoint(), pointers, side.frames[context])
        self.each(operation)

    @precondition(lambda self: any(self.sides[0].saved))
    @rule(context=st.integers(0, 1))
    def restore(self, context):
        self.each(lambda side: side.restore(context))

    @rule(context=st.integers(0, 1))
    def log_queries(self, context):
        """Every error-log query, on both sides."""
        self.each(lambda side: side.outcomes.extend(
            query(side.contexts[context]) for query in QUERIES))

    @invariant()
    def sides_agree(self):
        reference, shipped = (side.observe() for side in self.sides)
        assert shipped == reference


def _machine_for(policy_name):
    machine = type(f"Machine_{policy_name}", (AccessorMachine,), {"POLICY": policy_name})
    return MACHINE_SETTINGS(machine).TestCase


TestStandard = _machine_for("standard")
TestBoundsCheck = _machine_for("bounds-check")
TestFailureOblivious = _machine_for("failure-oblivious")
TestBoundless = _machine_for("boundless")
TestRedirect = _machine_for("redirect")
