"""Tests for the unified telemetry spine: bus, sinks, and layer wiring."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errorlog import MemoryErrorLog
from repro.core.policies import BoundlessPolicy, FailureObliviousPolicy, RedirectPolicy
from repro.errors import AccessKind, ErrorKind, MemoryErrorEvent
from repro.harness.engine import ENGINE
from repro.memory.context import MemoryContext
from repro.telemetry import (
    AllocFree,
    CoalescingRingSink,
    CounterSink,
    Discard,
    EventBus,
    InvalidAccess,
    ListSink,
    Manufacture,
    Redirect,
    RequestEnd,
    RequestStart,
    expand_invalid_accesses,
)


def make_error(site="f", offset=10, access=AccessKind.WRITE,
               kind=ErrorKind.OUT_OF_BOUNDS, length=1, request_id=None):
    return MemoryErrorEvent(
        kind=kind, access=access, unit_name="buf#1", unit_size=8,
        offset=offset, length=length, site=site, request_id=request_id,
    )


class TestEventBus:
    def test_emit_reaches_every_sink(self):
        bus = EventBus()
        first, second = bus.attach(ListSink()), bus.attach(ListSink())
        bus.emit(Manufacture(length=3))
        assert len(first.events) == len(second.events) == 1

    def test_detach_stops_delivery(self):
        bus = EventBus()
        sink = bus.attach(ListSink())
        bus.detach(sink)
        bus.emit(Manufacture(length=3))
        assert sink.events == []

    def test_attach_is_idempotent(self):
        bus = EventBus()
        sink = ListSink()
        bus.attach(sink)
        bus.attach(sink)
        bus.emit(Discard(length=1))
        assert len(sink.events) == 1

    def test_list_sink_type_filter(self):
        bus = EventBus()
        sink = bus.attach(ListSink(event_types=(Discard,)))
        bus.emit(Manufacture(length=1))
        bus.emit(Discard(length=2))
        assert [type(e) for e in sink.events] == [Discard]


class TestCounterSink:
    def test_counts_by_type_and_payload(self):
        sink = CounterSink()
        sink.emit(InvalidAccess(error=make_error(site="a", access=AccessKind.READ)))
        sink.emit(InvalidAccess(error=make_error(site="a")))
        sink.emit(Manufacture(length=5))
        sink.emit(Discard(length=7))
        sink.emit(Discard(length=2, stored=True))
        sink.emit(Redirect(offset=9, redirect_offset=1, length=1))
        sink.emit(AllocFree(op="malloc", unit_name="u", size=8, base=0))
        sink.emit(AllocFree(op="free", unit_name="u", size=8, base=0))
        sink.emit(RequestEnd(request_id=1, kind="read", outcome="served"))
        assert sink.invalid_total == 2
        assert sink.invalid_by_site["a"] == 2
        assert sink.invalid_by_access[AccessKind.READ] == 1
        assert sink.manufactured_bytes == 5
        assert sink.discarded_bytes == 7
        assert sink.stored_bytes == 2
        assert sink.redirected_accesses == 1
        assert sink.allocations == 1 and sink.frees == 1
        assert sink.requests_by_outcome["served"] == 1

    def test_attack_request_never_runs_enum_hash(self):
        """The counters key by ErrorKind/AccessKind on every invalid access;
        their hashing must stay in C, not run ``Enum.__hash__``."""
        import cProfile
        import pstats

        profile = ENGINE.profile("apache")
        server = ENGINE.build_server("apache", "failure-oblivious", plant_attack=True)
        server.start()
        try:
            for request in profile.make_follow_ups():
                server.process(request)
            recorded = server.ctx.error_log.total_recorded
            profiler = cProfile.Profile()
            profiler.enable()
            server.process(profile.make_attack_request())
            profiler.disable()
            assert server.ctx.error_log.total_recorded > recorded
        finally:
            server.stop()
        enum_hashes = [where for where in pstats.Stats(profiler).stats
                       if where[2] == "__hash__" and where[0].endswith("enum.py")]
        assert enum_hashes == []


class NaiveRing:
    """Reference model: an unbounded-cost list with oldest-first eviction."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.items = []
        self.dropped = 0

    def append(self, event):
        self.items.append(event)
        if len(self.items) > self.capacity:
            self.items.pop(0)
            self.dropped += 1


class TestCoalescingRingSink:
    def test_per_byte_flood_is_one_run(self):
        ring = CoalescingRingSink(capacity=10_000)
        flood = [make_error(offset=100 + i) for i in range(5_000)]
        for error in flood:
            ring.append(error)
        assert ring.run_count == 1
        assert len(ring) == 5_000
        assert ring.events() == flood

    def test_same_offset_repeats_coalesce_with_zero_stride(self):
        ring = CoalescingRingSink(capacity=100)
        for _ in range(50):
            ring.append(make_error(offset=42))
        assert ring.run_count == 1
        assert ring.events() == [make_error(offset=42)] * 50

    def test_site_change_starts_a_new_run(self):
        ring = CoalescingRingSink(capacity=100)
        ring.append(make_error(site="a", offset=0))
        ring.append(make_error(site="a", offset=1))
        ring.append(make_error(site="b", offset=2))
        assert ring.run_count == 2

    def test_eviction_shrinks_oldest_run_first(self):
        ring = CoalescingRingSink(capacity=4)
        flood = [make_error(offset=i) for i in range(6)]
        for error in flood:
            ring.append(error)
        assert len(ring) == 4
        assert ring.dropped == 2
        assert ring.events() == flood[-4:]

    def test_tail_matches_events_slice(self):
        ring = CoalescingRingSink(capacity=50)
        for i in range(30):
            ring.append(make_error(site="a" if i % 7 else "b", offset=i))
        events = ring.events()
        for n in (0, 1, 5, 29, 30, 100):
            assert ring.tail(n) == (events[-n:] if n > 0 else [])

    @settings(max_examples=60, deadline=None)
    @given(
        capacity=st.integers(1, 12),
        steps=st.lists(
            st.tuples(st.sampled_from(["a", "b"]), st.integers(0, 6)),
            max_size=60,
        ),
    )
    def test_matches_naive_model(self, capacity, steps):
        """Coalesced storage is observably identical to an uncoalesced list."""
        ring = CoalescingRingSink(capacity=capacity)
        naive = NaiveRing(capacity=capacity)
        for site, offset in steps:
            event = make_error(site=site, offset=offset)
            ring.append(event)
            naive.append(event)
        assert ring.events() == naive.items
        assert len(ring) == len(naive.items)
        assert ring.dropped == naive.dropped

    @settings(max_examples=120, deadline=None)
    @given(
        capacity=st.integers(1, 40),
        steps=st.lists(
            st.tuples(
                st.sampled_from(["a", "b"]),     # site: starts new runs
                st.integers(-5, 30),             # first offset
                st.integers(1, 25),              # run count (1 = single append)
                st.integers(-2, 3),              # stride for run appends
            ),
            max_size=40,
        ),
        tails=st.lists(st.integers(0, 60), max_size=4),
    )
    def test_invariants_under_random_run_streams(self, capacity, steps, tails):
        """Acceptance invariants under random single/run streams with partial
        evictions: retained size never exceeds capacity, events() equals an
        uncoalesced reference log, and tail(n) is always events()[-n:]."""
        ring = CoalescingRingSink(capacity=capacity)
        naive = NaiveRing(capacity=capacity)
        for site, offset, count, stride in steps:
            first = make_error(site=site, offset=offset)
            if count == 1:
                ring.append(first)
                naive.append(first)
            else:
                ring.append_run(first, stride=stride, count=count)
                for i in range(count):
                    naive.append(make_error(site=site, offset=offset + stride * i))
            assert len(ring) <= ring.capacity
        events = ring.events()
        assert events == naive.items
        assert len(ring) == len(events)
        assert ring.dropped == naive.dropped
        for n in tails + [len(events), len(events) + 5]:
            assert ring.tail(n) == (events[-n:] if n > 0 else [])


class TestErrorLogFacade:
    """The §3 log is a façade over the bus: its answers equal direct bus queries."""

    def test_record_publishes_on_the_bus(self):
        log = MemoryErrorLog()
        capture = log.bus.attach(ListSink((InvalidAccess,)))
        event = make_error()
        log.record(event)
        assert capture.events == [InvalidAccess(error=event)]

    def test_facade_queries_equal_direct_bus_queries(self):
        log = MemoryErrorLog()
        counter = log.bus.attach(CounterSink())
        capture = log.bus.attach(ListSink((InvalidAccess,)))
        for i in range(40):
            log.record(make_error(site="hot" if i % 3 else "cold", offset=i,
                                  access=AccessKind.READ if i % 2 else AccessKind.WRITE))
        assert log.total_recorded == counter.invalid_total == 40
        assert log.count_by_site() == Counter(counter.invalid_by_site)
        assert log.count_by_kind() == Counter(counter.invalid_by_kind)
        assert log.count_reads() == counter.invalid_by_access[AccessKind.READ]
        assert log.count_writes() == counter.invalid_by_access[AccessKind.WRITE]
        assert log.events() == [e.error for e in capture.events]

    def test_facade_equivalence_on_a_real_attack_scenario(self):
        """Acceptance: façade output equals bus queries for a live server run."""
        profile = ENGINE.profile("pine")
        server = ENGINE.build_server("pine", "failure-oblivious",
                                     plant_attack=True, scale=0.1)
        counter = server.add_telemetry_sink(CounterSink())
        capture = server.add_telemetry_sink(ListSink((InvalidAccess,)))
        server.start()
        server.process(profile.make_attack_request())
        for request in profile.make_follow_ups():
            server.process(request)
        log = server.ctx.error_log
        assert log.total_recorded == counter.invalid_total > 0
        assert log.count_by_site() == Counter(counter.invalid_by_site)
        assert log.count_by_kind() == Counter(counter.invalid_by_kind)
        # The batched continuation publishes floods as run records; the log
        # expands them, so the captured stream must be expanded to compare.
        assert log.events() == expand_invalid_accesses(capture.events)

    def test_capacity_still_enforced(self):
        log = MemoryErrorLog(capacity=2)
        for i in range(5):
            log.record(make_error(offset=i))
        assert len(log) == 2
        assert log.total_recorded == 5
        assert log.dropped == 3

    def test_shared_bus_constructor(self):
        bus = EventBus()
        log = MemoryErrorLog(capacity=10, bus=bus)
        bus.emit(InvalidAccess(error=make_error()))
        assert log.total_recorded == 1


class TestPolicyEmission:
    def _oob_write(self, ctx):
        ptr = ctx.malloc(8, name="buf")
        ctx.mem.write(ptr + 6, b"xxxx")  # 2 bytes in bounds, 2 beyond

    def test_failure_oblivious_emits_discard_and_manufacture(self):
        policy = FailureObliviousPolicy()
        ctx = MemoryContext(policy)
        capture = ctx.bus.attach(ListSink((Discard, Manufacture)))
        self._oob_write(ctx)
        ptr = ctx.malloc(8, name="buf2")
        ctx.mem.read(ptr + 5, 6)  # 3 bytes in bounds, 3 beyond
        kinds = [type(e) for e in capture.events]
        assert kinds == [Discard, Manufacture]
        assert capture.events[0].length == 2
        assert capture.events[1].length == 3

    def test_redirect_policy_emits_redirect(self):
        policy = RedirectPolicy()
        ctx = MemoryContext(policy)
        capture = ctx.bus.attach(ListSink((Redirect,)))
        self._oob_write(ctx)
        assert len(capture.events) == 1
        event = capture.events[0]
        assert event.offset == 8 and event.redirect_offset == 0
        assert event.access == "write"

    def test_policy_scope_labels_the_bus(self):
        assert FailureObliviousPolicy().bus.scope["policy"] == "failure-oblivious"

    def test_boundless_overwrites_do_not_inflate_stored_bytes(self):
        """Discard(stored=True) events count newly stored offsets, like stats."""
        policy = BoundlessPolicy()
        ctx = MemoryContext(policy)
        counter = ctx.bus.attach(CounterSink())
        ptr = ctx.malloc(8, name="buf")
        ctx.mem.write(ptr + 8, b"abcd")  # four new out-of-bounds offsets
        ctx.mem.write(ptr + 8, b"wxyz")  # the same offsets, overwritten
        assert policy.stats.stored_out_of_bounds_bytes == 4
        assert counter.stored_bytes == 4


class TestAllocatorEmission:
    def test_malloc_and_free_emit_allocfree(self, fo_ctx):
        capture = fo_ctx.bus.attach(ListSink((AllocFree,)))
        ptr = fo_ctx.malloc(32, name="work")
        fo_ctx.free(ptr)
        ops = [(e.op, e.size) for e in capture.events]
        assert ops == [("malloc", 32), ("free", 32)]

    def test_allocfree_carries_the_current_request_id(self, fo_ctx):
        capture = fo_ctx.bus.attach(ListSink((AllocFree,)))
        fo_ctx.set_request(77)
        fo_ctx.malloc(8)
        fo_ctx.set_request(None)
        assert capture.events[0].request_id == 77


class TestServerEmission:
    def test_request_lifecycle_events(self):
        profile = ENGINE.profile("apache")
        server = ENGINE.build_server("apache", "failure-oblivious", scale=0.1)
        capture = server.add_telemetry_sink(ListSink((RequestStart, RequestEnd)))
        server.start()
        request = profile.make_request(profile.figure_rows[0], 0)
        result = server.process(request)
        kinds = [type(e).__name__ for e in capture.events]
        assert kinds == ["RequestStart", "RequestEnd", "RequestStart", "RequestEnd"]
        startup_end = capture.events[1]
        assert startup_end.kind == "__startup__"
        request_end = capture.events[3]
        assert request_end.request_id == request.request_id
        assert request_end.outcome == result.outcome.value
        assert request_end.memory_errors == len(result.memory_errors)

    def test_request_end_error_sites_match_result(self):
        profile = ENGINE.profile("pine")
        server = ENGINE.build_server("pine", "failure-oblivious",
                                     plant_attack=True, scale=0.1)
        capture = server.add_telemetry_sink(ListSink((RequestEnd,)))
        server.start()
        attack = profile.make_attack_request()
        result = server.process(attack)
        end = [e for e in capture.events if e.request_id == attack.request_id][-1]
        expected = Counter(e.site for e in result.memory_errors)
        assert Counter(dict(end.error_sites)) == expected
        assert end.is_attack

    def test_sinks_survive_restart(self):
        server = ENGINE.build_server("apache", "failure-oblivious", scale=0.1)
        capture = server.add_telemetry_sink(ListSink((RequestEnd,)))
        server.start()
        before = len(capture.events)
        server.restart()
        assert len(capture.events) > before
        assert server.ctx.bus.scope["server"] == "apache"

    def test_server_scope_labels_the_bus(self):
        server = ENGINE.build_server("mutt", "standard", scale=0.1)
        assert server.ctx.bus.scope["server"] == "mutt"
        assert server.ctx.bus.scope["policy"] == "standard"


class TestRingCostCeiling:
    def test_attack_flood_storage_is_runs_not_events(self):
        """A per-byte OOB flood must not allocate one retained object per byte."""
        policy = FailureObliviousPolicy()
        ctx = MemoryContext(policy)
        ptr = ctx.malloc(16, name="flood")
        ctx.mem.set_site("flood.site")
        for i in range(2_000):
            ctx.mem.write_byte(ptr + 16 + i, 0x41)
        log = ctx.error_log
        assert log.total_recorded == 2_000
        assert log._ring.run_count < 10
        assert log.events()[0].offset == 16
        assert log.events()[-1].offset == 16 + 1_999


@pytest.mark.parametrize("capacity", [1, 3])
def test_facade_clear_resets_everything(capacity):
    log = MemoryErrorLog(capacity=capacity)
    for i in range(5):
        log.record(make_error(offset=i))
    log.clear()
    assert len(log) == 0
    assert log.total_recorded == 0
    assert log.dropped == 0


# ---------------------------------------------------------------------------
# Batched-run telemetry (PR 4): run records, ring ingest, store reclaim.
# ---------------------------------------------------------------------------


class TestRunRecords:
    def test_counter_sink_weighs_runs(self):
        sink = CounterSink()
        sink.emit(InvalidAccess(error=make_error(site="a"), count=100, stride=1))
        sink.emit(Manufacture(length=40, count=40))
        sink.emit(Discard(length=60, count=60))
        sink.emit(Redirect(offset=9, redirect_offset=1, length=50, count=50))
        assert sink.invalid_total == 100
        assert sink.invalid_by_site["a"] == 100
        assert sink.by_type["InvalidAccess"] == 100
        assert sink.by_type["Redirect"] == 50
        assert sink.manufactured_bytes == 40
        assert sink.discarded_bytes == 60
        assert sink.redirected_accesses == 50

    def test_run_record_expands_to_per_byte_events(self):
        run = InvalidAccess(error=make_error(offset=7), count=4, stride=1)
        assert [e.offset for e in run.expand()] == [7, 8, 9, 10]
        assert expand_invalid_accesses([run, InvalidAccess(error=make_error(offset=99))]) \
            == list(run.expand()) + [make_error(offset=99)]

    def test_ring_ingests_runs_directly(self):
        ring = CoalescingRingSink(capacity=10_000)
        ring.emit(InvalidAccess(error=make_error(offset=100), count=5_000, stride=1))
        assert ring.run_count == 1
        assert len(ring) == 5_000
        assert ring.events() == [make_error(offset=100 + i) for i in range(5_000)]

    def test_ring_merges_contiguous_run_chunks(self):
        """Consecutive chunks of one flood (successive source spans) stay one run."""
        ring = CoalescingRingSink(capacity=10_000)
        ring.append_run(make_error(offset=0), stride=1, count=64)
        ring.append_run(make_error(offset=64), stride=1, count=64)
        assert ring.run_count == 1
        assert ring.events() == [make_error(offset=i) for i in range(128)]

    def test_run_larger_than_capacity_keeps_newest_tail(self):
        ring = CoalescingRingSink(capacity=100)
        ring.append_run(make_error(offset=0), stride=1, count=1_000)
        assert len(ring) == 100
        assert ring.dropped == 900
        assert ring.events() == [make_error(offset=i) for i in range(900, 1_000)]

    def test_mixed_singles_and_runs_match_per_byte_log(self):
        """The same flood recorded as runs or per byte answers identically."""
        per_byte = MemoryErrorLog(capacity=300)
        batched = MemoryErrorLog(capacity=300)
        batched.record(make_error(offset=0))
        per_byte.record(make_error(offset=0))
        batched.record_run(make_error(offset=1), count=500)
        for i in range(500):
            per_byte.record(make_error(offset=1 + i))
        batched.record_run(make_error(site="b", offset=0), count=3)
        for i in range(3):
            per_byte.record(make_error(site="b", offset=i))
        assert batched.events() == per_byte.events()
        assert batched.total_recorded == per_byte.total_recorded
        assert batched.dropped == per_byte.dropped
        assert batched.count_by_site() == per_byte.count_by_site()
        assert batched.tail(7) == per_byte.tail(7)


class TestCounterSinkClear:
    def test_clear_resets_every_field(self):
        sink = CounterSink()
        sink.emit(InvalidAccess(error=make_error()))
        sink.emit(Manufacture(length=5))
        sink.emit(RequestEnd(request_id=1, kind="read", outcome="served"))
        sink.clear()
        assert sink == CounterSink()

    def test_clear_does_not_reinvoke_init(self):
        """Subclasses with richer constructors survive clear() (the old
        ``self.__init__()`` reset would call the subclass __init__ with no
        arguments and blow up or corrupt non-init state)."""

        class TaggedCounterSink(CounterSink):
            def __init__(self, tag):
                super().__init__()
                self.tag = tag

        sink = TaggedCounterSink("keep-me")
        sink.emit(Manufacture(length=3))
        sink.clear()
        assert sink.tag == "keep-me"
        assert sink.manufactured_bytes == 0


class TestBoundlessReclaim:
    def test_free_releases_stored_capacity(self):
        policy = BoundlessPolicy(max_stored_bytes=8)
        ctx = MemoryContext(policy)
        ptr = ctx.malloc(8, name="leaky")
        ctx.mem.write(ptr + 8, b"abcdefgh")  # fill the side store
        assert policy.stored_bytes() == 8
        ctx.free(ptr)
        assert policy.stored_bytes() == 0
        # The released capacity is usable again: a fresh unit's overflow is
        # stored, not silently degraded to discard mode.
        fresh = ctx.malloc(8, name="fresh")
        ctx.mem.write(fresh + 8, b"XY")
        data = ctx.mem.read(fresh + 8, 2)
        assert data == b"XY"
        assert policy.stored_bytes() == 2

    def test_free_of_other_unit_keeps_store(self):
        policy = BoundlessPolicy()
        ctx = MemoryContext(policy)
        keeper, other = ctx.malloc(8, name="keeper"), ctx.malloc(8, name="other")
        ctx.mem.write(keeper + 8, b"zz")
        ctx.free(other)
        assert policy.stored_bytes() == 2
        assert ctx.mem.read(keeper + 8, 2) == b"zz"

    def test_stack_frame_pop_releases_stored_capacity(self):
        """Stack locals die by frame pop, which never emits AllocFree; the
        object-table death hook reclaims their store anyway — otherwise a
        soak overflowing a stack local each request leaks to capacity."""
        policy = BoundlessPolicy(max_stored_bytes=8)
        ctx = MemoryContext(policy)
        for _ in range(5):  # each iteration would leak 8 bytes without reclaim
            with ctx.stack_frame("handler"):
                buf = ctx.stack_buffer("local", 8)
                ctx.seal_frame()
                ctx.mem.write(buf + 8, b"abcdefgh")
                assert policy.stored_bytes() == 8
            assert policy.stored_bytes() == 0
