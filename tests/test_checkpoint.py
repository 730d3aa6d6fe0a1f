"""Checkpoint/restore round-trips for the memory substrate and policies.

The process-image checkpoint must be a *complete* snapshot: restoring it —
into the same context or a fresh one — yields an image that answers every
observable query exactly as it did at checkpoint time, and behaves
identically afterwards (same allocator reuse, same unit labels, same
manufactured values, same death-hook firing).  These properties are what the
server restart path and the pre-fork child pool are built on.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.policies import (
    BoundlessPolicy,
    FailureObliviousPolicy,
    RedirectPolicy,
)
from repro.errors import MemoryFault
from repro.memory.checkpoint_stream import CheckpointStream
from repro.memory.context import MemoryContext
from tests.conftest import POLICY_CLASSES

POLICY_NAMES = sorted(POLICY_CLASSES)


def _observe(ctx: MemoryContext) -> dict:
    """Everything a program (or the §3 log reader) can observe of an image."""
    policy = ctx.policy
    log = ctx.error_log
    sequence = getattr(policy, "sequence", None)
    return {
        "segments": {s.name: bytes(s.data) for s in ctx.space.segments()},
        "raw_reads": ctx.space.raw_reads,
        "raw_writes": ctx.space.raw_writes,
        "live_labels": [u.label() for u in ctx.table.live_units()],
        "live_spans": [(u.base, u.size, u.kind, u.alive) for u in ctx.table.live_units()],
        "heap": ctx.heap.checkpoint(),
        "stack": ctx.stack.checkpoint(),
        "stats": policy.stats.as_dict(),
        "log_total": log.total_recorded,
        "log_events": log.events(),
        "log_by_site": log.count_by_site(),
        "log_by_kind": log.count_by_kind(),
        "sequence": sequence.checkpoint() if sequence is not None else None,
        "stored": policy.stored_bytes() if isinstance(policy, BoundlessPolicy) else None,
    }


def _boot_like_activity(ctx: MemoryContext) -> None:
    """Deterministic mix of allocs, frees, overflow, and stack work.

    The overflow raises under bounds-check and corrupts the heap under
    standard (so the following free can raise HeapCorruption); both outcomes
    are part of the image being checkpointed, not test failures.
    """
    ctx.set_site("boot")
    keep = ctx.malloc(48, name="keep")
    ctx.mem.write(keep, b"persistent state!")
    scratch = ctx.malloc(24, name="scratch")
    try:
        ctx.mem.write(scratch + 20, b"overflowing tail")  # invalid suffix
        ctx.free(scratch)
    except Exception:
        pass
    with ctx.stack_frame("boot_fn"):
        local = ctx.stack_buffer("local", 16)
        ctx.seal_frame()
        ctx.mem.write(local, b"0123456789abcdef")
    ctx.set_site("")


def _mutate_heavily(ctx: MemoryContext) -> None:
    """Post-checkpoint churn (faults under some policies are expected)."""
    try:
        extra = ctx.malloc(128, name="post")
        ctx.mem.write(extra, b"Z" * 128)
        ctx.mem.write(extra + 120, b"Y" * 40)
        ctx.free(extra)
    except Exception:
        pass
    with ctx.stack_frame("post_fn"):
        ctx.stack_buffer("post_local", 32)
        ctx.seal_frame()


class TestMemoryContextRoundTrip:
    @pytest.mark.parametrize("policy_name", POLICY_NAMES)
    def test_restore_undoes_arbitrary_mutation(self, policy_name):
        ctx = MemoryContext(POLICY_CLASSES[policy_name]())
        _boot_like_activity(ctx)
        image = ctx.checkpoint()
        before = _observe(ctx)

        _mutate_heavily(ctx)

        ctx.restore(image)
        assert _observe(ctx) == before

    @pytest.mark.parametrize("policy_name", POLICY_NAMES)
    def test_restore_into_fresh_context_clones_the_image(self, policy_name):
        ctx = MemoryContext(POLICY_CLASSES[policy_name]())
        _boot_like_activity(ctx)
        image = ctx.checkpoint()

        clone = MemoryContext(POLICY_CLASSES[policy_name]())
        clone.restore(image)
        assert _observe(clone) == _observe(ctx)

        # The clone shares no mutable state: mutating it leaves the original
        # (and the image) untouched.
        probe = clone.malloc(16, name="clone_only")
        try:
            clone.mem.write(probe + 12, b"spill over")
        except Exception:
            pass  # bounds-check raises; the attempt still diverged the clone
        assert _observe(ctx) != _observe(clone)
        ctx.restore(image)
        clone.restore(image)
        assert _observe(clone) == _observe(ctx)

    def test_post_restore_allocations_reproduce_labels_and_free_list(self):
        ctx = MemoryContext(FailureObliviousPolicy())
        _boot_like_activity(ctx)
        hole = ctx.malloc(40, name="hole")
        ctx.free(hole)  # leaves a free-list chunk the next malloc should reuse
        image = ctx.checkpoint()

        def next_alloc_identity(context):
            ptr = context.malloc(40, name="probe")
            return (ptr.referent.label(), ptr.referent.base)

        first = next_alloc_identity(ctx)
        ctx.restore(image)
        second = next_alloc_identity(ctx)
        # Same label (the serial counter is image state) and same base (the
        # free list survived, so the freed chunk is reused identically).
        assert first == second

    def test_death_hooks_still_fire_on_restored_units(self):
        policy = BoundlessPolicy()
        ctx = MemoryContext(policy)
        victim = ctx.malloc(16, name="victim")
        ctx.mem.write(victim + 14, b"spill")  # 3 OOB bytes into the store
        assert policy.stored_bytes() == 3
        image = ctx.checkpoint()

        ctx.restore(image)
        assert ctx.policy.stored_bytes() == 3
        # The restored unit is a fresh object, but the death-hook wiring must
        # still reclaim its boundless bucket when it is freed.
        restored_victim = ctx.heap.live_allocations()[0]
        ctx.heap.free(restored_victim)
        assert ctx.policy.stored_bytes() == 0

    def test_manufactured_sequence_position_is_image_state(self):
        ctx = MemoryContext(FailureObliviousPolicy())
        buf = ctx.malloc(8, name="buf")
        ctx.mem.read(buf + 8, 5)  # consume 5 manufactured values
        image = ctx.checkpoint()
        after_checkpoint = ctx.mem.read(buf + 8, 16)
        ctx.restore(image)
        assert ctx.mem.read(buf + 8, 16) == after_checkpoint

    def test_restore_rejects_mismatched_policy(self):
        image = MemoryContext(FailureObliviousPolicy()).checkpoint()
        with pytest.raises(ValueError):
            MemoryContext(RedirectPolicy()).restore(image)

    def test_segment_mapped_after_checkpoint_is_unmapped_by_restore(self):
        ctx = MemoryContext(FailureObliviousPolicy())
        image = ctx.checkpoint()
        ctx.space.map_segment("extra", 0x9000_0000, 4096)
        ctx.restore(image)
        assert ctx.space.find_segment(0x9000_0000) is None

    def test_error_log_queries_restored_exactly(self):
        ctx = MemoryContext(BoundlessPolicy())
        ctx.set_site("alpha")
        buf = ctx.malloc(8, name="buf")
        ctx.mem.write(buf + 8, b"xy")
        ctx.set_site("beta")
        ctx.mem.read(buf + 10, 3)
        ctx.set_site("")
        image = ctx.checkpoint()
        summary = ctx.error_log.summary()
        events = ctx.error_log.events()

        ctx.mem.write(buf + 8, b"flood" * 50)
        ctx.restore(image)
        assert ctx.error_log.summary() == summary
        assert ctx.error_log.events() == events


# -- Hypothesis properties -------------------------------------------------------

_OPS = st.lists(
    st.tuples(
        st.sampled_from(["malloc", "free", "write", "oob_write", "oob_read"]),
        st.integers(min_value=1, max_value=64),
    ),
    min_size=0,
    max_size=24,
)


def _apply_ops(ctx: MemoryContext, ops) -> None:
    """Drive a context through a deterministic op sequence.

    Every op tolerates policy faults (bounds-check raises on the first OOB
    byte; unchecked overflows corrupt the heap so later mallocs/frees raise):
    the faults themselves are deterministic, so two contexts replaying the
    same ops still converge on the same observable image.
    """
    live = []
    for op, size in ops:
        try:
            if op == "malloc":
                live.append(ctx.malloc(size, name="u"))
            elif op == "free" and live:
                ctx.free(live.pop(size % len(live)))
            elif op == "write" and live:
                ptr = live[size % len(live)]
                ctx.mem.write(ptr, b"w" * min(size, ptr.referent.size))
            elif op == "oob_write" and live:
                ptr = live[size % len(live)]
                ctx.mem.write(ptr + ptr.referent.size, b"o" * size)
            elif op == "oob_read" and live:
                ptr = live[size % len(live)]
                ctx.mem.read(ptr + ptr.referent.size, size)
        except Exception:
            pass


class TestHypothesisRoundTrip:
    @settings(max_examples=25, deadline=None)
    @given(ops=_OPS, policy_name=st.sampled_from(POLICY_NAMES))
    def test_restore_mutate_restore_yields_original_image(self, ops, policy_name):
        """restore -> mutate -> restore again is the original image, exactly."""
        ctx = MemoryContext(POLICY_CLASSES[policy_name]())
        _apply_ops(ctx, ops[: len(ops) // 2])
        image = ctx.checkpoint()
        reference = _observe(ctx)

        _apply_ops(ctx, ops[len(ops) // 2 :])
        ctx.restore(image)
        assert _observe(ctx) == reference

        _apply_ops(ctx, ops)
        ctx.restore(image)
        assert _observe(ctx) == reference

    @settings(max_examples=25, deadline=None)
    @given(ops=_OPS, policy_name=st.sampled_from(POLICY_NAMES))
    def test_restored_image_continues_like_the_original(self, ops, policy_name):
        """A restored image and its pre-mutation self behave identically."""
        ctx = MemoryContext(POLICY_CLASSES[policy_name]())
        image_ctx = MemoryContext(POLICY_CLASSES[policy_name]())
        _apply_ops(ctx, ops)
        _apply_ops(image_ctx, ops)
        assert _observe(ctx) == _observe(image_ctx)

        image = image_ctx.checkpoint()
        clone = MemoryContext(POLICY_CLASSES[policy_name]())
        clone.restore(image)
        # Drive both forward with the same tail; they must stay identical.
        _apply_ops(ctx, ops)
        _apply_ops(clone, ops)
        assert _observe(clone) == _observe(ctx)


class TestRestoreRetiresReplacedUnits:
    """A unit allocated after the checkpoint is dead once the restore drops it.

    Otherwise a stale pointer to it keeps passing the checks while the
    allocator hands its bytes to the next ``malloc``: two live units alias.
    """

    @pytest.mark.parametrize("path", ["context", "stream"])
    @pytest.mark.parametrize("policy_name", [n for n in POLICY_NAMES if n != "standard"])
    def test_stale_pointer_is_an_error_after_restore(self, policy_name, path):
        ctx = MemoryContext(POLICY_CLASSES[policy_name]())
        ctx.malloc(8)
        if path == "context":
            image = ctx.checkpoint()
            stale = ctx.malloc(8)
            ctx.restore(image)
        else:
            stream = CheckpointStream(ctx)
            stale = ctx.malloc(8)
            stream.restore(0)
        assert not stale.referent.alive
        recorded = ctx.error_log.total_recorded
        try:
            ctx.mem.write_byte(stale, 7)
        except MemoryFault:
            pass
        assert ctx.error_log.total_recorded == recorded + 1
        fresh = ctx.malloc(8)
        assert fresh.address == stale.address
        assert fresh.referent is not stale.referent and fresh.referent.alive

    @pytest.mark.parametrize("path", ["context", "stream"])
    @pytest.mark.parametrize("policy_name", [n for n in POLICY_NAMES if n != "standard"])
    def test_pointer_from_before_the_checkpoint_stays_valid(self, policy_name, path):
        """Only units the checkpoint does not hold die: a pointer taken
        before it still reaches its unit's bytes without an error."""
        ctx = MemoryContext(POLICY_CLASSES[policy_name]())
        kept = ctx.malloc(8)
        ctx.mem.write(kept, b"ABCDEFGH")
        if path == "context":
            image = ctx.checkpoint()
            ctx.malloc(8)
            ctx.restore(image)
        else:
            stream = CheckpointStream(ctx)
            ctx.malloc(8)
            stream.restore(0)
        assert kept.referent.alive
        recorded = ctx.error_log.total_recorded
        ctx.mem.write_byte(kept + 7, ord("Z"))
        assert ctx.mem.read(kept, 8) == b"ABCDEFGZ"
        assert ctx.error_log.total_recorded == recorded
        assert [u.base for u in ctx.table.live_units()] == [kept.address]

    @pytest.mark.parametrize("path", ["context", "stream"])
    @pytest.mark.parametrize("policy_name", [n for n in POLICY_NAMES if n != "standard"])
    def test_unit_kept_by_the_checkpoint_can_be_freed_after_restore(self, policy_name, path):
        """``a = malloc(8); checkpoint; restore; free(a)``: the restore keeps
        ``a``'s unit object, so the table still knows it."""
        ctx = MemoryContext(POLICY_CLASSES[policy_name]())
        kept = ctx.malloc(8)
        if path == "context":
            ctx.restore(ctx.checkpoint())
        else:
            CheckpointStream(ctx).restore(0)
        assert ctx.table.live_units() == [kept.referent]
        ctx.free(kept)
        assert not kept.referent.alive
        assert ctx.table.live_units() == []

    @pytest.mark.parametrize("path", ["context", "stream"])
    @pytest.mark.parametrize("policy_name", [n for n in POLICY_NAMES if n != "standard"])
    def test_unit_freed_after_the_checkpoint_is_live_again(self, policy_name, path):
        """``b = malloc(8); checkpoint; free(b); restore``: ``b`` is live in
        the image, so a store through it is valid again."""
        ctx = MemoryContext(POLICY_CLASSES[policy_name]())
        revived = ctx.malloc(8)
        if path == "context":
            image = ctx.checkpoint()
            ctx.free(revived)
            ctx.restore(image)
        else:
            stream = CheckpointStream(ctx)
            ctx.free(revived)
            stream.restore(0)
        assert revived.referent.alive
        assert ctx.table.live_units() == [revived.referent]
        recorded = ctx.error_log.total_recorded
        ctx.mem.write_byte(revived, 7)
        assert ctx.mem.read(revived, 1) == b"\x07"
        assert ctx.error_log.total_recorded == recorded
        ctx.free(revived)
        assert not revived.referent.alive

    @pytest.mark.parametrize("path", ["context", "stream"])
    def test_restore_fires_no_death_hooks(self, path):
        """An image swap is not a program-visible unit death."""
        ctx = MemoryContext(FailureObliviousPolicy())
        ctx.malloc(8)
        died = []
        ctx.table.add_death_hook(died.append)
        if path == "context":
            image = ctx.checkpoint()
            ctx.malloc(8)
            ctx.restore(image)
        else:
            stream = CheckpointStream(ctx)
            ctx.malloc(8)
            stream.restore(0)
        assert died == []
