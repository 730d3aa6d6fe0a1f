"""Shared-memory image lifecycle: sharing is invisible, cleanup is guaranteed.

The fleet scheduler and the Apache pre-fork pool place template checkpoint
payloads in ``multiprocessing.shared_memory`` so clones restore from one
shared copy.  Two things must hold:

* sharing never changes what a restore produces (bit-identical payloads); and
* the ``/dev/shm`` segments are always released — on normal completion, on
  an exception mid-run, and even when a pool worker is killed outright.
"""

from __future__ import annotations

import os
import signal
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.policies import FailureObliviousPolicy
from repro.fleet import scheduler
from repro.fleet.scheduler import InstanceSpec, run_fleet
from repro.memory.address_space import DIRTY_BLOCK, AddressSpace
from repro.memory.checkpoint_stream import CheckpointStream
from repro.memory.context import MemoryContext
from repro.memory.pointer import FatPointer
from repro.memory import shared_image
from repro.memory.shared_image import SharedImageStore
from repro.recovery.supervisor import RecoveryPolicy
from repro.recovery.forensics import load_snapshot, save_snapshot
from repro.servers.apache import ApacheServer, ChildProcessPool
from repro.servers.base import Server
from repro.workloads.attacks import apache_vulnerable_config
from tests.conftest import POLICY_CLASSES

SHM_DIR = "/dev/shm"
POLICY_NAMES = sorted(POLICY_CLASSES)
#: The heap sizes of the timed clone gate
#: (``benchmarks/test_substrate_throughput.py``), 10x apart.
CLONE_HEAP_SMALL = 4 * 1024 * 1024
CLONE_HEAP_LARGE = 40 * 1024 * 1024


def _record_store_names(monkeypatch) -> list:
    """Collect the shared-memory names every store holds as it closes.

    The leak checks look only at the ``/dev/shm`` entries this run's stores
    created, so another process's segments cannot fail them.
    """
    names: list = []
    close = SharedImageStore.close

    def recording_close(self) -> None:
        names.extend(self.names)
        close(self)

    monkeypatch.setattr(SharedImageStore, "close", recording_close)
    return names


def _capture_fleet_stores(monkeypatch) -> list:
    """Collect every store ``run_fleet`` creates, in creation order."""
    stores: list = []

    def capturing_store() -> SharedImageStore:
        store = SharedImageStore()
        stores.append(store)
        return store

    monkeypatch.setattr(scheduler, "SharedImageStore", capturing_store)
    return stores


def _still_present(names) -> list:
    """Those of ``names`` that still exist in /dev/shm."""
    return [name for name in names if os.path.exists(os.path.join(SHM_DIR, name))]


def _supports_shm() -> bool:
    return os.path.isdir(SHM_DIR)


class TestSharedImageStore:
    def test_shared_restore_is_bit_identical(self):
        ctx = MemoryContext(FailureObliviousPolicy())
        buf = ctx.malloc(64)
        ctx.mem.write(buf, b"template state, to be cloned")
        image = ctx.checkpoint()
        with SharedImageStore() as store:
            shared = store.share_image(image)
            ctx.mem.write(buf, b"scribbled over by the clone!")
            ctx.restore(shared)
            assert ctx.mem.read(buf, 28) == b"template state, to be cloned"

    def test_share_space_payloads_equal_original(self):
        ctx = MemoryContext(FailureObliviousPolicy())
        buf = ctx.malloc(32)
        ctx.mem.write(buf, b"payload bytes")
        cp = ctx.space.checkpoint()
        with SharedImageStore() as store:
            shared = store.share_space(cp)
            for (name, base, contents), (sname, sbase, scontents) in zip(
                cp.segments, shared.segments
            ):
                assert (name, base) == (sname, sbase)
                assert bytes(scontents) == bytes(contents)
                assert isinstance(scontents, memoryview) and scontents.readonly

    @pytest.mark.skipif(not os.path.isdir(SHM_DIR), reason="no /dev/shm")
    def test_close_unlinks_the_segment(self):
        ctx = MemoryContext(FailureObliviousPolicy())
        ctx.malloc(32)
        store = SharedImageStore()
        store.share_image(ctx.checkpoint())
        names = list(store.names)
        assert names and all(
            os.path.exists(os.path.join(SHM_DIR, name)) for name in names
        )
        store.close()
        assert store.closed and not store.active
        for name in names:
            assert not os.path.exists(os.path.join(SHM_DIR, name))
        store.close()  # idempotent

    def test_sharing_an_already_shared_image_passes_through(self):
        ctx = MemoryContext(FailureObliviousPolicy())
        ctx.malloc(16)
        image = ctx.checkpoint()
        with SharedImageStore() as store:
            shared = store.share_image(image)
            assert store.share_image(shared) is shared

    def test_closed_store_passes_images_through(self):
        ctx = MemoryContext(FailureObliviousPolicy())
        image = ctx.checkpoint()
        store = SharedImageStore()
        store.close()
        assert store.share_image(image) is image


class TestPoolAndSchedulerCleanup:
    def test_child_pool_close_releases_template(self, monkeypatch):
        created = _record_store_names(monkeypatch)
        pool = ChildProcessPool(
            FailureObliviousPolicy, pool_size=2, config=apache_vulnerable_config()
        )
        from repro.servers.base import Request

        pool.dispatch(Request(kind="GET", payload=b"/index.html"))
        pool.close()
        assert created or not _supports_shm()
        assert not _still_present(created)
        # A dispatch after close re-forks through the closed store and still
        # serves; it simply no longer uses shared memory.
        shared = len(created)
        pool.dispatch(Request(kind="GET", payload=b"/index.html"))
        pool.close()
        assert len(created) == shared
        assert not _still_present(created)

    def test_run_fleet_closes_its_store(self, monkeypatch):
        created = _record_store_names(monkeypatch)
        stores = _capture_fleet_stores(monkeypatch)
        result = run_fleet(
            [InstanceSpec("apache", "failure-oblivious", count=2)],
            total_requests=40,
            seed=5,
            workers=0,
        )
        assert result.instances
        assert len(stores) == 1 and stores[0].closed
        assert created or not _supports_shm()
        assert not _still_present(created)

    @pytest.mark.skipif(not _supports_shm(), reason="no /dev/shm")
    def test_worker_killed_mid_run_leaks_nothing(self, monkeypatch):
        """SIGKILL a pool worker mid-shard: run_fleet raises, /dev/shm stays clean."""
        from concurrent.futures.process import BrokenProcessPool

        def _die(run, shard_index):
            # Runs inside the forked worker (the fork inherits the patched
            # module), so only the pool child dies — never the test process.
            os.kill(os.getpid(), signal.SIGKILL)

        monkeypatch.setattr(scheduler, "_run_fleet_shard", _die)
        created = _record_store_names(monkeypatch)
        stores = _capture_fleet_stores(monkeypatch)
        with pytest.raises(BrokenProcessPool):
            run_fleet(
                [InstanceSpec("apache", "failure-oblivious", count=2)],
                total_requests=40,
                seed=5,
                workers=2,
                shards=2,
            )
        assert len(stores) == 1 and stores[0].closed
        assert created
        assert not _still_present(created)


class TestCloneCost:
    """Counted twin of the timed clone gate
    (``benchmarks/test_substrate_throughput.py::test_clone_cost_flat_as_image_grows``).

    That gate times adopting a shared Apache boot image and asks the time not
    to grow when the heap grows 10x.  This one states the same claim in
    counted work: the restore into a fresh clone copies the same number of
    blocks whatever the heap size, because it copies only blocks either side
    has ever written.
    """

    @staticmethod
    def _clone_blocks(heap_size: int) -> int:
        """Blocks copied restoring a shared Apache boot image into a fresh
        server's address space (the byte-copying step of ``adopt_image``)."""
        template = ApacheServer(FailureObliviousPolicy, config=apache_vulnerable_config(),
                                heap_size=heap_size)
        template.start()
        clone = ApacheServer(FailureObliviousPolicy, config=apache_vulnerable_config(),
                             heap_size=heap_size)
        with SharedImageStore() as store:
            shared = store.share_image(template.boot_image.ctx)
            copied = clone.ctx.space.restore(shared.space)
        clone.stop()
        template.stop()
        return copied

    def test_clone_copies_the_same_blocks_as_the_image_grows(self):
        small = self._clone_blocks(CLONE_HEAP_SMALL)
        large = self._clone_blocks(CLONE_HEAP_LARGE)
        assert small > 0
        assert large == small, (
            f"a clone copied {small} blocks on a {CLONE_HEAP_SMALL}-byte heap and "
            f"{large} on a 10x heap: cloning is no longer O(touched bytes)"
        )


class TestShareCost:
    """Counted cost of sharing a template image, beside :class:`TestCloneCost`.

    A freshly created shared-memory block is zero-filled, and every block of
    a checkpoint outside its ``touched_blocks`` is all zeros.  So sharing an
    image needs to write only the touched blocks: the copy, and the pages of
    the block that become resident, must not grow when the heap grows 10x.
    """

    @staticmethod
    def _share(heap_size: int):
        """Share an Apache boot image; returns (touched blocks, store, names)
        with the store still open so its block can be inspected."""
        template = ApacheServer(FailureObliviousPolicy, config=apache_vulnerable_config(),
                                heap_size=heap_size)
        template.start()
        space = template.boot_image.ctx.space
        touched = sum(len(blocks) for _name, blocks in space.touched_blocks)
        store = SharedImageStore()
        store.share_space(space)
        template.stop()
        return touched, store

    @staticmethod
    def _resident_blocks(store: SharedImageStore) -> int:
        """DIRTY_BLOCK-sized blocks of storage the store's shared blocks hold."""
        allocated = sum(
            os.stat(os.path.join(SHM_DIR, name)).st_blocks * 512 for name in store.names
        )
        return allocated // DIRTY_BLOCK

    @pytest.mark.skipif(not _supports_shm(), reason="no /dev/shm")
    def test_shared_block_holds_the_same_pages_as_the_image_grows(self):
        touched_small, store_small = self._share(CLONE_HEAP_SMALL)
        touched_large, store_large = self._share(CLONE_HEAP_LARGE)
        with store_small, store_large:
            small = self._resident_blocks(store_small)
            large = self._resident_blocks(store_large)
        assert touched_small == touched_large > 0
        assert small == large, (
            f"sharing backed {small} blocks for a {CLONE_HEAP_SMALL}-byte heap and "
            f"{large} for a 10x heap: sharing is no longer O(touched bytes)"
        )

    def test_share_copies_exactly_the_touched_blocks(self):
        touched_small, store_small = self._share(CLONE_HEAP_SMALL)
        touched_large, store_large = self._share(CLONE_HEAP_LARGE)
        with store_small, store_large:
            small = store_small.blocks_copied
            large = store_large.blocks_copied
        assert small == large == touched_small == touched_large > 0, (
            f"sharing copied {small} blocks on a {CLONE_HEAP_SMALL}-byte heap and "
            f"{large} on a 10x heap; the image touched {touched_small} and {touched_large}"
        )


#: The ``fleet-soak`` benchmark workload's fleet (``perfbench/serving.py``):
#: five failure-oblivious mail/file servers and one bounds-check Commander,
#: attacked every 20th request, supervised, a fault every 101st.
FLEET_SOAK_SPECS = [
    InstanceSpec(server=name, policy="failure-oblivious", attack_every=20)
    for name in ("sendmail", "minic-sendmail", "pine", "mutt", "midnight-commander")
] + [InstanceSpec(server="midnight-commander", policy="bounds-check", attack_every=20)]
FLEET_SOAK_KW = dict(recovery=RecoveryPolicy(), fault_every=101)


def _touched(image) -> int:
    return sum(len(blocks) for _name, blocks in image.ctx.space.touched_blocks)


class TestFleetCaptureCost:
    """Counted cost of a fleet's set-up: no full copy of any segment.

    Each template is captured once, straight into the run's store, which
    copies exactly the image's touched blocks; each supervised clone's
    snapshot 0 is the image it adopted, not a fresh checkpoint of it.
    """

    def test_fleet_setup_copies_only_touched_blocks(self, monkeypatch):
        stores = _capture_fleet_stores(monkeypatch)
        full_checkpoints = []
        checkpoint = AddressSpace.checkpoint

        def counting_checkpoint(space):
            full_checkpoints.append(space)
            return checkpoint(space)

        monkeypatch.setattr(AddressSpace, "checkpoint", counting_checkpoint)
        templates = []
        start = Server.start

        def recording_start(server, *args, **kwargs):
            before = stores[-1].blocks_copied
            result = start(server, *args, **kwargs)
            templates.append((server.boot_image, stores[-1].blocks_copied - before))
            return result

        monkeypatch.setattr(Server, "start", recording_start)
        clones = []
        supervise_clone = scheduler._FleetRun.supervise_clone

        def recording_supervise_clone(run, instance):
            supervisor, sink = supervise_clone(run, instance)
            image = supervisor.server.boot_image
            clones.append((supervisor.stream, image, list(supervisor._states)))
            return supervisor, sink

        monkeypatch.setattr(scheduler._FleetRun, "supervise_clone", recording_supervise_clone)

        result = run_fleet(FLEET_SOAK_SPECS, total_requests=300, seed=121, workers=0,
                           **FLEET_SOAK_KW)

        assert result.total_requests == 300
        assert full_checkpoints == [], (
            f"{len(full_checkpoints)} full address-space checkpoints in one fleet run"
        )
        assert len(stores) == 1 and len(templates) == len(FLEET_SOAK_SPECS)
        for image, copied in templates:
            assert copied == _touched(image) > 0
        assert stores[0].blocks_copied == sum(_touched(image) for image, _ in templates)
        assert len(clones) == len(FLEET_SOAK_SPECS)
        for stream, image, states in clones:
            assert stream is not None
            assert stream.base is image.ctx
            assert states == [image.state] and states[0] is image.state


class TestSharingUnavailable:
    """Fleet tallies do not depend on where the images live or on workers."""

    @staticmethod
    def _tallies(**kwargs):
        result = run_fleet(FLEET_SOAK_SPECS, total_requests=300, seed=122,
                           **FLEET_SOAK_KW, **kwargs)
        return [tally.as_dict() for tally in result.instances]

    def test_tallies_equal_without_shared_memory_and_across_workers(self, monkeypatch):
        shared = self._tallies(workers=0)
        assert shared == self._tallies(workers=2)
        monkeypatch.setattr(shared_image, "_shared_memory", None)
        stores = _capture_fleet_stores(monkeypatch)
        assert self._tallies(workers=0) == shared
        assert stores[0].blocks_copied == 0 and not stores[0].names


# -- sharing is invisible to every checkpoint producer ------------------------

#: Small, unaligned segments keep each example cheap and give every segment
#: a final partial block.
_SIZES = dict(globals_size=3 * DIRTY_BLOCK + 100, heap_size=16 * DIRTY_BLOCK + 9,
              stack_size=4 * DIRTY_BLOCK + 1)

_SHARE_STEPS = st.lists(
    st.tuples(
        st.sampled_from(["malloc", "write", "oob_write", "raw_write", "free",
                         "stack", "snapshot", "restore", "clone"]),
        st.integers(min_value=0, max_value=10**6),
    ),
    max_size=30,
)


def _space_state(space: AddressSpace) -> dict:
    return {
        segment.name: (bytes(segment.data), set(segment.touched), set(segment.dirty))
        for segment in space.segments()
    }


def _restore_twins(cp, shared, scribbles) -> None:
    """Restore ``cp`` and its shared copy into twin spaces and compare them:
    fresh, after the same scribbles, and again after writes on top (the
    dirty-block fast path)."""
    plain, twin = AddressSpace(**_SIZES), AddressSpace(**_SIZES)
    for space in (plain, twin):
        for address, data in scribbles:
            space.write(address, data)
    for round_ in range(2):
        assert plain.restore(cp) == twin.restore(shared)
        assert _space_state(plain) == _space_state(twin)
        assert (plain.raw_reads, plain.raw_writes) == (twin.raw_reads, twin.raw_writes)
        for space in (plain, twin):
            for address, data in scribbles[round_::2]:
                space.write(address, data)


class TestShareEquivalence:
    """A shared checkpoint is the original, whichever producer made it.

    Sharing writes only the touched blocks into a zero-filled block, so it
    leans on every producer keeping untouched blocks zero: the live space's
    ``checkpoint()``, a checkpoint stream's replay and a loaded forensics
    snapshot.  Random heap, stack and raw traffic with snapshots, rollbacks
    and clones, under all five policies.
    """

    @settings(max_examples=30, deadline=None)
    @given(steps=_SHARE_STEPS, policy_name=st.sampled_from(POLICY_NAMES),
           seed=st.integers(min_value=0, max_value=2**31))
    def test_shared_checkpoints_equal_the_originals(self, steps, policy_name, seed):
        import random

        rng = random.Random(seed)
        policy_class = POLICY_CLASSES[policy_name]
        checkpoints = []
        scribbles = []
        with SharedImageStore() as stream_store:
            ctx = MemoryContext(policy_class(), **_SIZES)
            stream = CheckpointStream(ctx, store=stream_store)
            streams = [stream]
            live = []
            for op, arg in steps:
                try:
                    if op == "malloc":
                        live.append(ctx.malloc(1 + arg % (3 * DIRTY_BLOCK), name="prop"))
                    elif op in ("write", "oob_write") and live:
                        ptr = live[arg % len(live)]
                        size = ptr.referent.size
                        offset = arg % size if op == "write" else size
                        data = bytes(rng.randrange(256) for _ in range(1 + arg % 64))
                        ctx.mem.write(ptr + offset, data[: size - offset] or data)
                    elif op == "raw_write":
                        segment = list(ctx.space.segments())[arg % 3]
                        offset = rng.randrange(segment.size)
                        data = bytes([1 + arg % 255]) * min(1 + arg % 64, segment.size - offset)
                        ctx.space.write(segment.base + offset, data)
                        scribbles.append((segment.base + offset, data))
                    elif op == "free" and live:
                        ctx.free(live.pop(arg % len(live)))
                    elif op == "stack":
                        with ctx.stack_frame("prop"):
                            local = ctx.stack_buffer("local", 1 + arg % 256)
                            ctx.seal_frame()
                            ctx.mem.write(local, bytes([arg % 256]) * (1 + arg % 256))
                except Exception:
                    pass  # policy faults are part of the image, not failures
                if op == "snapshot":
                    stream.snapshot()
                elif op == "restore":
                    stream.restore(arg % len(stream))
                    live = [FatPointer.to_unit(u) for u in ctx.table.live_units()]
                elif op == "clone":
                    image = stream.image_at(arg % len(stream))
                    ctx = MemoryContext(policy_class(), **_SIZES)
                    ctx.restore(image)
                    stream = CheckpointStream(ctx, store=stream_store)
                    streams.append(stream)
                    live = [FatPointer.to_unit(u) for u in ctx.table.live_units()]
            for each in streams:
                checkpoints.extend(each.space_checkpoint(k) for k in range(len(each)))
            checkpoints.append(ctx.space.checkpoint())
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "snapshot")
            for cp in checkpoints[-3:]:
                save_snapshot(path, cp)
                checkpoints.append(load_snapshot(path)[0])

        for cp in checkpoints:
            with SharedImageStore() as store:
                shared = store.share_space(cp)
                assert shared.touched_blocks == cp.touched_blocks
                for (name, base, contents), (sname, sbase, scontents) in zip(
                    cp.segments, shared.segments
                ):
                    assert (name, base) == (sname, sbase)
                    assert bytes(scontents) == bytes(contents), f"segment {name} differs"
                _restore_twins(cp, shared, scribbles)
