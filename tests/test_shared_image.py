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

import pytest

from repro.core.policies import FailureObliviousPolicy
from repro.fleet import scheduler
from repro.fleet.scheduler import InstanceSpec, run_fleet
from repro.memory.context import MemoryContext
from repro.memory.shared_image import SharedImageStore
from repro.servers.apache import ApacheServer, ChildProcessPool
from repro.workloads.attacks import apache_vulnerable_config

SHM_DIR = "/dev/shm"
#: The heap sizes of the timed clone gate
#: (``benchmarks/test_substrate_throughput.py``), 10x apart.
CLONE_HEAP_SMALL = 4 * 1024 * 1024
CLONE_HEAP_LARGE = 40 * 1024 * 1024


def _shm_entries() -> set:
    """Current /dev/shm entries (empty set when the platform has none)."""
    try:
        return set(os.listdir(SHM_DIR))
    except OSError:
        return set()


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
    def test_child_pool_close_releases_template(self):
        before = _shm_entries()
        pool = ChildProcessPool(
            FailureObliviousPolicy, pool_size=2, config=apache_vulnerable_config()
        )
        from repro.servers.base import Request

        pool.dispatch(Request(kind="GET", payload=b"/index.html"))
        pool.close()
        assert _shm_entries() <= before
        # A dispatch after close re-forks through the closed store and still
        # serves; it simply no longer uses shared memory.
        pool.dispatch(Request(kind="GET", payload=b"/index.html"))
        pool.close()
        assert _shm_entries() <= before

    def test_run_fleet_closes_its_store(self):
        before = _shm_entries()
        result = run_fleet(
            [InstanceSpec("apache", "failure-oblivious", count=2)],
            total_requests=40,
            seed=5,
            workers=0,
        )
        assert result.instances
        store = scheduler._LAST_IMAGE_STORE
        assert store is not None and store.closed
        assert _shm_entries() <= before

    @pytest.mark.skipif(not _supports_shm(), reason="no /dev/shm")
    def test_worker_killed_mid_run_leaks_nothing(self, monkeypatch):
        """SIGKILL a pool worker mid-shard: run_fleet raises, /dev/shm stays clean."""
        from concurrent.futures.process import BrokenProcessPool

        def _die(run, shard_index):
            # Runs inside the forked worker (the fork inherits the patched
            # module), so only the pool child dies — never the test process.
            os.kill(os.getpid(), signal.SIGKILL)

        monkeypatch.setattr(scheduler, "_run_fleet_shard", _die)
        before = _shm_entries()
        with pytest.raises(BrokenProcessPool):
            run_fleet(
                [InstanceSpec("apache", "failure-oblivious", count=2)],
                total_requests=40,
                seed=5,
                workers=2,
                shards=2,
            )
        store = scheduler._LAST_IMAGE_STORE
        assert store is not None and store.closed
        assert _shm_entries() <= before


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
