"""Shared-memory placement for checkpoint images.

A fleet run boots one template server per (server, policy) group and clones
every instance from the group's :class:`~repro.memory.context.MemoryImage`.
The segment payloads of such an image are by far its largest part (megabytes
of heap per instance).  :class:`SharedImageStore` moves those payloads into a
single :mod:`multiprocessing.shared_memory` block, so that

* the parent holds exactly one copy of each template image, however many
  instances or worker processes clone from it;
* forked workers map the block instead of copying it — restores read the
  payload through read-only ``memoryview`` slices, so cloning never
  materializes the image bytes again (the O(1)-per-clone half; the other
  half is the address space's touched-block sparse restore, which writes
  only the blocks the boot actually touched);
* sharing itself costs O(touched bytes): a freshly created shared-memory
  object is zero-filled, and every block of a checkpoint outside its
  ``touched_blocks`` is all zeros, so only the touched blocks are written.
  The untouched ones stay unbacked zero pages — a template with a
  megabytes-long heap whose boot wrote one block makes one page resident.
  :attr:`SharedImageStore.blocks_copied` counts the blocks written.
* a template is captured straight into the store
  (:meth:`SharedImageStore.capture`): the checkpoint's touched blocks are
  copied out of the live segments into the shared block, so no full
  ``bytes`` copy of a segment is ever made for it.
  :meth:`SharedImageStore.share_space` moves an existing checkpoint's
  payloads the same way.

Lifecycle: the store is created by the scheduler that owns the run and
closed (``close()``: release views, close the mapping, unlink the ``/dev/shm``
segment) in a ``finally`` — including when a worker crashes mid-run — so a
failed run cannot leak shared-memory segments.  Only the creating process
unlinks; forked children merely inherit the mapping and drop it on exit.

When the platform offers no shared memory (or creation fails), sharing
degrades gracefully: images pass through unchanged and everything still
works on plain ``bytes``.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional

from repro.memory.address_space import (
    DIRTY_BLOCK,
    AddressSpaceCheckpoint,
    _block_runs,
    copy_payloads,
)
from repro.memory.context import MemoryContext, MemoryImage

try:  # pragma: no cover - exercised indirectly on every supported platform
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover - platforms without _posixshmem
    _shared_memory = None


class SharedImageStore:
    """Owns the shared-memory blocks backing a set of shared checkpoints.

    Usable as a context manager; :meth:`close` is idempotent and safe to call
    from a ``finally`` even when nothing was ever shared.
    """

    def __init__(self) -> None:
        self._blocks: List["_shared_memory.SharedMemory"] = []
        #: Every view handed out (the per-segment payload slices).  They must
        #: be released before the mapping can close — a memoryview exporting
        #: a buffer keeps the underlying mmap pinned.
        self._views: List[memoryview] = []
        self.closed = False
        #: Running count of DIRTY_BLOCK-sized blocks :meth:`capture` and
        #: :meth:`share_space` have written into shared memory — the counted
        #: cost of sharing.
        self.blocks_copied = 0
        #: Current append-arena chunk for :meth:`share_payload` (lazy).
        self._arena_block: Optional["_shared_memory.SharedMemory"] = None
        self._arena_offset = 0
        self._arena_size = 0

    # -- sharing -----------------------------------------------------------------

    @property
    def names(self) -> List[str]:
        """Names of the live shared-memory blocks (``/dev/shm`` entries)."""
        return [block.name for block in self._blocks]

    @property
    def active(self) -> bool:
        """True when at least one shared block is live."""
        return bool(self._blocks) and not self.closed

    def capture(self, ctx: MemoryContext) -> MemoryImage:
        """Checkpoint ``ctx`` with its segment payloads written straight
        into one new shared block.

        The checkpoint's bookkeeping is :meth:`AddressSpace.capture`'s, so
        the space is clean against the returned image exactly as after
        ``ctx.checkpoint()``.  Only the live segments' touched blocks are
        copied, out of the segments themselves: no full copy of a segment is
        made on the way.  When sharing is unavailable (no shared memory, or
        the store is closed) this is the plain ``ctx.checkpoint()``.
        """
        if _shared_memory is None or self.closed:
            return ctx.checkpoint()
        return ctx.capture(self._place_live)

    def _place_live(self, touched) -> list:
        """Payload placer for :meth:`capture`: live segment views in, shared
        views out (full copies if the shared block cannot be created)."""
        views = self._place([(segment.view, blocks) for segment, blocks in touched])
        return views if views is not None else copy_payloads(touched)

    def share_space(self, cp: AddressSpaceCheckpoint) -> AddressSpaceCheckpoint:
        """Return a checkpoint whose segment payloads live in shared memory.

        The returned checkpoint is equivalent for every reader (payloads are
        full-length read-only views of identical bytes); the original is left
        untouched.  Only each segment's ``touched_blocks`` are copied, as in
        :meth:`capture`.  Returns ``cp`` unchanged when sharing is
        unavailable, already done, or pointless (empty payloads).
        """
        if any(isinstance(contents, memoryview) for _n, _b, contents in cp.segments):
            return cp  # already shared
        touched_map = dict(cp.touched_blocks)
        views = self._place(
            [(contents, touched_map[name]) for name, _base, contents in cp.segments]
        )
        if views is None:
            return cp
        segments = tuple(
            (name, base, view) for (name, base, _contents), view in zip(cp.segments, views)
        )
        return dataclasses.replace(cp, segments=segments)

    def _place(self, sources) -> Optional[List[memoryview]]:
        """Copy ``(payload, touched blocks)`` pairs into one new shared block.

        The new block starts zero-filled and every block of a payload outside
        its touched list is zero, so only the touched blocks are written: the
        cost is O(touched bytes) and untouched blocks stay unbacked zero
        pages.  Returns one full-length read-only view per payload, or None
        when sharing is unavailable or pointless (empty payloads).
        """
        total = sum(len(payload) for payload, _blocks in sources)
        if _shared_memory is None or self.closed or total == 0:
            return None
        try:
            block = _shared_memory.SharedMemory(create=True, size=total)
        except OSError:  # pragma: no cover - /dev/shm full or unavailable
            return None
        self._blocks.append(block)
        buf = block.buf
        views = []
        offset = 0
        for payload, blocks in sources:
            size = len(payload)
            source = memoryview(payload)
            for start_block, end_block in _block_runs(blocks):
                start = start_block * DIRTY_BLOCK
                stop = min(end_block * DIRTY_BLOCK, size)
                buf[offset + start : offset + stop] = source[start:stop]
            self.blocks_copied += len(blocks)
            view = buf[offset : offset + size].toreadonly()
            self._views.append(view)
            views.append(view)
            offset += size
        return views

    #: Arena chunk size for :meth:`share_payload`.  Delta payloads are a few
    #: KiB each; 1 MiB chunks keep the number of ``/dev/shm`` entries small
    #: while wasting at most one chunk tail per stream.
    ARENA_CHUNK = 1024 * 1024

    def share_payload(self, data: bytes) -> "bytes | memoryview":
        """Append a small payload into the shared arena, returning a view.

        The append-side of checkpoint *streams*: each incremental snapshot's
        dirty-block payloads are copied once into a chunked shared-memory
        arena, so forked workers read the whole snapshot history zero-copy
        through the inherited mapping.  Chunks are allocated lazily
        (``ARENA_CHUNK`` bytes, or the payload size when larger) and owned by
        this store like any other block.  Degrades to returning the bytes
        unchanged when sharing is unavailable.
        """
        size = len(data)
        if _shared_memory is None or self.closed or size == 0:
            return bytes(data)
        if self._arena_block is None or self._arena_offset + size > self._arena_size:
            try:
                block = _shared_memory.SharedMemory(
                    create=True, size=max(size, self.ARENA_CHUNK)
                )
            except OSError:  # pragma: no cover - /dev/shm full or unavailable
                return bytes(data)
            self._blocks.append(block)
            self._arena_block = block
            self._arena_size = block.size
            self._arena_offset = 0
        buf = self._arena_block.buf
        start = self._arena_offset
        end = start + size
        buf[start:end] = data
        view = buf[start:end].toreadonly()
        self._views.append(view)
        self._arena_offset = end
        return view

    def share_image(self, image: MemoryImage) -> MemoryImage:
        """Return ``image`` with its address-space payload in shared memory."""
        shared = self.share_space(image.space)
        if shared is image.space:
            return image
        return dataclasses.replace(image, space=shared)

    # -- lifecycle ----------------------------------------------------------------

    def close(self) -> None:
        """Release views, close mappings and unlink blocks.

        Idempotent.  Every checkpoint returned by :meth:`share_space` becomes
        unusable afterwards — callers close only once the run that cloned
        from those images is over.
        """
        if self.closed:
            return
        self.closed = True
        for view in self._views:
            view.release()
        self._views.clear()
        for block in self._blocks:
            try:
                block.close()
            except BufferError:  # pragma: no cover - an untracked view leaked
                pass
            try:
                block.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
        self._blocks.clear()
        self._arena_block = None
        self._arena_offset = self._arena_size = 0

    def __enter__(self) -> "SharedImageStore":
        return self

    def __exit__(self, *exc_info) -> Optional[bool]:
        self.close()
        return None

    def __del__(self) -> None:  # pragma: no cover - GC-order dependent
        try:
            self.close()
        except Exception:
            pass
