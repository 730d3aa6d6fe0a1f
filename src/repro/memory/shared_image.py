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

from repro.memory.address_space import DIRTY_BLOCK, AddressSpaceCheckpoint, _block_runs
from repro.memory.context import MemoryImage

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
        #: Running count of DIRTY_BLOCK-sized blocks :meth:`share_space` has
        #: written into shared memory — the counted cost of sharing.
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

    def share_space(self, cp: AddressSpaceCheckpoint) -> AddressSpaceCheckpoint:
        """Return a checkpoint whose segment payloads live in shared memory.

        The returned checkpoint is equivalent for every reader (payloads are
        full-length read-only views of identical bytes); the original is left
        untouched.  Only each segment's ``touched_blocks`` are copied: the new
        block starts zero-filled and every other block of ``cp`` is zero, so
        the cost is O(touched bytes) and untouched blocks stay unbacked zero
        pages.  Returns ``cp`` unchanged when sharing is unavailable, already
        done, or pointless (empty payloads).
        """
        if _shared_memory is None or self.closed:
            return cp
        total = sum(len(contents) for _name, _base, contents in cp.segments)
        if total == 0:
            return cp
        if any(isinstance(contents, memoryview) for _n, _b, contents in cp.segments):
            return cp  # already shared
        try:
            block = _shared_memory.SharedMemory(create=True, size=total)
        except OSError:  # pragma: no cover - /dev/shm full or unavailable
            return cp
        self._blocks.append(block)
        buf = block.buf
        touched_map = dict(cp.touched_blocks)
        offset = 0
        segments = []
        for name, base, contents in cp.segments:
            size = len(contents)
            end = offset + size
            blocks = touched_map[name]
            for start_block, end_block in _block_runs(blocks):
                start = start_block * DIRTY_BLOCK
                stop = min(end_block * DIRTY_BLOCK, size)
                buf[offset + start : offset + stop] = contents[start:stop]
            self.blocks_copied += len(blocks)
            view = buf[offset:end].toreadonly()
            self._views.append(view)
            segments.append((name, base, view))
            offset = end
        return dataclasses.replace(cp, segments=tuple(segments))

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
