"""Incremental checkpoint streams: a base image plus chained block deltas.

A :class:`CheckpointStream` turns one :class:`~repro.memory.context.MemoryContext`
into a time-travel substrate.  Snapshot 0 is a full
:class:`~repro.memory.context.MemoryImage`: a fresh checkpoint of the
context, or an image the context still holds exactly (the one it was just
restored from, e.g. a clone's adopted boot image, which then costs no copy
at all); every later snapshot is a
:class:`~repro.memory.context.MemoryDelta` capturing only the 4 KiB blocks
dirtied since the previous snapshot — O(dirty) to take, which makes
per-request cadences affordable.  The stream indexes every captured block by
(segment, block, snapshot), so it can

* :meth:`restore` the context to *any* snapshot by patching exactly the
  blocks that differ (rollback is O(blocks written since the target), not
  O(image size));
* :meth:`space_checkpoint` / :meth:`image_at` materialize any snapshot as a
  stand-alone full checkpoint (the forensics save path and the bit-identity
  property's oracle);
* :meth:`changed_blocks` report exactly which blocks changed between two
  snapshots — the corruption-propagation measurement the paper never had.

Restoring to snapshot *k* truncates the snapshots after *k*: history forks
at the rollback point, exactly like a process that resumed from a checkpoint.

Pass a :class:`~repro.memory.shared_image.SharedImageStore` to capture the
base payloads and append every delta's blocks into shared memory
(:meth:`SharedImageStore.share_payload`), giving forked workers a zero-copy
view of the whole snapshot history through the inherited mapping.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Set, Tuple

from repro.memory.address_space import (
    DIRTY_BLOCK,
    AddressSpaceCheckpoint,
)
from repro.memory.context import MemoryContext, MemoryDelta, MemoryImage
from repro.memory.shared_image import SharedImageStore


class CheckpointStream:
    """A growing chain of snapshots over one memory context.

    Snapshot indices are dense: 0 is the base image, ``len(stream)`` - 1 is
    the newest.  The base is taken at construction (into ``store`` when one
    is given), or is the ``base`` image passed in.  A passed-in base must be
    what the context holds right now (:meth:`AddressSpace.clean_against`:
    nothing written or read since it was taken or restored); otherwise the
    stream refuses it.  The context must not be checkpointed or restored
    behind the stream's back between snapshots — the chain detects a broken
    epoch link and refuses to append.
    """

    def __init__(
        self,
        ctx: MemoryContext,
        store: Optional[SharedImageStore] = None,
        base: Optional[MemoryImage] = None,
    ) -> None:
        self.ctx = ctx
        self._store = store
        if base is None:
            base = ctx.checkpoint() if store is None else store.capture(ctx)
        elif not ctx.space.clean_against(base.space):
            raise ValueError(
                "the context has changed since the base image was taken or "
                "restored; it cannot be snapshot 0"
            )
        self.base = base
        #: deltas[i] is snapshot i + 1.
        self.deltas: List[MemoryDelta] = []
        #: Epoch of each snapshot, parallel to the snapshot indices.
        self._epochs: List[int] = [base.space.epoch]
        #: Per segment: block index -> [(snapshot_index, payload), ...] in
        #: ascending snapshot order.  The replay index: the newest entry with
        #: snapshot_index <= k is the block's contents at snapshot k (no
        #: entry: the base payload slice, zeros if never touched).
        self._versions: Dict[str, Dict[int, List[Tuple[int, bytes]]]] = {
            name: {} for name, _base, _payload in base.space.segments
        }
        self._base_payload = {
            name: payload for name, _addr, payload in base.space.segments
        }
        self._base_touched = {
            name: frozenset(blocks) for name, blocks in base.space.touched_blocks
        }

    def __len__(self) -> int:
        return len(self.deltas) + 1

    @property
    def latest(self) -> int:
        """Index of the newest snapshot."""
        return len(self.deltas)

    @property
    def delta_bytes(self) -> int:
        """Total payload bytes held by the delta chain (excludes the base)."""
        return sum(delta.space.payload_bytes for delta in self.deltas)

    # -- appending ---------------------------------------------------------------

    def snapshot(self) -> int:
        """Capture a new snapshot (O(dirty blocks)) and return its index.

        Raises :class:`ValueError` when the context was checkpointed or
        restored outside the stream since the last snapshot — the delta
        would not chain from the stream's newest epoch and replay would be
        silently wrong.
        """
        if self.ctx.space.clean_epoch != self._epochs[-1]:
            raise ValueError(
                "context was checkpointed or restored behind the stream's "
                "back; the delta chain is broken"
            )
        delta = self.ctx.delta_checkpoint()
        index = len(self.deltas) + 1
        if self._store is not None:
            delta = self._share_delta(delta)
        for name, entries in delta.space.blocks:
            versions = self._versions[name]
            for block, payload in entries:
                versions.setdefault(block, []).append((index, payload))
        self.deltas.append(delta)
        self._epochs.append(delta.space.epoch)
        return index

    def _share_delta(self, delta: MemoryDelta) -> MemoryDelta:
        """Move the delta's block payloads into the shared-memory arena."""
        store = self._store
        blocks = tuple(
            (
                name,
                tuple(
                    (block, store.share_payload(payload))
                    for block, payload in entries
                ),
            )
            for name, entries in delta.space.blocks
        )
        return dataclasses.replace(
            delta, space=dataclasses.replace(delta.space, blocks=blocks)
        )

    # -- replay index ------------------------------------------------------------

    def _payload_at(self, name: str, block: int, index: int) -> bytes:
        """Contents of one block at snapshot ``index`` (bytes-like)."""
        for snap, payload in reversed(self._versions[name].get(block, ())):
            if snap <= index:
                return payload
        base = self._base_payload[name]
        start = block * DIRTY_BLOCK
        return base[start : start + DIRTY_BLOCK]

    def _touched_at(self, name: str, index: int) -> Set[int]:
        """Blocks ever written as of snapshot ``index``."""
        touched = set(self._base_touched.get(name, ()))
        touched.update(
            block
            for block, versions in self._versions[name].items()
            if versions and versions[0][0] <= index
        )
        return touched

    def _counters_at(self, index: int) -> Tuple[int, int]:
        if index == 0:
            return self.base.space.raw_reads, self.base.space.raw_writes
        space = self.deltas[index - 1].space
        return space.raw_reads, space.raw_writes

    def _components_at(self, index: int):
        """The non-space checkpoint components of snapshot ``index``."""
        record = self.base if index == 0 else self.deltas[index - 1]
        return dict(
            table=record.table,
            heap=record.heap,
            stack=record.stack,
            site=record.site,
            request_id=record.request_id,
            policy_state=record.policy_state,
        )

    # -- restore -----------------------------------------------------------------

    def restore(self, index: int) -> int:
        """Roll the context back (or forward) to snapshot ``index``.

        Fast path: when the context is clean with respect to the stream's
        newest snapshot (the supervised-server invariant), only the blocks
        dirtied since that snapshot plus the blocks versioned after
        ``index`` are patched — O(blocks written since the target).
        Otherwise the base image is restored in full and patched forward.

        History forks at the target: snapshots newer than ``index`` are
        discarded, and the next :meth:`snapshot` becomes ``index + 1``.
        Returns the number of blocks written.
        """
        if not 0 <= index <= len(self.deltas):
            raise IndexError(
                f"snapshot {index} out of range (stream has {len(self)})"
            )
        space = self.ctx.space
        raw_reads, raw_writes = self._counters_at(index)
        touched = {
            name: self._touched_at(name, index) for name in self._versions
        }
        written = 0

        def patch_fast() -> None:
            nonlocal written
            updates = {}
            for segment in space.segments():
                name = segment.name
                stale = set(segment.dirty)
                stale.update(
                    block
                    for block, versions in self._versions[name].items()
                    if versions[-1][0] > index
                )
                updates[name] = [
                    (block, self._payload_at(name, block, index))
                    for block in sorted(stale)
                ]
            written = space.apply_block_patch(
                updates,
                epoch=self._epochs[index],
                raw_reads=raw_reads,
                raw_writes=raw_writes,
                touched=touched,
            )

        def patch_full() -> None:
            nonlocal written
            space.restore(self.base.space)
            updates = {
                name: [
                    (block, self._payload_at(name, block, index))
                    for block in sorted(versions)
                    if versions[block][0][0] <= index
                ]
                for name, versions in self._versions.items()
            }
            written = space.apply_block_patch(
                updates,
                epoch=self._epochs[index],
                raw_reads=raw_reads,
                raw_writes=raw_writes,
                touched=touched,
            )

        fast = space.clean_epoch == self._epochs[-1]
        self.ctx.restore_components(
            restore_space=patch_fast if fast else patch_full,
            **self._components_at(index),
        )
        self.truncate(index)
        return written

    def truncate(self, index: int) -> None:
        """Discard snapshots newer than ``index`` (the history fork)."""
        if index >= len(self.deltas):
            return
        del self.deltas[index:]
        del self._epochs[index + 1 :]
        for versions in self._versions.values():
            dead = [block for block, entries in versions.items()
                    if entries[0][0] > index]
            for block in dead:
                del versions[block]
            for entries in versions.values():
                while entries and entries[-1][0] > index:
                    entries.pop()

    # -- materialization ---------------------------------------------------------

    def space_checkpoint(self, index: int) -> AddressSpaceCheckpoint:
        """Materialize snapshot ``index`` as a stand-alone full checkpoint.

        Bit-identical to the full :meth:`AddressSpace.checkpoint` the
        context would have produced at that moment (the Hypothesis property
        in the test suite holds the stream to exactly that).
        """
        if not 0 <= index <= len(self.deltas):
            raise IndexError(
                f"snapshot {index} out of range (stream has {len(self)})"
            )
        raw_reads, raw_writes = self._counters_at(index)
        segments = []
        touched_blocks = []
        for name, addr, payload in self.base.space.segments:
            data = bytearray(payload)
            for block, versions in self._versions[name].items():
                chosen = None
                for snap, block_payload in reversed(versions):
                    if snap <= index:
                        chosen = block_payload
                        break
                if chosen is not None:
                    start = block * DIRTY_BLOCK
                    data[start : start + len(chosen)] = chosen
            segments.append((name, addr, bytes(data)))
            touched_blocks.append((name, tuple(sorted(self._touched_at(name, index)))))
        return AddressSpaceCheckpoint(
            epoch=self._epochs[index],
            segments=tuple(segments),
            raw_reads=raw_reads,
            raw_writes=raw_writes,
            touched_blocks=tuple(touched_blocks),
        )

    def image_at(self, index: int) -> MemoryImage:
        """Materialize snapshot ``index`` as a full :class:`MemoryImage`."""
        components = self._components_at(index)
        return MemoryImage(
            policy_name=self.base.policy_name,
            space=self.space_checkpoint(index),
            **components,
        )

    # -- forensics ---------------------------------------------------------------

    def changed_blocks(self, a: int, b: int) -> Dict[str, List[int]]:
        """Blocks whose contents differ between snapshots ``a`` and ``b``.

        Candidates are the blocks versioned in the open interval — a block
        no delta captured cannot have changed — and each candidate is then
        byte-compared at the two snapshots, so a block rewritten with its
        original contents does not count as changed.  Returns a mapping of
        segment name to sorted block indices (segments with no changes are
        omitted).
        """
        lo, hi = min(a, b), max(a, b)
        for bound in (a, b):
            if not 0 <= bound <= len(self.deltas):
                raise IndexError(
                    f"snapshot {bound} out of range (stream has {len(self)})"
                )
        changed: Dict[str, List[int]] = {}
        for name, versions in self._versions.items():
            blocks = sorted(
                block
                for block, entries in versions.items()
                if any(lo < snap <= hi for snap, _payload in entries)
            )
            diff = [
                block
                for block in blocks
                if bytes(self._payload_at(name, block, lo))
                != bytes(self._payload_at(name, block, hi))
            ]
            if diff:
                changed[name] = diff
        return changed
