"""A flat, segmented simulated address space.

The address space is the thing the Standard (unchecked) build corrupts and the
checked builds protect.  It is deliberately simple: a handful of contiguous
segments (globals, heap, stack), each backed by a ``bytearray``.  Raw reads and
writes that fall outside every mapped segment raise
:class:`~repro.errors.SegmentationFault`, which is how the Standard build of a
server eventually dies after a large overflow runs off the end of its heap or
stack.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple

from repro.errors import SegmentationFault

#: Default segment sizes.  Large enough for every server workload in the
#: evaluation, small enough that a multi-kilobyte attack overflow runs off the
#: end of a segment and faults, as the real servers did.
DEFAULT_GLOBALS_SIZE = 64 * 1024
DEFAULT_HEAP_SIZE = 4 * 1024 * 1024
DEFAULT_STACK_SIZE = 256 * 1024

GLOBALS_BASE = 0x1000_0000
HEAP_BASE = 0x2000_0000
STACK_BASE = 0x7000_0000

#: Granularity of the dirty tracking used by checkpoint restores.  Writes mark
#: blocks of this many bytes dirty; a restore copies back only the blocks
#: touched since the checkpoint, so a restart costs O(dirty bytes) rather than
#: O(address-space size).
DIRTY_BLOCK = 4096
_DIRTY_SHIFT = DIRTY_BLOCK.bit_length() - 1

#: Global epoch source for checkpoints.  Epochs are only compared for
#: equality: a restore may take the dirty-block fast path only when the space
#: is known to be clean with respect to *that* checkpoint.
_checkpoint_epochs = itertools.count(1)


@dataclass
class Segment:
    """One contiguous mapped region of the simulated address space."""

    name: str
    base: int
    data: bytearray
    #: Indices of DIRTY_BLOCK-sized blocks written since the last checkpoint.
    dirty: Set[int] = field(default_factory=set)
    #: Indices of blocks *ever* written (folded in at every checkpoint and
    #: restore).  Invariant: any block not in ``touched | dirty`` is still
    #: all zeros, because segments start zero-filled and every store goes
    #: through :class:`AddressSpace`, which marks blocks dirty.  Restores can
    #: therefore skip untouched blocks entirely — this is what makes cloning
    #: a boot image into a fresh space O(touched bytes), not O(segment size).
    touched: Set[int] = field(default_factory=set)
    #: Read-only view over ``data``.  Zero-copy reads hand out slices of this
    #: view; it stays valid for the segment's lifetime because segments never
    #: resize.  (Kept out of ``__eq__``: identity of the backing buffer is
    #: what matters, and ``data`` is already compared.)
    view: memoryview = field(init=False, repr=False, compare=False)
    #: One past the last mapped address.  Stored once, not recomputed: the
    #: byte fast paths test it on every access, and segments never resize
    #: (nothing rebinds ``data``; restores copy into it in place).
    end: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.view = memoryview(self.data).toreadonly()
        self.end = self.base + len(self.data)

    @property
    def size(self) -> int:
        """Number of mapped bytes in this segment."""
        return len(self.data)

    def contains(self, address: int, length: int = 1) -> bool:
        """True if ``[address, address + length)`` lies entirely inside the segment."""
        return self.base <= address and address + length <= self.end

    def mark_dirty(self, start: int, length: int) -> None:
        """Record that ``[start, start + length)`` (segment offsets) was written."""
        self.dirty.update(range(start >> _DIRTY_SHIFT, (start + length - 1 >> _DIRTY_SHIFT) + 1))


@dataclass(frozen=True)
class AddressSpaceCheckpoint:
    """Immutable snapshot of every mapped segment plus the access counters.

    ``segments`` maps name to (base, contents); the payloads are bytes-like
    (``bytes``, or read-only ``memoryview``s when the checkpoint has been
    placed in shared memory by :class:`~repro.memory.shared_image.SharedImageStore`),
    so a checkpoint can be shared between processes and restored into any
    address space (cloning a pre-forked child reuses one parent snapshot).

    ``touched_blocks`` records, per segment, the sorted DIRTY_BLOCK indices
    that have ever been written when the checkpoint was taken.  Every block
    outside the list is all zeros in the payload, which lets a restore into
    another space skip it when that space knows the block is zero on its side
    too.  Every producer (:meth:`AddressSpace.checkpoint`, checkpoint-stream
    replay, snapshot loading) lists every segment.
    """

    epoch: int
    segments: Tuple[Tuple[str, int, bytes], ...]
    raw_reads: int
    raw_writes: int
    touched_blocks: Tuple[Tuple[str, Tuple[int, ...]], ...]


@dataclass(frozen=True)
class AddressSpaceDelta:
    """The blocks dirtied since the previous checkpoint, as an immutable record.

    A delta is O(dirty blocks) to capture, which is what makes mid-run
    snapshot cadences affordable: a request that scribbles a few KiB costs a
    few 4 KiB block copies, not a copy of the whole address space.  Deltas
    chain: ``parent_epoch`` names the checkpoint (full or delta) the dirty
    tracking was relative to, so replaying base + deltas in order rebuilds
    the exact segment bytes of any snapshot in the chain
    (:class:`~repro.memory.checkpoint_stream.CheckpointStream` owns that
    replay).

    ``blocks`` maps segment name to ``((block_index, payload), ...)`` in
    ascending block order.  Payloads are bytes-like — ``bytes``, or read-only
    ``memoryview``s when the delta has been appended into shared memory —
    and are DIRTY_BLOCK long except for a segment's final partial block.
    """

    epoch: int
    parent_epoch: Optional[int]
    blocks: Tuple[Tuple[str, Tuple[Tuple[int, bytes], ...]], ...]
    raw_reads: int
    raw_writes: int

    @property
    def block_count(self) -> int:
        """Total number of dirty blocks captured across all segments."""
        return sum(len(entries) for _name, entries in self.blocks)

    @property
    def payload_bytes(self) -> int:
        """Total payload size in bytes (the cost of storing this delta)."""
        return sum(
            len(payload) for _name, entries in self.blocks for _idx, payload in entries
        )


def _block_runs(blocks):
    """Yield maximal (start_block, end_block) runs from sorted block indices.

    Coalescing adjacent blocks turns the per-block Python loop into one slice
    copy per contiguous run — boot images touch long contiguous stretches, so
    a sparse restore is typically a handful of memcpys.
    """
    iterator = iter(blocks)
    try:
        start = prev = next(iterator)
    except StopIteration:
        return
    for block in iterator:
        if block != prev + 1:
            yield start, prev + 1
            start = block
        prev = block
    yield start, prev + 1


class AddressSpace:
    """The simulated process address space.

    Parameters are the sizes of the three standard segments.  Additional
    segments can be mapped for tests via :meth:`map_segment`.
    """

    def __init__(
        self,
        globals_size: int = DEFAULT_GLOBALS_SIZE,
        heap_size: int = DEFAULT_HEAP_SIZE,
        stack_size: int = DEFAULT_STACK_SIZE,
    ) -> None:
        self._segments: Dict[str, Segment] = {}
        self._ordered: List[Segment] = []
        self.map_segment("globals", GLOBALS_BASE, globals_size)
        self.map_segment("heap", HEAP_BASE, heap_size)
        self.map_segment("stack", STACK_BASE, stack_size)
        #: Count of raw byte reads/writes, used by the timing model as a
        #: uniform measure of work done independent of the policy in force.
        self.raw_reads = 0
        self.raw_writes = 0
        #: Most recently hit segment; the byte fast paths below probe it first
        #: because consecutive accesses overwhelmingly hit the same segment.
        self._last_segment: Optional[Segment] = None
        #: Epoch of the checkpoint the dirty sets are tracked against, or None
        #: when no checkpoint has been taken (or the layout changed since).
        self._clean_epoch: Optional[int] = None

    # -- segment management ------------------------------------------------------

    def map_segment(self, name: str, base: int, size: int) -> Segment:
        """Map a new zero-filled segment.  Overlapping segments are rejected."""
        if size <= 0:
            raise ValueError("segment size must be positive")
        for existing in self._ordered:
            if base < existing.end and existing.base < base + size:
                raise ValueError(
                    f"segment {name!r} [{base:#x}, {base + size:#x}) overlaps {existing.name!r}"
                )
        segment = Segment(name=name, base=base, data=bytearray(size))
        self._segments[name] = segment
        self._ordered.append(segment)
        self._ordered.sort(key=lambda s: s.base)
        # The layout no longer matches any earlier checkpoint, so restores
        # must take the full-copy path until the next checkpoint.
        self._clean_epoch = None
        return segment

    def segment(self, name: str) -> Segment:
        """Return the segment with the given name."""
        return self._segments[name]

    @property
    def heap(self) -> Segment:
        """The heap segment."""
        return self._segments["heap"]

    @property
    def stack(self) -> Segment:
        """The stack segment."""
        return self._segments["stack"]

    @property
    def globals(self) -> Segment:
        """The globals segment."""
        return self._segments["globals"]

    def segments(self) -> List[Segment]:
        """Return all mapped segments ordered by base address."""
        return list(self._ordered)

    def find_segment(self, address: int, length: int = 1) -> Optional[Segment]:
        """Return the segment containing ``[address, address+length)`` or None.

        Probes the most recently hit segment first, like the byte fast paths.
        """
        segment = self._last_segment
        if segment is not None and segment.base <= address and address + length <= segment.end:
            return segment
        for segment in self._ordered:
            if segment.contains(address, length):
                self._last_segment = segment
                return segment
        return None

    def is_mapped(self, address: int, length: int = 1) -> bool:
        """True if the whole range is mapped in a single segment."""
        return self.find_segment(address, length) is not None

    # -- raw access ---------------------------------------------------------------

    def read(self, address: int, length: int) -> bytes:
        """Read ``length`` raw bytes; fault if any byte is unmapped."""
        if length < 0:
            raise ValueError("length must be non-negative")
        segment = self.find_segment(address, max(length, 1))
        if segment is None:
            raise SegmentationFault(address)
        self.raw_reads += length
        start = address - segment.base
        return segment.view[start : start + length].tobytes()

    def read_view(self, address: int, length: int) -> memoryview:
        """Zero-copy :meth:`read`: a read-only view of the live segment bytes.

        Same faulting behaviour and raw-access accounting as :meth:`read`,
        but no copy is made.  The view aliases the segment, so it reflects —
        and is only valid until — subsequent stores to the range (and
        :meth:`restore`).  Callers that retain the data across further
        substrate activity must copy (``bytes(view)``); that copy is the
        telemetry/API boundary.
        """
        if length < 0:
            raise ValueError("length must be non-negative")
        segment = self.find_segment(address, max(length, 1))
        if segment is None:
            raise SegmentationFault(address)
        self.raw_reads += length
        start = address - segment.base
        return segment.view[start : start + length]

    def write(self, address: int, data: "bytes | bytearray | memoryview") -> None:
        """Write raw bytes (any bytes-like); fault if any byte is unmapped."""
        if not data:
            return
        segment = self.find_segment(address, len(data))
        if segment is None:
            raise SegmentationFault(address)
        self.raw_writes += len(data)
        start = address - segment.base
        segment.data[start : start + len(data)] = data
        segment.mark_dirty(start, len(data))

    def read_byte(self, address: int) -> int:
        """Read one raw byte (fast path probing the most recent segment first)."""
        segment = self._last_segment
        if segment is None or not (segment.base <= address < segment.end):
            segment = self.find_segment(address, 1)
            if segment is None:
                raise SegmentationFault(address)
        self.raw_reads += 1
        return segment.data[address - segment.base]

    def write_byte(self, address: int, value: int) -> None:
        """Write one raw byte (fast path probing the most recent segment first)."""
        segment = self._last_segment
        if segment is None or not (segment.base <= address < segment.end):
            segment = self.find_segment(address, 1)
            if segment is None:
                raise SegmentationFault(address)
        self.raw_writes += 1
        offset = address - segment.base
        segment.data[offset] = value & 0xFF
        segment.dirty.add(offset >> _DIRTY_SHIFT)

    def find_byte(self, address: int, value: int, length: int,
                  charge_reads: bool = True) -> int:
        """Return the offset of the first ``value`` in ``[address, address+length)``.

        Backed by ``bytearray.find`` on the containing segment, so scanning a
        span costs one C-level search instead of one Python-level read per
        byte.  Returns -1 if ``value`` does not occur in the range; faults if
        the range is not entirely mapped (mirroring :meth:`read`).

        ``charge_reads=False`` skips the raw-access counter: callers that
        follow the search with a :meth:`read` of the same range (or search the
        same span several times) pass it so each examined byte is charged once.
        """
        if length <= 0:
            return -1
        segment = self.find_segment(address, length)
        if segment is None:
            raise SegmentationFault(address)
        start = address - segment.base
        index = segment.data.find(value & 0xFF, start, start + length)
        if charge_reads:
            # Bytes up to and including the hit (or the whole span on a miss)
            # were examined, which is what the raw-access counters measure.
            self.raw_reads += (index - start + 1) if index >= 0 else length
        return (index - start) if index >= 0 else -1

    def fill(self, address: int, value: int, length: int) -> None:
        """Fill a raw range with a byte value (memset without checks)."""
        self.write(address, bytes([value & 0xFF]) * length)

    def snapshot(self, address: int, length: int) -> bytes:
        """Alias of :meth:`read` used by tests to express intent (no checks)."""
        return self.read(address, length)

    # -- checkpoint / restore -----------------------------------------------------

    def checkpoint(self) -> AddressSpaceCheckpoint:
        """Snapshot every segment's contents plus the raw-access counters.

        Taking a checkpoint resets the dirty tracking, so a later
        :meth:`restore` of *this* checkpoint only copies back the blocks
        written in between (the O(dirty-bytes) restart path).
        """
        epoch = next(_checkpoint_epochs)
        for segment in self._ordered:
            segment.touched |= segment.dirty
            segment.dirty.clear()
        self._clean_epoch = epoch
        return AddressSpaceCheckpoint(
            epoch=epoch,
            segments=tuple(
                (segment.name, segment.base, bytes(segment.data))
                for segment in self._ordered
            ),
            raw_reads=self.raw_reads,
            raw_writes=self.raw_writes,
            touched_blocks=tuple(
                (segment.name, tuple(sorted(segment.touched)))
                for segment in self._ordered
            ),
        )

    @property
    def clean_epoch(self) -> Optional[int]:
        """Epoch the dirty sets are tracked against (None: no checkpoint yet)."""
        return self._clean_epoch

    def delta_checkpoint(self) -> AddressSpaceDelta:
        """Capture only the blocks dirtied since the previous checkpoint.

        Costs O(dirty blocks) instead of O(address-space size).  Like
        :meth:`checkpoint` it resets the dirty tracking and starts a new
        epoch, so deltas chain: the returned record's ``parent_epoch`` is the
        epoch this space was clean against when the delta was taken.  Raises
        if no checkpoint has ever been taken (a delta needs a base to chain
        from).
        """
        if self._clean_epoch is None:
            raise ValueError(
                "delta_checkpoint() needs a base checkpoint to chain from"
            )
        epoch = next(_checkpoint_epochs)
        parent = self._clean_epoch
        blocks = []
        for segment in self._ordered:
            entries = []
            view = segment.view
            for index in sorted(segment.dirty):
                start = index << _DIRTY_SHIFT
                entries.append((index, bytes(view[start : start + DIRTY_BLOCK])))
            blocks.append((segment.name, tuple(entries)))
            segment.touched |= segment.dirty
            segment.dirty.clear()
        self._clean_epoch = epoch
        return AddressSpaceDelta(
            epoch=epoch,
            parent_epoch=parent,
            blocks=tuple(blocks),
            raw_reads=self.raw_reads,
            raw_writes=self.raw_writes,
        )

    def apply_block_patch(
        self,
        updates: Mapping[str, Iterable[Tuple[int, bytes]]],
        *,
        epoch: int,
        raw_reads: int,
        raw_writes: int,
        touched: Mapping[str, Set[int]],
    ) -> int:
        """Overwrite specific blocks and adopt a checkpoint's identity.

        The replay primitive under :class:`~repro.memory.checkpoint_stream.CheckpointStream`:
        the caller has computed exactly which blocks differ between the
        space's current contents and some snapshot in a delta chain, and
        supplies each such block's payload at that snapshot.  After the
        patch the space is clean with respect to ``epoch``, the per-segment
        ``touched`` sets are replaced with the supplied ones, and the raw
        access counters are adopted — the same postconditions
        :meth:`restore` establishes, at O(differing blocks) cost.  Returns
        the number of blocks written.
        """
        written = 0
        for segment in self._ordered:
            data = segment.data
            for index, payload in updates.get(segment.name, ()):
                start = index << _DIRTY_SHIFT
                data[start : start + len(payload)] = payload
                written += 1
            new_touched = touched.get(segment.name)
            if new_touched is not None:
                segment.touched = set(new_touched)
            segment.dirty.clear()
        self.raw_reads = raw_reads
        self.raw_writes = raw_writes
        self._last_segment = None
        self._clean_epoch = epoch
        return written

    def restore(self, cp: AddressSpaceCheckpoint) -> None:
        """Reset every segment to the checkpointed contents.

        When the space is clean with respect to ``cp`` (the common restart
        loop: checkpoint once at boot, restore on every death), only the
        dirty blocks are copied.  Restoring a checkpoint taken elsewhere —
        cloning a pre-forked worker from a template boot image — copies only
        the blocks that could differ: the checkpoint's touched blocks plus
        this space's own touched/dirty blocks (everything else is zero on
        both sides).  That makes clone cost O(touched bytes), independent of
        segment size.  Either way the space is clean with respect to ``cp``
        afterwards, so cloned process images get the dirty-block fast path on
        *their* subsequent restores too.  Segments mapped after the
        checkpoint are unmapped; a checkpointed segment whose size changed is
        a substrate bug and raises.
        """
        fast = self._clean_epoch == cp.epoch
        touched_map = dict(cp.touched_blocks)
        wanted = {name for name, _base, _data in cp.segments}
        if not fast and any(segment.name not in wanted for segment in self._ordered):
            self._ordered = [s for s in self._ordered if s.name in wanted]
            self._segments = {s.name: s for s in self._ordered}
        for name, base, contents in cp.segments:
            segment = self._segments.get(name)
            if segment is None or segment.base != base or segment.size != len(contents):
                raise ValueError(
                    f"cannot restore checkpoint: segment {name!r} layout changed"
                )
            cp_touched = touched_map[name]
            if fast:
                stale = segment.dirty
            else:
                # Sparse cross-space restore: blocks untouched on both sides
                # are zero on both sides and need no copy.
                stale = set(cp_touched) | segment.touched | segment.dirty
            data = segment.data
            for start_block, end_block in _block_runs(sorted(stale)):
                start = start_block << _DIRTY_SHIFT
                end = end_block << _DIRTY_SHIFT
                data[start:end] = contents[start:end]
            segment.touched = set(cp_touched)
            segment.dirty.clear()
        self.raw_reads = cp.raw_reads
        self.raw_writes = cp.raw_writes
        self._last_segment = None
        self._clean_epoch = cp.epoch
