"""Concrete build variants: Standard, Bounds Check, Failure Oblivious, and §5.1 variants.

Each class corresponds to one compiler configuration evaluated in the paper:

* :class:`StandardPolicy` — the stock, unchecked C build.  Out-of-bounds
  accesses are performed raw against the simulated address space, so they
  corrupt neighbouring data units, heap metadata, or the call stack, exactly
  like the real servers did.
* :class:`BoundsCheckPolicy` — the CRED safe-C build.  The first detected
  memory error raises :class:`~repro.errors.BoundsCheckViolation`, which the
  server loop treats as process termination.
* :class:`FailureObliviousPolicy` — the paper's contribution.  Invalid writes
  are discarded, invalid reads return manufactured values, execution continues.
* :class:`BoundlessPolicy` — §5.1 boundless memory blocks: invalid writes are
  stored in a hash table keyed by (data unit, offset) and invalid reads return
  the stored value when one exists.
* :class:`RedirectPolicy` — §5.1 redirect variant: out-of-bounds accesses are
  wrapped back into the accessed data unit at ``offset % size``.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.core.manufacture import ManufacturedValueSequence
from repro.core.policy import AccessDecision, AccessPolicy
from repro.errors import BoundsCheckViolation, MemoryErrorEvent, UseAfterFree, ErrorKind
from repro.telemetry.events import Discard, Manufacture, Redirect


class StandardPolicy(AccessPolicy):
    """The unchecked build: no bounds checks, raw (possibly corrupting) accesses.

    ``performs_checks`` is False, so the memory accessor never asks this
    policy about an access and it implements no hooks: every access is
    performed raw at its computed address, and one that leaves its mapped
    segment faults there.
    """

    name = "standard"
    performs_checks = False


class BoundsCheckPolicy(AccessPolicy):
    """The CRED safe-C build: terminate with an error message at the first error."""

    name = "bounds-check"
    performs_checks = True

    # The program terminates at a run's first element, so a run records
    # exactly that one event before raising.

    def on_invalid_read_run(self, event: MemoryErrorEvent, count: int) -> AccessDecision:
        return self._terminate(event)

    def on_invalid_write_run(self, event: MemoryErrorEvent, data: bytes) -> AccessDecision:
        return self._terminate(event)

    def scan_invalid_read_run(self, event, count, until):
        return self._terminate(event)

    def _terminate(self, event: MemoryErrorEvent) -> AccessDecision:
        self.record_event(event)
        if event.kind is ErrorKind.USE_AFTER_FREE:
            return AccessDecision.raise_(UseAfterFree(event))
        return AccessDecision.raise_(BoundsCheckViolation(event))


class FailureObliviousPolicy(AccessPolicy):
    """The failure-oblivious build: discard invalid writes, manufacture reads.

    Parameters
    ----------
    sequence:
        Generator of manufactured values.  Defaults to the paper's sequence
        (small integers, 0 and 1 favoured).  Ablation benchmarks pass the
        degenerate sequences from :mod:`repro.core.manufacture`.
    """

    name = "failure-oblivious"
    performs_checks = True
    discards_invalid_writes = True

    def __init__(self, sequence: Optional[ManufacturedValueSequence] = None) -> None:
        super().__init__()
        self.sequence = sequence if sequence is not None else ManufacturedValueSequence()

    # -- runs: one decision per contiguous out-of-bounds run --------------------

    def on_invalid_read_run(self, event: MemoryErrorEvent, count: int) -> AccessDecision:
        self.record_event_run(event, count)
        length = count * event.length
        data = self.sequence.next_bytes(length)
        self.emit(Manufacture(length=length, count=count, site=event.site,
                              request_id=event.request_id))
        return AccessDecision.supply(data)

    def on_invalid_write_run(self, event: MemoryErrorEvent, data: bytes) -> AccessDecision:
        count = len(data) // event.length
        self.record_event_run(event, count)
        self.emit(Discard(length=len(data), count=count, site=event.site,
                          request_id=event.request_id))
        return AccessDecision.discard()

    def scan_invalid_read_run(self, event, count, until):
        # Manufactured bytes are produced one at a time and stop after the
        # first terminator, so the sequence consumption (and the number of
        # per-byte events recorded) is exactly what the per-byte loop does.
        out = bytearray()
        for _ in range(count):
            byte = self.sequence.next_byte()
            out.append(byte)
            if byte in until:
                break
        produced = len(out)
        if produced:
            self.record_event_run(event, produced)
            self.emit(Manufacture(length=produced, count=produced, site=event.site,
                                  request_id=event.request_id))
        return AccessDecision.supply(bytes(out))

    def checkpoint_state(self) -> dict:
        state = super().checkpoint_state()
        state["sequence"] = self.sequence.checkpoint()
        return state

    def restore_state(self, state: dict) -> None:
        super().restore_state(state)
        self.sequence.restore(state["sequence"])


class BoundlessPolicy(FailureObliviousPolicy):
    """§5.1 boundless memory blocks: out-of-bounds writes are remembered.

    Invalid writes are stored in a per-unit hash table (unit identity →
    offset → byte); invalid reads first consult the table and fall back to
    the manufactured value sequence for bytes that were never written.  This
    "eliminates size calculation errors" — a program whose only mistake is an
    undersized buffer behaves as if the buffer were large enough.

    The per-unit nesting is what makes the batched continuation cheap: a run
    of out-of-bounds bytes resolves its unit bucket once and then works on
    plain integer offsets (one dict op per byte instead of tuple construction
    plus hashing per byte), bulk inserts take a single ``dict.update``, and
    freeing a unit releases its whole bucket in O(1).
    """

    name = "boundless"
    # Stores its invalid writes, so it keeps the per-byte path.
    discards_invalid_writes = False

    def __init__(
        self,
        sequence: Optional[ManufacturedValueSequence] = None,
        max_stored_bytes: int = 1 << 20,
    ) -> None:
        super().__init__(sequence=sequence)
        self.max_stored_bytes = max_stored_bytes
        #: (unit_name, unit_size) → {offset: byte}.  The unit name carries the
        #: allocation serial (``DataUnit.label()``), so buckets are unique per
        #: allocation and can be reclaimed when the allocation is freed.
        self._store: Dict[Tuple[str, int], Dict[int, int]] = {}
        self._stored_total = 0

    def _unit_store(self, event: MemoryErrorEvent, create: bool = False) -> Optional[Dict[int, int]]:
        key = (event.unit_name, event.unit_size)
        if create:
            return self._store.setdefault(key, {})
        return self._store.get(key)

    def _store_element(self, event: MemoryErrorEvent, data: bytes) -> None:
        """Store one invalid element write whole, or discard it whole when
        its new offsets do not fit."""
        self.record_event(event)
        # Overwriting an already-stored offset consumes no extra capacity and
        # must not inflate the stored-bytes statistic, so only the offsets not
        # yet in the table count against ``max_stored_bytes``.
        bucket = self._unit_store(event) or {}
        new_bytes = sum(1 for i in range(len(data)) if event.offset + i not in bucket)
        if self._stored_total + new_bytes <= self.max_stored_bytes:
            self._unit_store(event, create=True).update(
                (event.offset + i, byte) for i, byte in enumerate(data)
            )
            self._stored_total += new_bytes
            # length counts only the newly stored offsets (it is what
            # stats.stored_out_of_bounds_bytes reads); pure overwrites emit
            # nothing, like the zero-manufacture guard on the read path.
            if new_bytes:
                self.emit(Discard(length=new_bytes, site=event.site,
                                  request_id=event.request_id, stored=True))
            return
        # Store full: degrade gracefully to plain failure-oblivious behaviour.
        self.emit(Discard(length=len(data), site=event.site, request_id=event.request_id))

    def _lookup_bytes(self, event: MemoryErrorEvent, count: int) -> Tuple[bytes, int, int]:
        """Stored-else-manufactured bytes for a run of ``count`` elements, in
        order, with how many bytes were manufactured and in how many
        elements."""
        width = event.length
        length = count * width
        bucket = self._unit_store(event)
        if not bucket:
            return self.sequence.next_bytes(length), length, count
        out = bytearray()
        manufactured = elements = 0
        last = -1
        get = bucket.get
        for i in range(length):
            byte = get(event.offset + i)
            if byte is None:
                byte = self.sequence.next_byte()
                manufactured += 1
                if i // width != last:
                    last = i // width
                    elements += 1
            out.append(byte)
        return bytes(out), manufactured, elements

    # -- runs -------------------------------------------------------------------
    #
    # The write hook keeps the capacity semantics of the element loop it
    # batches.  Elements wider than a byte (a block write is one) are each
    # stored whole or discarded whole.  A per-byte loop stores the first
    # bytes that fit when the store is nearly full and discards the rest, and
    # so does a run of one-byte elements.

    def on_invalid_write_run(self, event: MemoryErrorEvent, data: bytes) -> AccessDecision:
        width = event.length
        if width > 1:
            for i, element in enumerate(event.run(width, 0, len(data) // width)):
                self._store_element(element, data[i * width:(i + 1) * width])
            return AccessDecision.discard()
        count = len(data)
        self.record_event_run(event, count)
        offsets = range(event.offset, event.offset + count)
        stored_new = 0
        discarded = 0
        if self._stored_total + count <= self.max_stored_bytes:
            # Fast path: everything fits even if every offset is new.  One
            # C-level dict update; the new-offset count falls out of the
            # bucket growth.
            bucket = self._unit_store(event, create=True)
            before = len(bucket)
            bucket.update(zip(offsets, data))
            stored_new = len(bucket) - before
            self._stored_total += stored_new
        elif self._stored_total >= self.max_stored_bytes:
            # Store already full: overwrites still land (they consume no
            # capacity), every new offset is discarded, and no bucket is
            # made for a unit that has none.
            bucket = self._unit_store(event)
            if bucket:
                hits = bucket.keys() & frozenset(offsets)
                for offset in hits:
                    bucket[offset] = data[offset - event.offset]
                discarded = count - len(hits)
            else:
                discarded = count
        else:
            # Crossing capacity mid-run: byte-at-a-time accounting, exactly
            # like the per-byte loop (overwrites always land; new
            # offsets land only while there is room).
            bucket = self._unit_store(event, create=True)
            for i, byte in enumerate(data):
                offset = event.offset + i
                if offset in bucket:
                    bucket[offset] = byte
                elif self._stored_total < self.max_stored_bytes:
                    bucket[offset] = byte
                    self._stored_total += 1
                    stored_new += 1
                else:
                    discarded += 1
        if stored_new:
            self.emit(Discard(length=stored_new, count=stored_new, site=event.site,
                              request_id=event.request_id, stored=True))
        if discarded:
            self.emit(Discard(length=discarded, count=discarded, site=event.site,
                              request_id=event.request_id))
        return AccessDecision.discard()

    def on_invalid_read_run(self, event: MemoryErrorEvent, count: int) -> AccessDecision:
        self.record_event_run(event, count)
        data, manufactured, elements = self._lookup_bytes(event, count)
        if manufactured:
            self.emit(Manufacture(length=manufactured, count=elements,
                                  site=event.site, request_id=event.request_id))
        return AccessDecision.supply(data)

    def scan_invalid_read_run(self, event, count, until):
        bucket = self._unit_store(event) or {}
        get = bucket.get
        out = bytearray()
        manufactured = 0
        for offset in range(event.offset, event.offset + count):
            byte = get(offset)
            if byte is None:
                byte = self.sequence.next_byte()
                manufactured += 1
            out.append(byte)
            if byte in until:
                break
        produced = len(out)
        if produced:
            self.record_event_run(event, produced)
            if manufactured:
                self.emit(Manufacture(length=manufactured, count=manufactured,
                                      site=event.site, request_id=event.request_id))
        return AccessDecision.supply(bytes(out))

    # -- store bookkeeping ------------------------------------------------------

    def release_unit(self, unit_name: str, unit_size: int) -> None:
        """Drop every stored byte keyed to a (freed) unit, releasing capacity."""
        bucket = self._store.pop((unit_name, unit_size), None)
        if bucket:
            self._stored_total -= len(bucket)

    def stored_bytes(self) -> int:
        """Return how many out-of-bounds bytes are currently remembered."""
        return self._stored_total

    def checkpoint_state(self) -> dict:
        state = super().checkpoint_state()
        state["store"] = {key: dict(bucket) for key, bucket in self._store.items()}
        state["stored_total"] = self._stored_total
        return state

    def restore_state(self, state: dict) -> None:
        super().restore_state(state)
        self._store = {key: dict(bucket) for key, bucket in state["store"].items()}
        self._stored_total = state["stored_total"]


class RedirectPolicy(FailureObliviousPolicy):
    """§5.1 redirect variant: wrap out-of-bounds accesses back into the unit.

    An access at offset ``o`` of an ``n``-byte unit is performed at
    ``o % n`` instead.  This keeps related out-of-bounds reads mutually
    consistent because they observe properly initialized data from the same
    unit.  Accesses to dead (freed) or empty units cannot be redirected and
    take the inherited failure-oblivious continuation.
    """

    name = "redirect"
    # Writes memory on an invalid write, so it keeps the per-byte path.
    discards_invalid_writes = False

    @staticmethod
    def _wraps(event: MemoryErrorEvent) -> bool:
        """True when the access can wrap: its unit is alive and non-empty."""
        return event.kind is not ErrorKind.USE_AFTER_FREE and event.unit_size > 0

    def _redirect(self, event: MemoryErrorEvent, count: int) -> AccessDecision:
        """Publish the wrap of a run of ``count`` elements."""
        target = event.offset % event.unit_size
        self.emit(Redirect(offset=event.offset, redirect_offset=target,
                           length=count * event.length, access=event.access.value,
                           count=count, site=event.site, request_id=event.request_id))
        return AccessDecision.redirect(target)

    # -- runs -------------------------------------------------------------------
    #
    # A contiguous run of accesses at offsets o, o+1, ... lands at
    # (o + i) % size — i.e. exactly a wrapped contiguous range starting at
    # o % size, which the accessor's redirected bulk read/write reproduces.
    # A run of wider elements lands its bytes at the same places, so it is
    # the same wrapped range.  One Redirect record carries the run (count
    # element accesses); the redirected_accesses statistic counts each of
    # them.

    def on_invalid_read_run(self, event: MemoryErrorEvent, count: int) -> AccessDecision:
        if not self._wraps(event):
            return super().on_invalid_read_run(event, count)
        self.record_event_run(event, count)
        return self._redirect(event, count)

    def on_invalid_write_run(self, event: MemoryErrorEvent, data: bytes) -> AccessDecision:
        if not self._wraps(event):
            return super().on_invalid_write_run(event, data)
        count = len(data) // event.length
        self.record_event_run(event, count)
        return self._redirect(event, count)

    # -- batched terminator scans: the preview/commit protocol -------------------
    #
    # The redirect policy's invalid-read bytes live *in the unit* (the access
    # wraps to offset % size), so the policy cannot produce the scan bytes
    # itself the way failure-oblivious and boundless do.  Instead it returns a
    # REDIRECT preview; the accessor scans the wrapped range with its own raw
    # reads — stopping exactly where the per-byte loop would — and commits the
    # consumed length back here, where the deferred per-byte recording
    # happens.  Dead and empty units manufacture their scan bytes, the same
    # inherited continuation the read run takes.

    def scan_invalid_read_run(self, event, count, until):
        if not self._wraps(event):
            return super().scan_invalid_read_run(event, count, until)
        return AccessDecision.redirect(event.offset % event.unit_size)

    def commit_scan_run(self, event: MemoryErrorEvent, consumed: int) -> None:
        if consumed <= 0:
            return
        self.record_event_run(event, consumed)
        self._redirect(event, consumed)


#: Registry of policy names used by the harness's command-line style configuration.
POLICY_NAMES = {
    "standard": StandardPolicy,
    "bounds-check": BoundsCheckPolicy,
    "failure-oblivious": FailureObliviousPolicy,
    "boundless": BoundlessPolicy,
    "redirect": RedirectPolicy,
}
