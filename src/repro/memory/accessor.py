"""The memory accessor: every load and store goes through here.

The accessor is the compiled program's view of memory.  For the Standard
(unchecked) policy it performs raw accesses at the computed address — which is
what lets overflows smash neighbouring allocations, heap metadata, and saved
return addresses.  For checking policies it first validates the access against
the pointer's intended referent and, on failure, executes whatever continuation
the policy chooses: terminate (Bounds Check), discard/manufacture (Failure
Oblivious), remember (Boundless), or redirect (Redirect).

Partial overflows behave like the byte-by-byte C code they model: the in-bounds
prefix of a block access is performed normally and only the out-of-bounds
suffix is subject to the policy.
"""

from __future__ import annotations

from typing import Optional

from repro.core.policy import AccessPolicy, DecisionAction
from repro.errors import (
    AccessKind,
    ErrorKind,
    MemoryErrorEvent,
    SegmentationFault,
)
from repro.memory.address_space import AddressSpace
from repro.memory.data_unit import DataUnit
from repro.memory.object_table import ObjectTable
from repro.memory.pointer import FatPointer


class MemoryAccessor:
    """Policy-mediated reads and writes over the simulated address space.

    For checking policies every access performs an object-table lookup, the
    same work the CRED checker does to map a pointer to its referent.  Our fat
    pointers already know their referent, so the lookup result is never used;
    only its count is kept (``table.lookups``), and the decision cache skips
    the bisect itself on repeated accesses to one referent.  The Standard
    (unchecked) policy skips the lookup entirely, exactly like uninstrumented
    code.

    What the wall time of a per-byte access is made of, as measured: the
    caller's pointer arithmetic, then the dispatch into this class, then the
    check.  The first two are paid by every build, so the slowdown columns of
    the paper's Figures 2-6 come out at 1.06-1.28x here (``results.txt``), not
    the paper's up to 8x.  A modeled slowdown column built from the
    per-request counters is ROADMAP item 1.
    """

    def __init__(
        self,
        address_space: AddressSpace,
        object_table: ObjectTable,
        policy: AccessPolicy,
        decision_cache: bool = True,
    ) -> None:
        self.space = address_space
        self.table = object_table
        self.policy = policy
        #: Decision cache: the unit whose last access fully validated.  Hot
        #: request loops touch the same referent over and over; a hit skips
        #: the object-table bisect (the lookup *result* is never used — our
        #: fat pointers know their referent — so only its cost is modelled,
        #: and the cache charges that cost to ``table.lookups`` unchanged).
        #: Invariant: a cached unit is alive.  It is evicted by the unit's
        #: death hook (free / frame pop / realloc) and by
        #: :meth:`invalidate_cache` (image restores, where the table is
        #: rebuilt without firing death hooks).
        self._cached_unit: Optional[DataUnit] = None
        self._cache_enabled = decision_cache and policy.performs_checks
        if self._cache_enabled:
            object_table.add_death_hook(self._evict_dead_unit)
        #: Label describing the source location of the access, set by callers
        #: (the servers set it to function names) so error-log events can be
        #: attributed; mirrors the paper's per-site error log.
        self.current_site = ""
        #: Request id stamped on error events, used by the propagation analysis.
        self.current_request_id: Optional[int] = None

    # -- decision cache --------------------------------------------------------------

    def _evict_dead_unit(self, unit: DataUnit) -> None:
        """Death hook keeping the cache's alive-invariant (see ``__init__``)."""
        if unit is self._cached_unit:
            self._cached_unit = None

    def invalidate_cache(self) -> None:
        """Drop the decision cache.

        Called on image restores: :meth:`ObjectTable.restore` rebuilds fresh
        units without firing death hooks (an image swap is not a
        program-visible unit death), so the context evicts explicitly.
        """
        self._cached_unit = None

    # -- site / request bookkeeping ------------------------------------------------

    def set_site(self, site: str) -> None:
        """Set the source-site label attached to subsequent error events."""
        self.current_site = site

    def set_request(self, request_id: Optional[int]) -> None:
        """Set the request id attached to subsequent error events."""
        self.current_request_id = request_id

    # -- classification -------------------------------------------------------------

    def _classify(self, ptr: FatPointer, length: int, access: AccessKind) -> MemoryErrorEvent:
        unit = ptr.referent
        if ptr.is_null:
            kind = ErrorKind.NULL_DEREF
        elif not unit.alive:
            kind = ErrorKind.USE_AFTER_FREE
        else:
            kind = ErrorKind.OUT_OF_BOUNDS
        return MemoryErrorEvent(
            kind=kind,
            access=access,
            unit_name=unit.label(),
            unit_size=unit.size,
            offset=ptr.offset,
            length=length,
            site=self.current_site,
            request_id=self.current_request_id,
        )

    # -- reads -----------------------------------------------------------------------

    def read(self, ptr: FatPointer, length: int) -> bytes:
        """Read ``length`` bytes through ``ptr`` under the active policy."""
        if length <= 0:
            return b""
        policy = self.policy
        if not policy.performs_checks:
            return self.space.read(ptr.address, length)
        policy.note_check()
        unit = ptr.referent
        if unit is self._cached_unit:
            # Cache hit: the unit is alive (cache invariant); only the bounds
            # check remains.  The skipped bisect is still charged as a lookup.
            self.table.lookups += 1
            if unit.contains_offset(ptr.offset, length):
                return self.space.read(ptr.address, length)
        else:
            # The CRED-style referent lookup; see the class docstring.
            self.table.find(ptr.address)
            if unit.alive and unit.contains_offset(ptr.offset, length):
                if self._cache_enabled:
                    self._cached_unit = unit
                return self.space.read(ptr.address, length)
        return self._invalid_read(ptr, length)

    def _invalid_read(self, ptr: FatPointer, length: int) -> bytes:
        unit = ptr.referent
        # Split off an in-bounds prefix, if any, and read it normally.
        prefix = b""
        oob_ptr = ptr
        oob_len = length
        if unit.alive and 0 <= ptr.offset < unit.size:
            prefix_len = unit.size - ptr.offset
            prefix = self.space.read(ptr.address, prefix_len)
            oob_ptr = ptr + prefix_len
            oob_len = length - prefix_len
        event = self._classify(oob_ptr, oob_len, AccessKind.READ)
        decision = self.policy.on_invalid_read(event, oob_len)
        if decision.action is DecisionAction.RAISE:
            raise decision.exception
        if decision.action is DecisionAction.SUPPLY:
            return prefix + decision.data
        if decision.action is DecisionAction.REDIRECT:
            redirected = FatPointer(unit, decision.redirect_offset)
            return prefix + self._read_redirected(redirected, oob_len)
        # PERFORM_RAW / DISCARD fall through to the raw access.
        return prefix + self.space.read(oob_ptr.address, oob_len)

    @staticmethod
    def _tile_rotation(rotated: bytes, length: int) -> bytes:
        """Extend one full rotation of a unit's bytes out to ``length``.

        The single definition of the wrap-and-tile idiom: per-byte accesses at
        offsets ``o, o+1, ...`` revisit the same rotation every ``len(rotated)``
        bytes, so a range longer than the unit repeats it.
        """
        repeats = -(-length // len(rotated))  # ceil division
        return (rotated * repeats)[:length]

    def _read_redirected(self, ptr: FatPointer, length: int) -> bytes:
        """Read a redirected range, wrapping around inside the unit as needed.

        The wrapped range is assembled from whole-slice reads: one when the
        range fits before the end of the unit, two (a rotation) when it wraps,
        and a tiled rotation when it is longer than the unit itself.
        """
        unit = ptr.referent
        size = unit.size
        if size <= 0:  # defensive: policies never redirect into empty units
            return b"\x00" * length
        offset = ptr.offset % size
        if length <= size - offset:
            return self.space.read(unit.base + offset, length)
        rotated = (
            self.space.read(unit.base + offset, size - offset)
            + self.space.read(unit.base, offset)
        )
        return self._tile_rotation(rotated, length)

    # -- writes ----------------------------------------------------------------------

    def write(self, ptr: FatPointer, data: bytes) -> None:
        """Write ``data`` through ``ptr`` under the active policy."""
        if not data:
            return
        policy = self.policy
        if not policy.performs_checks:
            self.space.write(ptr.address, data)
            return
        policy.note_check()
        unit = ptr.referent
        if unit is self._cached_unit:
            self.table.lookups += 1
            if unit.contains_offset(ptr.offset, len(data)):
                self.space.write(ptr.address, data)
                return
        else:
            # The CRED-style referent lookup; see the class docstring.
            self.table.find(ptr.address)
            if unit.alive and unit.contains_offset(ptr.offset, len(data)):
                if self._cache_enabled:
                    self._cached_unit = unit
                self.space.write(ptr.address, data)
                return
        self._invalid_write(ptr, data)

    def _invalid_write(self, ptr: FatPointer, data: bytes) -> None:
        unit = ptr.referent
        oob_ptr = ptr
        oob_data = data
        if unit.alive and 0 <= ptr.offset < unit.size:
            prefix_len = unit.size - ptr.offset
            self.space.write(ptr.address, data[:prefix_len])
            oob_ptr = ptr + prefix_len
            oob_data = data[prefix_len:]
        event = self._classify(oob_ptr, len(oob_data), AccessKind.WRITE)
        decision = self.policy.on_invalid_write(event, oob_data)
        if decision.action is DecisionAction.RAISE:
            raise decision.exception
        if decision.action is DecisionAction.DISCARD:
            return
        if decision.action is DecisionAction.REDIRECT:
            self._write_redirected(unit, decision.redirect_offset, oob_data)
            return
        # PERFORM_RAW: the unchecked behaviour, performed deliberately.
        self.space.write(oob_ptr.address, oob_data)

    def _scan_redirected(
        self, unit: DataUnit, offset: int, count: int, target: int
    ) -> "tuple[bytes, bool]":
        """Terminator scan over a redirected (wrapped) range: the commit side
        of the redirect policy's preview/commit scan protocol.

        Visits the unit bytes at ``(offset + i) % size`` for ``i`` in
        ``[0, count)``, stopping after the first ``target`` — exactly the
        bytes the per-byte loop would have observed, in the same order.
        Returns the bytes visited (terminator included) and whether it was
        found.  One full wrap covers every unit offset, so a miss after
        ``size`` visited bytes can never become a hit later (nothing writes
        the unit mid-scan); the remainder is tiled without re-searching.
        """
        size = unit.size
        space = self.space
        start = offset % size
        first_len = min(count, size - start)
        index = space.find_byte(unit.base + start, target, first_len, charge_reads=False)
        if index >= 0:
            return space.read(unit.base + start, index + 1), True
        head = space.read(unit.base + start, first_len)
        rest = count - first_len
        if rest <= 0:
            return head, False
        second_len = min(rest, start)
        if second_len > 0:
            index = space.find_byte(unit.base, target, second_len, charge_reads=False)
            if index >= 0:
                return head + space.read(unit.base, index + 1), True
        if rest <= start:
            return head + space.read(unit.base, second_len), False
        # The whole unit was searched without a hit; tile the rotation out to
        # ``count`` bytes (the per-byte loop would keep reading the same
        # wrapped content until its limit ran out).  The raw reads stay
        # per-byte-faithful: the slice reads above charged one rotation, and
        # the tiled remainder is charged explicitly — only checks_performed
        # moves to per-run granularity.
        rotated = head + space.read(unit.base, start)
        space.raw_reads += count - len(rotated)
        return self._tile_rotation(rotated, count), False

    def _write_redirected(self, unit: DataUnit, offset: int, data: bytes) -> None:
        """Write a redirected range, wrapping inside the unit as needed.

        Equivalent to writing the bytes one at a time at ``(offset + i) %
        size`` but performed with at most two slice writes: when the data is
        longer than the unit, only the last ``size`` bytes survive the
        byte-at-a-time overwrites, so only they are written.
        """
        size = unit.size
        if size <= 0:  # defensive: policies never redirect into empty units
            return
        if len(data) > size:
            offset = (offset + len(data) - size) % size
            data = data[-size:]
        else:
            offset %= size
        first = min(len(data), size - offset)
        self.space.write(unit.base + offset, data[:first])
        if len(data) > first:
            self.space.write(unit.base, data[first:])

    # -- scalar helpers ----------------------------------------------------------------

    def read_byte(self, ptr: FatPointer) -> int:
        """Read one unsigned byte (fast path for the common in-bounds case).

        The pointer's fields are read once and the address is summed here,
        not through the ``address`` property: this runs once per byte of
        every handler loop.
        """
        unit = ptr.referent
        offset = ptr.offset
        policy = self.policy
        if not policy.performs_checks:
            return self.space.read_byte(unit.base + offset)
        policy.note_check()
        if unit is self._cached_unit:
            self.table.lookups += 1
            if 0 <= offset < unit.size:
                return self.space.read_byte(unit.base + offset)
        else:
            address = unit.base + offset
            self.table.find(address)
            if unit.alive and 0 <= offset < unit.size:
                if self._cache_enabled:
                    self._cached_unit = unit
                return self.space.read_byte(address)
        return self._invalid_read(ptr, 1)[0]

    def write_byte(self, ptr: FatPointer, value: int) -> None:
        """Write one byte (fast path for the common in-bounds case; see
        :meth:`read_byte`)."""
        unit = ptr.referent
        offset = ptr.offset
        policy = self.policy
        if not policy.performs_checks:
            self.space.write_byte(unit.base + offset, value)
            return
        policy.note_check()
        if unit is self._cached_unit:
            self.table.lookups += 1
            if 0 <= offset < unit.size:
                self.space.write_byte(unit.base + offset, value)
                return
        else:
            address = unit.base + offset
            self.table.find(address)
            if unit.alive and 0 <= offset < unit.size:
                if self._cache_enabled:
                    self._cached_unit = unit
                self.space.write_byte(address, value)
                return
        self._invalid_write(ptr, bytes([value & 0xFF]))

    def read_int(self, ptr: FatPointer, size: int = 4, signed: bool = True) -> int:
        """Read a little-endian integer of ``size`` bytes."""
        data = self.read(ptr, size)
        return int.from_bytes(data, "little", signed=signed)

    def write_int(self, ptr: FatPointer, value: int, size: int = 4, signed: bool = True) -> None:
        """Write a little-endian integer of ``size`` bytes."""
        limit = 1 << (8 * size)
        value &= limit - 1
        if signed and value >= limit // 2:
            self.write(ptr, (value - limit).to_bytes(size, "little", signed=True))
        else:
            self.write(ptr, value.to_bytes(size, "little", signed=False))

    # -- span helpers -------------------------------------------------------------------
    #
    # The span methods are the bulk fast path the C-string routines are built
    # on.  A *span* is the contiguous range that can be accessed raw without
    # policy intervention: the in-bounds window of the referent for checking
    # policies, the rest of the containing segment for the unchecked Standard
    # build.  One policy check and one object-table lookup are paid per span
    # instead of per byte.
    #
    # Outside the span, accesses are invalid and the policy decides.  The
    # whole contiguous invalid run is classified once and handed to the
    # policy as a single ``on_invalid_read_run``/``on_invalid_write_run``/
    # ``scan_invalid_read_run`` call — the batched out-of-bounds continuation
    # that removes the per-byte ceiling on attack floods, and the only
    # protocol between the span helpers and a checking policy.  The run hooks
    # are bit-identical to the per-byte loop for everything a program or the
    # error log can observe (the equivalence suite diffs them against the
    # frozen per-byte reference under every policy); only
    # ``checks_performed`` counts one check per run instead of per byte.
    # Under Standard, which checks nothing, the byte after a segment's span
    # is unmapped and faults (see ``_invalid_run_length``).

    def scan_span(self, ptr: FatPointer) -> int:
        """Length of the contiguous raw-accessible span starting at ``ptr``.

        Pure query: no policy bookkeeping is performed.  Returns 0 when every
        access at ``ptr`` must go through the policy (or would fault).
        """
        if not self.policy.performs_checks:
            segment = self.space.find_segment(ptr.address)
            return 0 if segment is None else segment.end - ptr.address
        return ptr.remaining()

    def _note_span_check(self, ptr: FatPointer) -> None:
        """One policy check + one CRED-style table lookup, paid per span.

        Participates in the decision cache: span callers only invoke this
        after ``scan_span(ptr) > 0``, which guarantees the referent is alive
        and the span in bounds, so the unit may be cached directly.
        """
        policy = self.policy
        if policy.performs_checks:
            policy.note_check()
            if ptr.referent is self._cached_unit:
                self.table.lookups += 1
            else:
                self.table.find(ptr.address)
                if self._cache_enabled:
                    self._cached_unit = ptr.referent

    def _invalid_run_length(self, ptr: FatPointer, length: int) -> int:
        """Length of the contiguous invalid run starting at ``ptr``.

        Every byte of the returned range classifies identically (same kind,
        same unit): a pointer below its unit re-enters bounds at offset 0, so
        the run stops there; above the unit, or into a dead or null unit, the
        whole remaining range is one run.

        The unchecked Standard build has no invalid runs: its span ends at the
        end of a segment, so the byte at ``ptr`` is unmapped and the access
        faults there, after the in-segment prefix, as the raw byte loop does.
        """
        if not self.policy.performs_checks:
            raise SegmentationFault(ptr.address)
        unit = ptr.referent
        if not ptr.is_null and unit.alive and ptr.offset < 0:
            return min(-ptr.offset, length)
        return length

    def _invalid_read_run(self, ptr: FatPointer, count: int) -> bytes:
        """One policy decision for a contiguous run of per-byte invalid reads."""
        policy = self.policy
        policy.note_check()
        self.table.find(ptr.address)
        event = self._classify(ptr, 1, AccessKind.READ)
        decision = policy.on_invalid_read_run(event, count)
        if decision.action is DecisionAction.RAISE:
            raise decision.exception
        if decision.action is DecisionAction.SUPPLY:
            return decision.data
        if decision.action is DecisionAction.REDIRECT:
            # Per-byte accesses at offsets o, o+1, ... land at (o + i) % size:
            # exactly the wrapped contiguous read starting at the redirect
            # target.
            redirected = FatPointer(ptr.referent, decision.redirect_offset)
            return self._read_redirected(redirected, count)
        # PERFORM_RAW falls through to the raw access.
        return self.space.read(ptr.address, count)

    def _invalid_write_run(self, ptr: FatPointer, data: bytes) -> None:
        """One policy decision for a contiguous run of per-byte invalid writes."""
        policy = self.policy
        policy.note_check()
        self.table.find(ptr.address)
        event = self._classify(ptr, 1, AccessKind.WRITE)
        decision = policy.on_invalid_write_run(event, data)
        if decision.action is DecisionAction.RAISE:
            raise decision.exception
        if decision.action is DecisionAction.DISCARD:
            return
        if decision.action is DecisionAction.REDIRECT:
            self._write_redirected(ptr.referent, decision.redirect_offset, data)
            return
        # PERFORM_RAW: the unchecked behaviour, performed deliberately.
        self.space.write(ptr.address, data)

    def read_span(self, ptr: FatPointer, length: int) -> "bytes | memoryview":
        """Bulk read: one policy decision per safe span *and* per invalid run.

        Alternates between raw reads of in-bounds spans and batched policy
        continuations for the invalid runs between them.

        Zero-copy contract: when the whole request fits one safe span the
        returned value is a read-only :class:`memoryview` aliasing the live
        segment (valid until the next store to the range); other paths return
        ``bytes``.  Callers that retain the result across further substrate
        activity must copy (``bytes(result)`` — a no-op when it already is
        ``bytes``).
        """
        if length <= 0:
            return b""
        # Fast path for the dominant case: the whole request inside one safe
        # span — no copy at all, the caller gets a view of the segment.
        span = min(self.scan_span(ptr), length)
        if span == length:
            self._note_span_check(ptr)
            return self.space.read_view(ptr.address, length)
        out = bytearray()
        pos = 0
        while pos < length:
            here = ptr + pos
            span = min(self.scan_span(here), length - pos)
            if span > 0:
                self._note_span_check(here)
                out += self.space.read_view(here.address, span)
                pos += span
                continue
            run = self._invalid_run_length(here, length - pos)
            out += self._invalid_read_run(here, run)
            pos += run
        return bytes(out)

    def write_span(self, ptr: FatPointer, data: "bytes | memoryview") -> None:
        """Bulk write: one policy decision per safe span *and* per invalid run.

        The write-side counterpart of :meth:`read_span`; this is the path
        that absorbs an attack flood's out-of-bounds suffix in one policy
        call per span instead of one per byte.

        Accepts any bytes-like ``data`` — in particular the views
        :meth:`read_span` / :meth:`read_span_until` return, which is how the
        cstring copy pipeline moves bytes without materializing them.  A view
        over simulated memory must not overlap the destination range (the
        cstring helpers guarantee this by capping chunks at the pointer
        distance and, for out-of-bounds streaming, requiring distinct units).
        """
        if not data:
            return
        length = len(data)
        # Fast path: the whole write inside one safe span — no slicing.
        span = min(self.scan_span(ptr), length)
        if span == length:
            self._note_span_check(ptr)
            self.space.write(ptr.address, data)
            return
        if not isinstance(data, memoryview):
            # The split paths below slice ``data`` per span/run; a view makes
            # those slices free.  (Policy hooks only measure, iterate, or
            # re-slice the run payloads, so handing them sub-views is safe.)
            data = memoryview(data)
        pos = 0
        while pos < length:
            here = ptr + pos
            span = min(self.scan_span(here), length - pos)
            if span > 0:
                self._note_span_check(here)
                self.space.write(here.address, data[pos:pos + span])
                pos += span
                continue
            run = self._invalid_run_length(here, length - pos)
            self._invalid_write_run(here, data[pos:pos + run])
            pos += run

    def read_span_until(
        self, ptr: FatPointer, value: int, limit: int
    ) -> "tuple[bytes | memoryview, int]":
        """Read up to and including the first ``value``; one check per span/run.

        Returns ``(data, index)`` where ``index`` is the offset of ``value``
        relative to ``ptr`` (or -1 on a miss) and ``data`` holds the bytes up
        to and including the hit.  This is the ``strcpy``/``read_c_string``
        shape: locating the terminator and fetching the bytes is a single
        span-sized read per safe span.  When the scan resolves inside the
        first safe span, ``data`` is a read-only :class:`memoryview` of the
        live segment (same zero-copy contract as :meth:`read_span`);
        multi-span scans return ``bytes``.

        Beyond the safe span the scan continues through invalid runs via the
        policy's ``scan_invalid_read_run`` hook: failure-oblivious and
        boundless generate their own bytes, redirect previews a wrapped scan
        that this method performs and commits back, and all of them stop
        exactly where a per-byte loop would.  On a miss ``data`` holds all
        ``limit`` bytes scanned.
        """
        target = value & 0xFF
        # Fast path for the dominant case: the hit (or the whole limit)
        # inside the first safe span — one raw read, no accumulator.
        span = min(self.scan_span(ptr), limit)
        if span > 0:
            self._note_span_check(ptr)
            # The follow-up read charges the raw-access counter for these bytes.
            index = self.space.find_byte(ptr.address, target, span, charge_reads=False)
            if index >= 0:
                return self.space.read_view(ptr.address, index + 1), index
            first = self.space.read_view(ptr.address, span)
            if span == limit:
                return first, -1
        else:
            first = b""
        policy = self.policy
        out = bytearray(first)
        pos = span
        while pos < limit:
            here = ptr + pos
            span = min(self.scan_span(here), limit - pos)
            if span > 0:
                self._note_span_check(here)
                index = self.space.find_byte(here.address, target, span, charge_reads=False)
                length = index + 1 if index >= 0 else span
                out += self.space.read_view(here.address, length)
                if index >= 0:
                    return bytes(out), pos + index
                pos += span
                continue
            run = self._invalid_run_length(here, limit - pos)
            policy.note_check()
            self.table.find(here.address)
            event = self._classify(here, 1, AccessKind.READ)
            decision = policy.scan_invalid_read_run(event, run, (target,))
            if decision.action is DecisionAction.RAISE:
                raise decision.exception
            if decision.action is DecisionAction.REDIRECT:
                # Preview/commit: the policy's bytes live in the unit, so the
                # accessor performs the wrapped scan and reports the consumed
                # length back for the deferred per-byte recording.
                data, hit = self._scan_redirected(
                    here.referent, decision.redirect_offset, run, target
                )
                policy.commit_scan_run(event, len(data))
                out += data
                if hit:
                    return bytes(out), pos + len(data) - 1
                pos += len(data)
                continue
            data = decision.data
            out += data
            if data[-1] == target:
                return bytes(out), pos + len(data) - 1
            pos += len(data)
        return bytes(out), -1

    def find_byte(self, ptr: FatPointer, value: int, limit: int) -> int:
        """Search the safe span for ``value``; one check per call.

        Returns the offset relative to ``ptr`` of the first occurrence within
        ``min(limit, scan_span(ptr))`` bytes, or -1 if the value does not
        occur there.  A -1 only means "not in the span": callers continue with
        the per-byte path at the span boundary.
        """
        span = min(self.scan_span(ptr), limit)
        if span <= 0:
            return -1
        self._note_span_check(ptr)
        return self.space.find_byte(ptr.address, value, span)

    def find_bytes(self, ptr: FatPointer, values: "tuple[int, ...]", limit: int) -> "tuple[int, ...]":
        """Search the safe span for several values at once; one check total.

        Returns one offset (or -1) per entry of ``values``, all from the same
        span scan, so callers needing e.g. both a character and the NUL (the
        ``strchr`` shape) still pay a single policy check and table lookup.
        """
        span = min(self.scan_span(ptr), limit)
        if span <= 0:
            return tuple(-1 for _ in values)
        self._note_span_check(ptr)
        address = ptr.address
        # One span scan's worth of raw reads, however many values are sought.
        return tuple(
            self.space.find_byte(address, value, span, charge_reads=(position == 0))
            for position, value in enumerate(values)
        )

    # -- unit helpers -------------------------------------------------------------------

    def read_unit(self, unit: DataUnit) -> bytes:
        """Read an entire data unit (always in bounds)."""
        return self.read(FatPointer(unit), unit.size)

    def zero_unit(self, unit: DataUnit) -> None:
        """Zero an entire data unit (always in bounds)."""
        self.write(FatPointer(unit), b"\x00" * unit.size)
