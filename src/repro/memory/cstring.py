"""C string and memory routines over the simulated address space.

The vulnerable code paths in the paper are written in terms of ``strcat``,
``strcpy``, byte-at-a-time copies, and pointer walks.  These helpers provide
the same operations over :class:`~repro.memory.pointer.FatPointer` values so
the server reimplementations read like the C they model — including the
property that every byte they touch goes through the policy-mediated accessor
and can therefore overflow, be discarded, or be manufactured.

Fast path
---------
Scanning and copying operate on whole *safe spans* (the contiguous raw
window reported by :meth:`MemoryAccessor.scan_span`) using the accessor's
bulk primitives, paying one policy check per span instead of one per byte.

Past the span boundary — where accesses become invalid — the continuation is
*also* batched, under every checking policy: a copy whose destination has
left its unit hands the whole out-of-bounds suffix to the policy as a single
run (the attack-flood shape: one ``on_invalid_write_run`` per source span
instead of one decision per byte), and terminator scans continue through
invalid runs via the policy's scan hook — failure-oblivious and boundless
generate their own bytes, while redirect (whose bytes live in the unit)
batches through the accessor's preview/commit scan protocol.  Under the
unchecked Standard build the span reaches the end of the segment and the
next byte faults, as it does in the byte loop.  All are observably identical
to the byte-at-a-time loops they replace — error-log queries,
manufactured-value consumption, boundless stores, memory images, fault
addresses — as proven by the equivalence suite; only the policy's
``checks_performed`` counter sees one check per span/run rather than per
byte.

The byte loop survives where per-byte semantics are genuinely load-bearing:
copies whose source has no safe span, and overlapping copies within one unit
(redirected writes could alias the bytes still being read).

Overlapping copies are chunked to the pointer distance so the forward
byte-copy propagation of the C originals is preserved exactly.

All functions take the accessor explicitly (no hidden global state), matching
the substrate guide's preference for explicit plumbing.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import InfiniteLoopGuard
from repro.memory.accessor import MemoryAccessor
from repro.memory.pointer import FatPointer

#: Upper bound on the number of bytes any single string scan may visit.  The
#: paper notes that manufactured values can drive loop conditions; this guard
#: converts a non-terminating scan into an observable HUNG outcome instead of
#: wedging the process.
SCAN_LIMIT = 1 << 20

#: Upper bound on the chunks used by span operations that must materialize
#: bytes before knowing where they stop (three-way comparison), so that the
#: Standard build — whose safe span extends to the end of the whole segment —
#: never eagerly copies megabytes to compare a short string.
CHUNK = 4096


def _copy_span(mem: MemoryAccessor, dst: FatPointer, src: FatPointer, n: int) -> int:
    """Largest bulk-copyable chunk size for a ``src`` → ``dst`` copy of ``n`` bytes.

    Zero means the byte loop must be used (no safe span on one side, or the
    regions coincide).  Overlapping forward copies are capped at the pointer
    distance, which makes chunked bulk copies reproduce the byte loop's
    self-propagation exactly.
    """
    span = min(mem.scan_span(src), mem.scan_span(dst), n)
    distance = abs(dst.address - src.address)
    if distance == 0:
        return 0
    return min(span, distance)


def strlen(mem: MemoryAccessor, s: FatPointer, limit: int = SCAN_LIMIT) -> int:
    """Return the number of bytes before the first NUL, scanning through memory."""
    length = 0
    ptr = s
    while True:
        # Fast path: search the whole safe span for the NUL in one pass.  The
        # span is capped so the loop guard fires after exactly as many bytes
        # as the byte loop would have examined.
        span = min(mem.scan_span(ptr), limit - length + 1)
        if span > 0:
            index = mem.find_byte(ptr, 0, span)
            if index >= 0:
                return length + index
            length += span
            ptr = ptr + span
            if length > limit:
                raise InfiniteLoopGuard(f"strlen scanned {limit} bytes without finding NUL")
            continue
        if length > limit:
            raise InfiniteLoopGuard(f"strlen scanned {limit} bytes without finding NUL")
        # Past the span: one read_span_until finishes the scan.  It crosses
        # invalid runs in one policy call each (the read side of the batched
        # continuation) and, on a miss, covers the whole remaining budget.
        _data, index = mem.read_span_until(ptr, 0, limit - length + 1)
        if index >= 0:
            return length + index
        raise InfiniteLoopGuard(f"strlen scanned {limit} bytes without finding NUL")


def _oob_copy_span(mem: MemoryAccessor, dst: FatPointer, src: FatPointer, n: int) -> int:
    """Source-span size for a batched out-of-bounds copy chunk, or 0.

    Nonzero when the destination has left its safe span (the attack-flood
    shape) but the source still reads from one, and the whole chunk can be
    handed to the policy as one invalid-write run.  Requires distinct units:
    writes redirected back into a shared unit would alias bytes the byte loop
    had not yet read.
    """
    if dst.same_unit(src) or mem.scan_span(dst) != 0:
        return 0
    return min(mem.scan_span(src), n)


def copy_c_string(
    mem: MemoryAccessor, dst: FatPointer, src: FatPointer, limit: Optional[int] = None
) -> int:
    """Copy the string at ``src`` to ``dst`` and return bytes copied (NUL included).

    This is ``strcpy`` with an explicit scan budget and a byte count, so the
    mini-C lowering pass can advance both loop pointers past the terminator
    and fire its iteration guard after exactly as many copied bytes as the
    per-byte loop it replaces.  ``limit=None`` reads :data:`SCAN_LIMIT` at
    call time, matching the byte loops (and the equivalence suite, which
    shrinks the module global for runaway self-propagating copies).
    """
    if limit is None:
        limit = SCAN_LIMIT
    d, s = dst, src
    copied = 0
    while True:
        if copied > limit:
            raise InfiniteLoopGuard("strcpy copied too many bytes")
        chunk = _copy_span(mem, d, s, limit - copied + 1)
        if chunk <= 1:
            # Destination out of bounds, source still spanning: one policy
            # decision for the whole chunk (write_span batches the invalid
            # run).  In-bounds source reads emit no events, so the event
            # stream is exactly the byte loop's write-event stream.
            chunk = _oob_copy_span(mem, d, s, limit - copied + 1)
        if chunk > 1:
            # One span-sized read (locating the NUL included) and one
            # span-sized write: one policy check per pointer per chunk.
            data, index = mem.read_span_until(s, 0, chunk)
            mem.write_span(d, data)
            if index >= 0:
                return copied + index + 1
            n = len(data)
            d, s = d + n, s + n
            copied += n
            continue
        byte = mem.read_byte(s)
        mem.write_byte(d, byte)
        if byte == 0:
            return copied + 1
        d, s = d + 1, s + 1
        copied += 1


def strcpy(mem: MemoryAccessor, dst: FatPointer, src: FatPointer) -> FatPointer:
    """Copy the NUL-terminated string at ``src`` to ``dst`` (no bounds respected)."""
    copy_c_string(mem, dst, src)
    return dst


def strncpy(mem: MemoryAccessor, dst: FatPointer, src: FatPointer, n: int) -> FatPointer:
    """Copy at most ``n`` bytes, NUL-padding like the C function."""
    s = src
    i = 0
    hit_nul = False
    while i < n and not hit_nul:
        chunk = _copy_span(mem, dst + i, s, n - i)
        if chunk <= 1:
            # Batched continuation for the overflowed-destination phase, as
            # in strcpy.
            chunk = _oob_copy_span(mem, dst + i, s, n - i)
        if chunk > 1:
            data, index = mem.read_span_until(s, 0, chunk)
            mem.write_span(dst + i, data)
            hit_nul = index >= 0
            i += len(data)
            s = s + len(data)
            continue
        byte = mem.read_byte(s)
        mem.write_byte(dst + i, byte)
        if byte == 0:
            hit_nul = True
        s = s + 1
        i += 1
    # NUL-padding tail.  write_span alternates memset-style span writes with
    # batched invalid runs, so one call covers the whole tail — an
    # overflowing pad is one policy decision per run, not per byte.
    if i < n:
        mem.write_span(dst + i, b"\x00" * (n - i))
    return dst


def strcat(mem: MemoryAccessor, dst: FatPointer, src: FatPointer) -> FatPointer:
    """Append ``src`` to the string at ``dst`` — the Midnight Commander primitive."""
    end = dst + strlen(mem, dst)
    strcpy(mem, end, src)
    return dst


def strncat(mem: MemoryAccessor, dst: FatPointer, src: FatPointer, n: int) -> FatPointer:
    """Append at most ``n`` bytes of ``src`` to ``dst``, always NUL-terminating.

    Like the C function the paper's servers call: the destination end is
    found with a span scan, up to ``n`` source bytes are copied through the
    span fast path (stopping early at the source NUL), and a terminator is
    written after the appended bytes — so a too-large ``n`` overflows the
    destination under whatever policy is bound, one decision per span/run.
    """
    end = dst + strlen(mem, dst)
    i = 0
    hit_nul = False
    while i < n and not hit_nul:
        chunk = _copy_span(mem, end + i, src + i, n - i)
        if chunk <= 1:
            chunk = _oob_copy_span(mem, end + i, src + i, n - i)
        if chunk > 1:
            data, index = mem.read_span_until(src + i, 0, chunk)
            if index >= 0:
                # Do not copy the source NUL itself; the terminator below is
                # the byte loop's separate final write.
                data = data[:index]
                hit_nul = True
            if len(data):
                mem.write_span(end + i, data)
            i += len(data)
            continue
        byte = mem.read_byte(src + i)
        if byte == 0:
            hit_nul = True
            break
        mem.write_byte(end + i, byte)
        i += 1
    mem.write_byte(end + i, 0)
    return dst


def strchr(mem: MemoryAccessor, s: FatPointer, ch: int, limit: int = SCAN_LIMIT) -> Optional[FatPointer]:
    """Return a pointer to the first occurrence of ``ch``, or None at NUL."""
    ptr = s
    scanned = 0
    target = ch & 0xFF
    while scanned < limit:
        span = min(mem.scan_span(ptr), limit - scanned)
        if span > 1:
            hit, nul = mem.find_bytes(ptr, (target, 0), span)
            # The byte loop tests ``== ch`` before ``== 0`` at each position,
            # so a hit at the NUL's own index still returns the pointer.
            if hit >= 0 and (nul < 0 or hit <= nul):
                return ptr + hit
            if nul >= 0:
                return None
            ptr = ptr + span
            scanned += span
            continue
        byte = mem.read_byte(ptr)
        if byte == target:
            return ptr
        if byte == 0:
            return None
        ptr = ptr + 1
        scanned += 1
    raise InfiniteLoopGuard(f"strchr scanned {limit} bytes")


def strcmp(mem: MemoryAccessor, a: FatPointer, b: FatPointer, limit: int = SCAN_LIMIT) -> int:
    """Standard three-way string comparison."""
    pa, pb = a, b
    scanned = 0
    # Grow the comparison chunk geometrically: short strings (the common
    # case) touch tens of bytes, while long equal prefixes quickly reach
    # CHUNK-sized strides.  Without this, the Standard build — whose safe
    # span runs to the end of the segment — would materialize CHUNK bytes
    # from both strings to compare a 3-byte pair.
    chunk = 64
    while scanned < limit:
        span = min(mem.scan_span(pa), mem.scan_span(pb), limit - scanned, chunk)
        chunk = min(chunk * 4, CHUNK)
        if span > 1:
            # read_span returns zero-copy views here; equality and membership
            # work on views directly, so nothing is materialized.
            da = mem.read_span(pa, span)
            db = mem.read_span(pb, span)
            if da == db:
                if 0 in da:
                    return 0
                pa, pb = pa + span, pb + span
                scanned += span
                continue
            diff = next(i for i in range(span) if da[i] != db[i])
            if 0 in da[:diff]:  # both strings end before the first difference
                return 0
            return -1 if da[diff] < db[diff] else 1
        ba = mem.read_byte(pa)
        bb = mem.read_byte(pb)
        if ba != bb:
            return -1 if ba < bb else 1
        if ba == 0:
            return 0
        pa, pb = pa + 1, pb + 1
        scanned += 1
    raise InfiniteLoopGuard(f"strcmp scanned {limit} bytes")


def memcpy(mem: MemoryAccessor, dst: FatPointer, src: FatPointer, n: int) -> FatPointer:
    """Copy ``n`` bytes (block copy; partial overflows split at the unit boundary)."""
    data = mem.read(src, n)
    mem.write(dst, data)
    return dst


def memset(mem: MemoryAccessor, dst: FatPointer, value: int, n: int) -> FatPointer:
    """Fill ``n`` bytes with ``value``."""
    mem.write(dst, bytes([value & 0xFF]) * n)
    return dst


def write_bytes(mem: MemoryAccessor, dst: FatPointer, data: bytes) -> None:
    """Write a byte blob through the span fast path, one decision per span/run.

    A single ``write_span`` covers in-bounds spans and batched invalid runs
    alike (the strncpy padding precedent), with the same observable effect
    as a byte-at-a-time store loop.
    """
    mem.write_span(dst, data)


def write_c_string(mem: MemoryAccessor, dst: FatPointer, text: bytes) -> None:
    """Store a Python byte string plus terminating NUL through the accessor."""
    mem.write(dst, text + b"\x00")


def read_c_string(mem: MemoryAccessor, src: FatPointer, limit: int = SCAN_LIMIT) -> bytes:
    """Read a NUL-terminated string back into Python bytes."""
    # One scan covers safe spans and invalid runs alike; on a miss it has
    # visited all ``limit`` bytes.
    data, nul = mem.read_span_until(src, 0, limit)
    if nul < 0:
        raise InfiniteLoopGuard(f"read_c_string scanned {limit} bytes without NUL")
    # View to bytes: the API boundary where the caller takes ownership.
    return bytes(data[:nul])


def read_fixed(mem: MemoryAccessor, src: FatPointer, n: int) -> bytes:
    """Read exactly ``n`` bytes (no NUL handling)."""
    return mem.read(src, n)
