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
*also* batched, under every checking policy.  The copies share one loop: a
copy whose destination has left its unit hands the whole out-of-bounds
suffix to the policy as a single run (the attack-flood shape: one
``on_invalid_write_run`` per source span instead of one decision per byte),
and a source that has left its unit is read by one batched scan.  Terminator
scans (``strchr``'s stops at its character or the NUL) continue through
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

The byte step survives where per-byte order is load-bearing: in a copy with
both pointers out of bounds or in one unit (see :func:`_copy_string`), and in
``strcmp`` past a span, where the stop depends on the other string.

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
#: wedging the process.  Every scan given no ``limit`` reads it at call time.
SCAN_LIMIT = 1 << 20

#: Upper bound on the chunks used by span operations that must materialize
#: bytes before knowing where they stop (three-way comparison), so that the
#: Standard build — whose safe span extends to the end of the whole segment —
#: never eagerly copies megabytes to compare a short string.
CHUNK = 4096


def strlen(mem: MemoryAccessor, s: FatPointer, limit: Optional[int] = None) -> int:
    """Return the number of bytes before the first NUL, scanning through memory."""
    limit = SCAN_LIMIT if limit is None else limit
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


def _copy_chunk(mem: MemoryAccessor, dst: FatPointer, src: FatPointer, n: int) -> int:
    """Bytes the next copy step moves as one span read and one span write, or 0.

    With both pointers in safe spans the chunk is capped at the pointer
    distance, so chunked copies self-propagate like the byte loop.  With one
    pointer in a span the units must differ, so neither side aliases the other.
    """
    src_span = mem.scan_span(src)
    dst_span = mem.scan_span(dst)
    if src_span and dst_span:
        return min(src_span, dst_span, n, abs(dst.address - src.address))
    if dst.same_unit(src):
        return 0
    return min(src_span or dst_span, n)


def _copy_string(
    mem: MemoryAccessor, dst: FatPointer, src: FatPointer, n: int, keep_nul: bool
) -> "tuple[int, bool]":
    """The copy loop under ``strcpy``, ``strncpy`` and ``strncat``.

    Copies up to the first NUL or ``n`` bytes, writing the NUL only when
    ``keep_nul``, and returns ``(written, hit_nul)``.  In a chunk the side
    that stays in bounds records nothing, so its events are the byte loop's.
    """
    d, s = dst, src
    i = 0
    while i < n:
        chunk = _copy_chunk(mem, d, s, n - i)
        if chunk:
            data, index = mem.read_span_until(s, 0, chunk)
            if index >= 0 and not keep_nul:
                data = data[:index]
            mem.write_span(d, data)
            i += len(data)
            if index >= 0:
                return i, True
            d, s = d + chunk, s + chunk
            continue
        # Both pointers out of bounds, or out of bounds within one unit: the
        # byte loop interleaves the read and write records here, and a
        # redirected write can land on a source byte not yet read.
        byte = mem.read_byte(s)
        if byte or keep_nul:
            mem.write_byte(d, byte)
            i += 1
        if byte == 0:
            return i, True
        d, s = d + 1, s + 1
    return i, False


def copy_c_string(
    mem: MemoryAccessor, dst: FatPointer, src: FatPointer, limit: Optional[int] = None
) -> int:
    """Copy the string at ``src`` to ``dst`` and return bytes copied (NUL included).

    This is ``strcpy`` with an explicit scan budget and a byte count, so the
    mini-C lowering pass can advance both loop pointers past the terminator
    and fire its iteration guard after exactly as many copied bytes as the
    per-byte loop it replaces (``limit + 1`` bytes).
    """
    limit = SCAN_LIMIT if limit is None else limit
    copied, hit_nul = _copy_string(mem, dst, src, limit + 1, keep_nul=True)
    if not hit_nul:
        raise InfiniteLoopGuard("strcpy copied too many bytes")
    return copied


def strcpy(mem: MemoryAccessor, dst: FatPointer, src: FatPointer) -> FatPointer:
    """Copy the NUL-terminated string at ``src`` to ``dst`` (no bounds respected)."""
    copy_c_string(mem, dst, src)
    return dst


def strncpy(mem: MemoryAccessor, dst: FatPointer, src: FatPointer, n: int) -> FatPointer:
    """Copy at most ``n`` bytes, NUL-padding like the C function."""
    copied, _hit_nul = _copy_string(mem, dst, src, n, keep_nul=True)
    # NUL-padding tail.  write_span alternates memset-style span writes with
    # batched invalid runs, so one call covers the whole tail — an
    # overflowing pad is one policy decision per run, not per byte.
    if copied < n:
        mem.write_span(dst + copied, b"\x00" * (n - copied))
    return dst


def strcat(mem: MemoryAccessor, dst: FatPointer, src: FatPointer) -> FatPointer:
    """Append ``src`` to the string at ``dst`` — the Midnight Commander primitive."""
    end = dst + strlen(mem, dst)
    strcpy(mem, end, src)
    return dst


def strncat(mem: MemoryAccessor, dst: FatPointer, src: FatPointer, n: int) -> FatPointer:
    """Append at most ``n`` bytes of ``src`` to ``dst``, always NUL-terminating.

    Like the C function the paper's servers call: the destination end is
    found with a span scan, up to ``n`` source bytes are copied (stopping
    early at the source NUL, which is not copied), and a terminator is
    written after the appended bytes — so a too-large ``n`` overflows the
    destination under whatever policy is bound, one decision per span/run.
    """
    end = dst + strlen(mem, dst)
    appended, _hit_nul = _copy_string(mem, end, src, n, keep_nul=False)
    mem.write_byte(end + appended, 0)
    return dst


def strchr(
    mem: MemoryAccessor, s: FatPointer, ch: int, limit: Optional[int] = None
) -> Optional[FatPointer]:
    """Return a pointer to the first occurrence of ``ch``, or None at NUL."""
    limit = SCAN_LIMIT if limit is None else limit
    ptr = s
    scanned = 0
    target = ch & 0xFF
    span = min(mem.scan_span(ptr), limit)
    if span > 1:
        hit, nul = mem.find_bytes(ptr, (target, 0), span)
        # The byte loop tests ``== ch`` before ``== 0`` at each position,
        # so a hit at the NUL's own index still returns the pointer.
        if hit >= 0 and (nul < 0 or hit <= nul):
            return ptr + hit
        if nul >= 0:
            return None
        ptr = ptr + span
        scanned = span
    # Past the span: one scan that stops at either byte finishes the search,
    # crossing invalid runs in one policy call each.
    data, index = mem.read_span_until(ptr, (target, 0), limit - scanned)
    if index >= 0:
        return ptr + index if data[index] == target else None
    raise InfiniteLoopGuard(f"strchr scanned {limit} bytes")


def strcmp(mem: MemoryAccessor, a: FatPointer, b: FatPointer, limit: Optional[int] = None) -> int:
    """Standard three-way string comparison."""
    limit = SCAN_LIMIT if limit is None else limit
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
            if da == db and 0 not in da:
                pa, pb = pa + span, pb + span
                scanned += span
                continue
            # The byte loop stops at the first difference or the first NUL,
            # having read both strings up to there and no further.
            stop = next(i for i in range(span) if da[i] != db[i] or da[i] == 0)
            mem.space.raw_reads -= 2 * (span - stop - 1)
            if da[stop] == db[stop]:  # both strings end here
                return 0
            return -1 if da[stop] < db[stop] else 1
        # Byte step: where one string's bytes run out of its span, the
        # stop depends on the other string's byte at the same position.
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


def read_c_string(mem: MemoryAccessor, src: FatPointer, limit: Optional[int] = None) -> bytes:
    """Read a NUL-terminated string back into Python bytes."""
    limit = SCAN_LIMIT if limit is None else limit
    # One scan covers safe spans and invalid runs alike; on a miss it has
    # visited all ``limit`` bytes.
    data, nul = mem.read_span_until(src, 0, limit)
    if nul < 0:
        raise InfiniteLoopGuard(f"read_c_string scanned {limit} bytes without NUL")
    # View to bytes: the API boundary where the caller takes ownership.
    return bytes(data[:nul])
