"""The pre-fast-path byte-at-a-time cstring loops, kept verbatim.

This is the single source of truth for "what the substrate did before the
span fast path" (PR 2).  Two consumers anchor themselves to it:

* ``tests/test_cstring_equivalence.py`` proves the shipped span
  implementations are observably identical to these loops under every policy;
* ``benchmarks/test_substrate_throughput.py`` measures the fast path's
  speedup against them (the trajectory committed in ``BENCH_substrate.json``).

Keeping one copy means the equivalence property and the benchmark baseline
can never drift apart.  Do not "improve" these functions — their value is
being frozen history.
"""

from __future__ import annotations

from repro.errors import InfiniteLoopGuard
from repro.memory import cstring


def ref_strlen(mem, s, limit=None):
    limit = cstring.SCAN_LIMIT if limit is None else limit
    length = 0
    ptr = s
    while True:
        if length > limit:
            raise InfiniteLoopGuard(f"strlen scanned {limit} bytes without finding NUL")
        if mem.read_byte(ptr) == 0:
            return length
        ptr = ptr + 1
        length += 1


def ref_strcpy(mem, dst, src):
    d, s = dst, src
    copied = 0
    while True:
        if copied > cstring.SCAN_LIMIT:
            raise InfiniteLoopGuard("strcpy copied too many bytes")
        byte = mem.read_byte(s)
        mem.write_byte(d, byte)
        if byte == 0:
            return dst
        d, s = d + 1, s + 1
        copied += 1


def ref_strncpy(mem, dst, src, n):
    s = src
    hit_nul = False
    for i in range(n):
        if hit_nul:
            mem.write_byte(dst + i, 0)
            continue
        byte = mem.read_byte(s)
        mem.write_byte(dst + i, byte)
        if byte == 0:
            hit_nul = True
        s = s + 1
    return dst


def ref_strncat(mem, dst, src, n):
    end = dst + ref_strlen(mem, dst)
    i = 0
    while i < n:
        byte = mem.read_byte(src + i)
        if byte == 0:
            break
        mem.write_byte(end + i, byte)
        i += 1
    mem.write_byte(end + i, 0)
    return dst


def ref_strchr(mem, s, ch, limit=None):
    limit = cstring.SCAN_LIMIT if limit is None else limit
    ptr = s
    for _ in range(limit):
        byte = mem.read_byte(ptr)
        if byte == (ch & 0xFF):
            return ptr
        if byte == 0:
            return None
        ptr = ptr + 1
    raise InfiniteLoopGuard(f"strchr scanned {limit} bytes")


def ref_strcmp(mem, a, b, limit=None):
    limit = cstring.SCAN_LIMIT if limit is None else limit
    pa, pb = a, b
    for _ in range(limit):
        ba = mem.read_byte(pa)
        bb = mem.read_byte(pb)
        if ba != bb:
            return -1 if ba < bb else 1
        if ba == 0:
            return 0
        pa, pb = pa + 1, pb + 1
    raise InfiniteLoopGuard(f"strcmp scanned {limit} bytes")


def ref_read_c_string(mem, src, limit=None):
    limit = cstring.SCAN_LIMIT if limit is None else limit
    out = bytearray()
    ptr = src
    for _ in range(limit):
        byte = mem.read_byte(ptr)
        if byte == 0:
            return bytes(out)
        out.append(byte)
        ptr = ptr + 1
    raise InfiniteLoopGuard(f"read_c_string scanned {limit} bytes without NUL")
