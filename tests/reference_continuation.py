"""The scalar block-access continuation, frozen.

A checked block access — ``read(ptr, n)``/``write(ptr, data)``, and through
them every ``read_byte``/``write_byte``/``read_int``/``write_int`` — whose
range fails its check takes the out-of-bounds continuation: the in-bounds
prefix is performed, and the policy decides the rest.  These functions are
that path in its scalar form: the accessor entry points, the prefix split,
and one scalar hook per checking policy (``on_invalid_read(event, length)``
and ``on_invalid_write(event, data)``), each returning one
:class:`~repro.core.policy.AccessDecision` that the accessor then acts on.

``tests/test_block_continuation.py`` diffs the shipped accessor against
them under every checking policy.  The functions take the live accessor (or
its policy) and work on its state — address space, object table, decision
cache, policy counters, error log, manufactured sequence, Boundless store —
so a twin context driven through them can be compared field by field with
one driven through the shipped methods.  Do not "improve" this code: its
value is being frozen history.
"""

from __future__ import annotations

from repro.core.policies import (
    BoundlessPolicy,
    BoundsCheckPolicy,
    FailureObliviousPolicy,
    RedirectPolicy,
)
from repro.core.policy import AccessDecision, DecisionAction
from repro.errors import (
    AccessKind,
    BoundsCheckViolation,
    ErrorKind,
    MemoryErrorEvent,
    UseAfterFree,
)
from repro.memory.pointer import FatPointer
from repro.telemetry.events import Discard, Manufacture, Redirect


# -- the accessor's block entry points -------------------------------------------


def ref_read(mem, ptr, length):
    if length <= 0:
        return b""
    policy = mem.policy
    if not policy.performs_checks:
        return mem.space.read(ptr.address, length)
    policy.note_check()
    unit = ptr.referent
    if unit is mem._cached_unit:
        mem.table.lookups += 1
        if unit.contains_offset(ptr.offset, length):
            return mem.space.read(ptr.address, length)
    else:
        mem.table.find(ptr.address)
        if unit.alive and unit.contains_offset(ptr.offset, length):
            if mem._cache_enabled:
                mem._cached_unit = unit
            return mem.space.read(ptr.address, length)
    return ref_invalid_read(mem, ptr, length)


def ref_write(mem, ptr, data):
    if not data:
        return
    policy = mem.policy
    if not policy.performs_checks:
        mem.space.write(ptr.address, data)
        return
    policy.note_check()
    unit = ptr.referent
    if unit is mem._cached_unit:
        mem.table.lookups += 1
        if unit.contains_offset(ptr.offset, len(data)):
            mem.space.write(ptr.address, data)
            return
    else:
        mem.table.find(ptr.address)
        if unit.alive and unit.contains_offset(ptr.offset, len(data)):
            if mem._cache_enabled:
                mem._cached_unit = unit
            mem.space.write(ptr.address, data)
            return
    ref_invalid_write(mem, ptr, data)


def ref_read_byte(mem, ptr):
    unit = ptr.referent
    offset = ptr.offset
    policy = mem.policy
    if not policy.performs_checks:
        return mem.space.read_byte(unit.base + offset)
    policy.note_check()
    if unit is mem._cached_unit:
        mem.table.lookups += 1
        if 0 <= offset < unit.size:
            return mem.space.read_byte(unit.base + offset)
    else:
        address = unit.base + offset
        mem.table.find(address)
        if unit.alive and 0 <= offset < unit.size:
            if mem._cache_enabled:
                mem._cached_unit = unit
            return mem.space.read_byte(address)
    return ref_invalid_read(mem, ptr, 1)[0]


def ref_write_byte(mem, ptr, value):
    unit = ptr.referent
    offset = ptr.offset
    policy = mem.policy
    if not policy.performs_checks:
        mem.space.write_byte(unit.base + offset, value)
        return
    policy.note_check()
    if unit is mem._cached_unit:
        mem.table.lookups += 1
        if 0 <= offset < unit.size:
            mem.space.write_byte(unit.base + offset, value)
            return
    else:
        address = unit.base + offset
        mem.table.find(address)
        if unit.alive and 0 <= offset < unit.size:
            if mem._cache_enabled:
                mem._cached_unit = unit
            mem.space.write_byte(address, value)
            return
    ref_invalid_write(mem, ptr, bytes([value & 0xFF]))


def ref_read_int(mem, ptr, size=4, signed=True):
    data = ref_read(mem, ptr, size)
    return int.from_bytes(data, "little", signed=signed)


def ref_write_int(mem, ptr, value, size=4, signed=True):
    limit = 1 << (8 * size)
    value &= limit - 1
    if signed and value >= limit // 2:
        ref_write(mem, ptr, (value - limit).to_bytes(size, "little", signed=True))
    else:
        ref_write(mem, ptr, value.to_bytes(size, "little", signed=False))


# -- the continuation ----------------------------------------------------------------


def _classify(mem, ptr, length, access):
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
        site=mem.current_site,
        request_id=mem.current_request_id,
    )


def ref_invalid_read(mem, ptr, length):
    unit = ptr.referent
    prefix = b""
    oob_ptr = ptr
    oob_len = length
    if unit.alive and 0 <= ptr.offset < unit.size:
        prefix_len = unit.size - ptr.offset
        prefix = mem.space.read(ptr.address, prefix_len)
        oob_ptr = ptr + prefix_len
        oob_len = length - prefix_len
    event = _classify(mem, oob_ptr, oob_len, AccessKind.READ)
    decision = ref_on_invalid_read(mem.policy, event, oob_len)
    if decision.action is DecisionAction.RAISE:
        raise decision.exception
    if decision.action is DecisionAction.SUPPLY:
        return prefix + decision.data
    if decision.action is DecisionAction.REDIRECT:
        redirected = FatPointer(unit, decision.redirect_offset)
        return prefix + _read_redirected(mem, redirected, oob_len)
    return prefix + mem.space.read(oob_ptr.address, oob_len)


def ref_invalid_write(mem, ptr, data):
    unit = ptr.referent
    oob_ptr = ptr
    oob_data = data
    if unit.alive and 0 <= ptr.offset < unit.size:
        prefix_len = unit.size - ptr.offset
        mem.space.write(ptr.address, data[:prefix_len])
        oob_ptr = ptr + prefix_len
        oob_data = data[prefix_len:]
    event = _classify(mem, oob_ptr, len(oob_data), AccessKind.WRITE)
    decision = ref_on_invalid_write(mem.policy, event, oob_data)
    if decision.action is DecisionAction.RAISE:
        raise decision.exception
    if decision.action is DecisionAction.DISCARD:
        return
    if decision.action is DecisionAction.REDIRECT:
        _write_redirected(mem, unit, decision.redirect_offset, oob_data)
        return
    mem.space.write(oob_ptr.address, oob_data)


def _read_redirected(mem, ptr, length):
    unit = ptr.referent
    size = unit.size
    if size <= 0:
        return b"\x00" * length
    offset = ptr.offset % size
    if length <= size - offset:
        return mem.space.read(unit.base + offset, length)
    rotated = (
        mem.space.read(unit.base + offset, size - offset)
        + mem.space.read(unit.base, offset)
    )
    repeats = -(-length // len(rotated))
    return (rotated * repeats)[:length]


def _write_redirected(mem, unit, offset, data):
    size = unit.size
    if size <= 0:
        return
    if len(data) > size:
        offset = (offset + len(data) - size) % size
        data = data[-size:]
    else:
        offset %= size
    first = min(len(data), size - offset)
    mem.space.write(unit.base + offset, data[:first])
    if len(data) > first:
        mem.space.write(unit.base, data[first:])


# -- the scalar policy hooks ----------------------------------------------------------


def ref_on_invalid_read(policy, event, length):
    """The scalar read hook of ``policy``'s class."""
    if isinstance(policy, RedirectPolicy) and _wraps(event):
        policy.record_event(event)
        return _redirect(policy, event, length)
    if isinstance(policy, BoundlessPolicy):
        policy.record_event(event)
        data, manufactured = _boundless_lookup(policy, event, length)
        if manufactured:
            policy.emit(Manufacture(length=manufactured, site=event.site,
                                    request_id=event.request_id))
        return AccessDecision.supply(data)
    if isinstance(policy, FailureObliviousPolicy):
        policy.record_event(event)
        data = policy.sequence.next_bytes(length)
        policy.emit(Manufacture(length=length, site=event.site, request_id=event.request_id))
        return AccessDecision.supply(data)
    if isinstance(policy, BoundsCheckPolicy):
        policy.record_event(event)
        return AccessDecision.raise_(_exception_for(event))
    raise TypeError(f"no scalar read hook for {type(policy).__name__}")


def ref_on_invalid_write(policy, event, data):
    """The scalar write hook of ``policy``'s class."""
    if isinstance(policy, RedirectPolicy) and _wraps(event):
        policy.record_event(event)
        return _redirect(policy, event, len(data))
    if isinstance(policy, BoundlessPolicy):
        return _boundless_write(policy, event, data)
    if isinstance(policy, FailureObliviousPolicy):
        policy.record_event(event)
        policy.emit(Discard(length=len(data), site=event.site, request_id=event.request_id))
        return AccessDecision.discard()
    if isinstance(policy, BoundsCheckPolicy):
        policy.record_event(event)
        return AccessDecision.raise_(_exception_for(event))
    raise TypeError(f"no scalar write hook for {type(policy).__name__}")


def _exception_for(event):
    if event.kind is ErrorKind.USE_AFTER_FREE:
        return UseAfterFree(event)
    return BoundsCheckViolation(event)


def _wraps(event):
    return event.kind is not ErrorKind.USE_AFTER_FREE and event.unit_size > 0


def _redirect(policy, event, length):
    target = event.offset % event.unit_size
    policy.emit(Redirect(offset=event.offset, redirect_offset=target,
                         length=length, access=event.access.value, count=1,
                         site=event.site, request_id=event.request_id))
    return AccessDecision.redirect(target)


def _boundless_write(policy, event, data):
    policy.record_event(event)
    key = (event.unit_name, event.unit_size)
    bucket = policy._store.get(key) or {}
    new_bytes = sum(1 for i in range(len(data)) if event.offset + i not in bucket)
    if policy._stored_total + new_bytes <= policy.max_stored_bytes:
        policy._store.setdefault(key, {}).update(
            (event.offset + i, byte) for i, byte in enumerate(data)
        )
        policy._stored_total += new_bytes
        if new_bytes:
            policy.emit(Discard(length=new_bytes, site=event.site,
                                request_id=event.request_id, stored=True))
        return AccessDecision.discard()
    policy.emit(Discard(length=len(data), site=event.site, request_id=event.request_id))
    return AccessDecision.discard()


def _boundless_lookup(policy, event, length):
    bucket = policy._store.get((event.unit_name, event.unit_size))
    if not bucket:
        return policy.sequence.next_bytes(length), length
    out = bytearray()
    manufactured = 0
    get = bucket.get
    for offset in range(event.offset, event.offset + length):
        byte = get(offset)
        if byte is None:
            byte = policy.sequence.next_byte()
            manufactured += 1
        out.append(byte)
    return bytes(out), manufactured
