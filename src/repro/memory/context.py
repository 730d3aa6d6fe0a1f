"""MemoryContext: the bundle of substrate objects a simulated C program runs in.

A context owns one address space, one object table, one heap allocator, one
call stack, and one policy-mediated accessor.  The server reimplementations
treat it as their process image plus libc: ``ctx.malloc`` / ``ctx.free`` for the
heap, ``ctx.stack_frame`` for stack-allocated locals, and ``ctx.mem`` for loads
and stores.  Swapping the policy is the analogue of recompiling the same source
with a different compiler — nothing else about the program changes.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from repro.core.policy import AccessPolicy
from repro.core.policies import FailureObliviousPolicy
from repro.memory.accessor import MemoryAccessor
from repro.memory.address_space import (
    AddressSpace,
    AddressSpaceCheckpoint,
    AddressSpaceDelta,
)
from repro.memory.allocator import HeapAllocator, HeapAllocatorCheckpoint
from repro.memory.cstring import read_c_string, write_c_string
from repro.memory.object_table import ObjectTable, ObjectTableCheckpoint
from repro.memory.pointer import FatPointer
from repro.memory.stack import CallStack, CallStackCheckpoint, StackFrame


@dataclass(frozen=True)
class MemoryImage:
    """A complete, pure-data checkpoint of one simulated process image.

    Composes the per-component checkpoints (address space bytes, object
    table, allocator, call stack) with the accessor's attribution labels and
    the policy's side state (check count, error log, manufactured-value
    generators, boundless store).  Because no live object is referenced, one
    image can be restored into its own context any number of times *and*
    into other compatible contexts — which is how the pre-fork child pool
    clones workers from a single template boot.
    """

    policy_name: str
    space: AddressSpaceCheckpoint
    table: ObjectTableCheckpoint
    heap: HeapAllocatorCheckpoint
    stack: CallStackCheckpoint
    site: str
    request_id: Optional[int]
    policy_state: dict


@dataclass(frozen=True)
class MemoryDelta:
    """An incremental checkpoint: dirty segment blocks plus full side state.

    The address-space bytes dominate checkpoint cost by orders of magnitude,
    so only they are captured incrementally
    (:class:`~repro.memory.address_space.AddressSpaceDelta`); the object
    table, allocator, stack, and policy side state are small pure-data
    records and are captured whole — a delta is therefore self-contained for
    everything except segment bytes, and restoring snapshot *k* is "replay
    block deltas up to *k*, then adopt delta *k*'s components verbatim".
    """

    policy_name: str
    space: AddressSpaceDelta
    table: ObjectTableCheckpoint
    heap: HeapAllocatorCheckpoint
    stack: CallStackCheckpoint
    site: str
    request_id: Optional[int]
    policy_state: dict


class MemoryContext:
    """One simulated process image bound to one access policy.

    Parameters
    ----------
    policy:
        The build variant.  Defaults to the failure-oblivious policy so that
        quickstart examples demonstrate the paper's contribution by default.
    heap_size / stack_size / globals_size:
        Segment sizes, forwarded to :class:`~repro.memory.address_space.AddressSpace`.
    decision_cache:
        Whether the accessor may cache the last fully-validated referent
        (default on; the cached/uncached equivalence property turns it off
        for its reference context).
    """

    def __init__(
        self,
        policy: Optional[AccessPolicy] = None,
        heap_size: int = 4 * 1024 * 1024,
        stack_size: int = 256 * 1024,
        globals_size: int = 64 * 1024,
        decision_cache: bool = True,
    ) -> None:
        self.policy = policy if policy is not None else FailureObliviousPolicy()
        #: The unified telemetry bus for this process image (owned by the
        #: policy's error log, shared by the allocator and the server loop).
        self.bus = self.policy.bus
        self.space = AddressSpace(
            globals_size=globals_size, heap_size=heap_size, stack_size=stack_size
        )
        self.table = ObjectTable()
        self.heap = HeapAllocator(self.space, self.table, bus=self.bus)
        self.stack = CallStack(self.space, self.table)
        self.mem = MemoryAccessor(
            self.space, self.table, self.policy, decision_cache=decision_cache
        )
        # Policies holding per-unit side state (the boundless store) reclaim
        # it at unit death.  The object table is the single definition of
        # death — heap frees and stack frame pops both unregister there — so
        # this covers shapes the allocator's AllocFree event cannot (a soak
        # overflowing a different stack local every request).
        release = getattr(self.policy, "release_unit", None)
        if release is not None:
            self.table.add_death_hook(lambda unit: release(unit.label(), unit.size))

    # -- heap conveniences ---------------------------------------------------------

    def malloc(self, size: int, name: str = "malloc") -> FatPointer:
        """Allocate ``size`` bytes and return a pointer to the new unit."""
        return FatPointer(self.heap.malloc(size, name=name))

    def calloc(self, count: int, size: int, name: str = "calloc") -> FatPointer:
        """Allocate and zero ``count * size`` bytes."""
        return FatPointer(self.heap.calloc(count, size, name=name))

    def free(self, ptr: FatPointer) -> None:
        """Free the allocation ``ptr`` points into (must point to its base)."""
        self.heap.free(ptr.referent)

    def realloc(self, ptr: Optional[FatPointer], size: int, name: str = "realloc") -> FatPointer:
        """Resize an allocation, returning a pointer to the (possibly moved) block."""
        unit = ptr.referent if ptr is not None else None
        return FatPointer(self.heap.realloc(unit, size, name=name))

    def alloc_c_string(self, text: bytes, name: str = "string") -> FatPointer:
        """Allocate a heap buffer holding ``text`` plus a terminating NUL."""
        ptr = self.malloc(len(text) + 1, name=name)
        write_c_string(self.mem, ptr, text)
        return ptr

    def read_c_string(self, ptr: FatPointer) -> bytes:
        """Read a NUL-terminated string back out of simulated memory."""
        return read_c_string(self.mem, ptr)

    # -- stack conveniences ----------------------------------------------------------

    @contextlib.contextmanager
    def stack_frame(self, function: str) -> Iterator[StackFrame]:
        """Context manager entering and leaving a simulated stack frame.

        The frame is popped even if the body raises, and popping verifies the
        saved return address — so an unchecked overflow inside the body turns
        into a crash or hijack at return time, as on real hardware.
        """
        frame = self.stack.push_frame(function)
        try:
            yield frame
        finally:
            self.stack.pop_frame()

    def stack_buffer(self, name: str, size: int) -> FatPointer:
        """Allocate a local buffer in the current frame."""
        return FatPointer(self.stack.alloc_local(name, size))

    def seal_frame(self) -> None:
        """Finish frame layout (place the saved return address after the locals)."""
        self.stack.seal_frame()

    # -- policy plumbing --------------------------------------------------------------

    @property
    def error_log(self):
        """The policy's memory-error log (§3's administrator log)."""
        return self.policy.error_log

    def set_site(self, site: str) -> None:
        """Label subsequent accesses with a source site for the error log."""
        self.mem.set_site(site)

    def set_request(self, request_id: Optional[int]) -> None:
        """Stamp subsequent error and telemetry events with a request id."""
        self.mem.set_request(request_id)
        self.bus.current_request_id = request_id

    # -- checkpoint / restore --------------------------------------------------------

    def checkpoint(self) -> MemoryImage:
        """Capture the whole process image as pure data.

        The server lifecycle calls this once after boot; every subsequent
        restart is then a :meth:`restore` instead of a rebuild-and-reboot.
        """
        return MemoryImage(
            policy_name=self.policy.name,
            space=self.space.checkpoint(),
            table=self.table.checkpoint(),
            heap=self.heap.checkpoint(),
            stack=self.stack.checkpoint(),
            site=self.mem.current_site,
            request_id=self.mem.current_request_id,
            policy_state=self.policy.checkpoint_state(),
        )

    def delta_checkpoint(self) -> MemoryDelta:
        """Capture an incremental checkpoint: O(dirty blocks) of segment bytes.

        Chains from the most recent :meth:`checkpoint` or
        :meth:`delta_checkpoint` (the space refuses to produce a delta with
        no base to chain from).  Non-segment components are captured whole —
        they are small pure-data records — so the delta restores via
        :meth:`restore_components` exactly like a full image once the
        segment bytes have been replayed.
        """
        return MemoryDelta(
            policy_name=self.policy.name,
            space=self.space.delta_checkpoint(),
            table=self.table.checkpoint(),
            heap=self.heap.checkpoint(),
            stack=self.stack.checkpoint(),
            site=self.mem.current_site,
            request_id=self.mem.current_request_id,
            policy_state=self.policy.checkpoint_state(),
        )

    def restore_components(
        self,
        *,
        table: ObjectTableCheckpoint,
        heap: HeapAllocatorCheckpoint,
        stack: CallStackCheckpoint,
        site: str,
        request_id: Optional[int],
        policy_state: dict,
        restore_space: Optional[Callable[[], None]] = None,
    ) -> None:
        """Restore everything around the segment bytes, in dependency order.

        ``restore_space`` is invoked between the table rebuild and the
        allocator/stack restores — the point where :meth:`restore` resets
        the segment bytes.  Callers that replay bytes some other way (the
        checkpoint stream's block patches) pass their replay here so the
        ordering invariants hold for them too.
        """
        units_by_base = self.table.restore(table)
        # The table rebuild does not fire death hooks (an image swap is not a
        # program-visible unit death), so the accessor's decision cache —
        # which may hold a pre-restore unit — is evicted explicitly.
        self.mem.invalidate_cache()
        if restore_space is not None:
            restore_space()
        self.heap.restore(heap, units_by_base)
        self.stack.restore(stack, units_by_base)
        self.mem.set_site(site)
        self.mem.set_request(request_id)
        self.bus.current_request_id = request_id
        self.policy.restore_state(policy_state)

    def restore(self, image: MemoryImage) -> None:
        """Reset the process image to a checkpoint.

        Restores segment bytes (O(dirty blocks) when this context took the
        checkpoint), rebuilds the object table / allocator / stack against
        one shared set of fresh units, and resets the policy's side state.
        The context keeps its identity — policy, bus, attached sinks, and
        death-hook wiring stay in place — so external observers keep
        observing the same process slot across restarts.
        """
        if image.policy_name != self.policy.name:
            raise ValueError(
                f"cannot restore a {image.policy_name!r} image into a "
                f"{self.policy.name!r} context"
            )
        self.restore_components(
            table=image.table,
            heap=image.heap,
            stack=image.stack,
            site=image.site,
            request_id=image.request_id,
            policy_state=image.policy_state,
            restore_space=lambda: self.space.restore(image.space),
        )
