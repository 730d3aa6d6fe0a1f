"""repro: failure-oblivious computing (Rinard et al., OSDI 2004) as a Python library.

The package reproduces the paper's system end to end:

* :mod:`repro.core` — the build variants (Standard, Bounds Check, Failure
  Oblivious, plus the §5.1 Boundless and Redirect variants), the manufactured
  value sequence, and the memory-error log.
* :mod:`repro.memory` — the simulated C memory substrate (address space,
  object table, heap allocator, call stack, fat pointers, policy-mediated
  accessor, C string routines).
* :mod:`repro.minic` — a mini-C front end and interpreter so the paper's
  Figure 1 routine can be run from C-like source under every policy.
* :mod:`repro.servers` — reimplementations of the five evaluated servers
  (Pine, Apache, Sendmail, Midnight Commander, Mutt) with their documented
  memory errors.
* :mod:`repro.workloads` — benign request generators and attack payloads.
* :mod:`repro.harness` — experiment runner, timing, and report tables that
  regenerate every figure in the paper's evaluation.
* :mod:`repro.analysis` — error-propagation-distance and security outcome
  analyses.

Quickstart
----------
>>> from repro import MemoryContext, FailureObliviousPolicy
>>> ctx = MemoryContext(FailureObliviousPolicy())
>>> buf = ctx.malloc(8, name="small")
>>> ctx.mem.write(buf + 6, b"overflowing")   # invalid suffix is discarded
>>> len(ctx.error_log)
1
"""

from repro.core import (
    AccessPolicy,
    BoundlessPolicy,
    BoundsCheckPolicy,
    FailureObliviousPolicy,
    ManufacturedValueSequence,
    MemoryErrorLog,
    RedirectPolicy,
    StandardPolicy,
    POLICY_NAMES,
)
from repro.errors import (
    BoundsCheckViolation,
    ControlFlowHijack,
    HeapCorruption,
    MemoryErrorEvent,
    RequestOutcome,
    RequestResult,
    SegmentationFault,
)
from repro.memory import FatPointer, MemoryContext

__version__ = "1.0.0"

__all__ = [
    "AccessPolicy",
    "StandardPolicy",
    "BoundsCheckPolicy",
    "FailureObliviousPolicy",
    "BoundlessPolicy",
    "RedirectPolicy",
    "POLICY_NAMES",
    "ManufacturedValueSequence",
    "MemoryErrorLog",
    "MemoryContext",
    "FatPointer",
    "MemoryErrorEvent",
    "RequestOutcome",
    "RequestResult",
    "SegmentationFault",
    "BoundsCheckViolation",
    "ControlFlowHijack",
    "HeapCorruption",
    "__version__",
]
