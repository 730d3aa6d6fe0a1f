"""Per-layer tracing for the benchmark's traced run.

:class:`LayerTracer` installs wrappers, from the benchmark's own files, around
the public functions of each layer of ``repro`` (the layers are named after
its modules) and removes them again afterwards.  Two kinds of wrapper:

* **span** wrappers, for calls made a few times per request or less, record
  one span per call: name, start, end, parent span and request id;
* **hot** wrappers, for calls made millions of times per run (per-byte
  accessor calls, event-bus fan-out, policy hooks), only add to counters.

Both kinds keep a frame on one shared stack, so every call learns how long
its wrapped children ran and *self time* -- a call's duration minus the time
its wrapped children cover -- is exact at every depth.  A request's
per-layer accumulators are the change in the layer counters between the
start and the end of the request's root call.  Spans and per-request rows
stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from measure import percentile

SPAN = "span"
HOT = "hot"


class Stat:
    """Counters for one group of wrapped functions."""

    __slots__ = ("calls", "entries", "self_ns", "incl_ns", "units")

    def __init__(self) -> None:
        #: Every call, nested or not.
        self.calls = 0
        #: Calls entering the layer from outside it.
        self.entries = 0
        self.self_ns = 0
        #: Duration of the entering calls (the layer's inclusive time).
        self.incl_ns = 0
        #: Bytes or records the entering calls asked for (see the sizers).
        self.units = 0


@dataclass
class Target:
    """One wrapped function."""

    owner: object
    attr: str
    stat: str
    layer: str
    mode: str
    #: Measures an entering call's work from its arguments.
    sizer: Optional[Callable[..., int]] = None
    #: The call can start a request (when no request is in progress).
    root: bool = False


def _length_arg(_self, _ptr, length, *rest, **kw) -> int:
    return length


def _data_arg(_self, _ptr, data, *rest, **kw) -> int:
    return len(data)


def _limit_arg(_self, _ptr, _value, limit, *rest, **kw) -> int:
    return limit


def _one(*_args, **_kw) -> int:
    return 1


def _read_int_size(_self, _ptr, size=4, *rest, **kw) -> int:
    return size


def _write_int_size(_self, _ptr, _value, size=4, *rest, **kw) -> int:
    return size


def _run_count(_self, _event, count, *rest, **kw) -> int:
    return count


#: Accessor methods and the bytes each entering call asks for.
ACCESSOR_SIZERS = {
    "read": _length_arg,
    "write": _data_arg,
    "read_int": _read_int_size,
    "write_int": _write_int_size,
    "read_span": _length_arg,
    "write_span": _data_arg,
    "read_span_until": _limit_arg,
    "find_byte": _limit_arg,
    "find_bytes": _limit_arg,
}
PER_BYTE_ACCESSORS = ("read_byte", "write_byte")
POLICY_HOOKS = (
    "on_invalid_read", "on_invalid_write", "on_invalid_read_run",
    "on_invalid_write_run", "scan_invalid_read_run",
)


def layer_targets() -> List[Target]:
    """The public functions timed per layer."""
    from repro.core.errorlog import MemoryErrorLog
    from repro.core.policies import POLICY_NAMES
    from repro.core.policy import AccessPolicy
    from repro.fleet import scheduler
    from repro.memory.accessor import MemoryAccessor
    from repro.memory.allocator import HeapAllocator
    from repro.memory.checkpoint_stream import CheckpointStream
    from repro.memory.context import MemoryContext
    from repro.minic.interpreter import ProgramInstance
    from repro.recovery.supervisor import RecoverySupervisor
    from repro.servers.base import Server
    from repro.servers.profile import PROFILES
    from repro.telemetry.bus import EventBus

    targets = [
        Target(scheduler, "run_fleet", "fleet", "fleet", SPAN),
        Target(RecoverySupervisor, "submit", "recovery.submit", "recovery", SPAN, root=True),
        Target(RecoverySupervisor, "take_snapshot", "recovery.snapshot", "recovery", SPAN),
        Target(CheckpointStream, "snapshot", "recovery.stream", "recovery", SPAN),
        Target(CheckpointStream, "restore", "recovery.rollback", "recovery", SPAN),
        Target(Server, "process", "servers.process", "servers", SPAN, root=True),
        Target(Server, "__init__", "memory.image", "memory.image", SPAN),
        Target(Server, "adopt_image", "memory.image.restart", "memory.image", SPAN),
        Target(Server, "restart", "memory.image.restart", "memory.image", SPAN),
        Target(MemoryContext, "checkpoint", "memory.image", "memory.image", SPAN),
        Target(MemoryContext, "restore", "memory.image", "memory.image", SPAN),
        Target(HeapAllocator, "verify_heap", "memory.allocator.verify_heap",
               "memory.allocator", SPAN),
        Target(EventBus, "emit", "telemetry", "telemetry", HOT),
        Target(ProgramInstance, "call", "minic", "minic", HOT),
        Target(MemoryErrorLog, "record", "core.errorlog", "core.errorlog", HOT, _one),
        Target(MemoryErrorLog, "record_run", "core.errorlog", "core.errorlog", HOT,
               _run_count),
    ]
    handlers = {profile.server_cls for profile in PROFILES.values()}
    for cls in sorted(handlers, key=lambda cls: cls.__name__):
        if "handle" in vars(cls):
            targets.append(Target(cls, "handle", "servers.handle", "servers", SPAN))
    for name in ("malloc", "calloc", "realloc", "free"):
        targets.append(Target(HeapAllocator, name, "memory.allocator", "memory.allocator", HOT))
    for name, sizer in ACCESSOR_SIZERS.items():
        targets.append(Target(MemoryAccessor, name, "memory.accessor", "memory.accessor",
                              HOT, sizer))
    for name in PER_BYTE_ACCESSORS:
        targets.append(Target(MemoryAccessor, name, "memory.accessor.byte",
                              "memory.accessor", HOT, _one))
    policy_classes = {AccessPolicy, *POLICY_NAMES.values()}
    for cls in sorted(policy_classes, key=lambda cls: cls.__name__):
        for name in POLICY_HOOKS:
            if name in vars(cls):
                targets.append(Target(cls, name, "core.policy", "core.policy", HOT))
    return targets


class LayerTracer:
    """Wraps the layer functions while installed; keeps spans and counters."""

    def __init__(self) -> None:
        self.stats: Dict[str, Stat] = {}
        #: (span id, parent span id, name, start ns, end ns, request id).
        self.spans: List[Tuple[int, int, str, int, int, Optional[int]]] = []
        #: One row per request: id, root name, duration and the layer
        #: counters' change while it ran.
        self.requests: List[Dict[str, object]] = []
        #: Largest live-unit count any heap walk found.
        self.live_units_max = 0
        # A frame is [wrapped children's ns, layer, enclosing span id]; the
        # bottom frame stands for the load generator itself.
        self._stack: List[list] = [[0, "", 0]]
        self._next_span = 1
        self._request_id: Optional[int] = None
        #: Layer counters (calls, self ns) when the current request began.
        self._before: Dict[str, Tuple[int, int]] = {}
        self._installed: List[Tuple[object, str, object]] = []
        self._profile_of: Dict[type, str] = {}

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        from repro.servers.profile import PROFILES

        self._profile_of = {p.server_cls: p.name for p in PROFILES.values()}
        for target in layer_targets():
            stat = self.stats.setdefault(target.stat, Stat())
            original = vars(target.owner)[target.attr]
            if target.mode == HOT:
                wrapper = self._hot(original, stat, target)
            else:
                wrapper = self._span(original, stat, target)
            setattr(target.owner, target.attr, functools.wraps(original)(wrapper))
            self._installed.append((target.owner, target.attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.uninstall()

    # -- wrappers ------------------------------------------------------------

    def _hot(self, original, stat: Stat, target: Target):
        stack = self._stack
        clock = time.perf_counter_ns
        layer = target.layer
        sizer = target.sizer

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [0, layer, parent[2]]
            stack.append(frame)
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                parent[0] += elapsed
                stat.calls += 1
                stat.self_ns += elapsed - frame[0]
                if parent[1] != layer:
                    stat.entries += 1
                    stat.incl_ns += elapsed
                    if sizer is not None:
                        stat.units += sizer(*args, **kwargs)

        return wrapper

    def _span(self, original, stat: Stat, target: Target):
        tracer = self
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter_ns
        layer = target.layer
        name = target.stat
        is_process = target.stat == "servers.process"
        is_heap_walk = target.stat == "memory.allocator.verify_heap"
        can_root = target.root

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            span_id = tracer._next_span
            tracer._next_span += 1
            frame = [0, layer, span_id]
            stack.append(frame)
            root = can_root and tracer._request_id is None
            if root:
                tracer._begin_request(args[1].request_id)
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                end = clock()
                elapsed = end - start
                stack.pop()
                parent[0] += elapsed
                stat.calls += 1
                stat.self_ns += elapsed - frame[0]
                if parent[1] != layer:
                    stat.entries += 1
                    stat.incl_ns += elapsed
                span_name = name
                if is_process:
                    span_name = f"servers.{tracer._profile(args[0])}.process"
                elif is_heap_walk:
                    units = args[0].allocations - args[0].frees
                    if units > tracer.live_units_max:
                        tracer.live_units_max = units
                spans.append((span_id, parent[2], span_name, start, end, tracer._request_id))
                if root:
                    tracer._end_request(span_name, elapsed)

        return wrapper

    def root(self, name: str, send: Callable):
        """Wrap the load generator's ``send(request)`` as a request's root span."""
        stat = self.stats.setdefault(name, Stat())
        target = Target(None, "", name, name.split(".")[0], SPAN, root=True)
        wrapped = self._span(lambda _pool, request: send(request), stat, target)
        return lambda request: wrapped(None, request)

    def _profile(self, server) -> str:
        cls = type(server)
        return self._profile_of.get(cls, cls.__name__)

    # -- per-request rows ----------------------------------------------------

    def _begin_request(self, request_id: int) -> None:
        self._request_id = request_id
        self._before = {key: (s.calls, s.self_ns) for key, s in self.stats.items()}

    def _end_request(self, name: str, elapsed_ns: int) -> None:
        layers = {}
        for key, stat in self.stats.items():
            calls, self_ns = self._before.get(key, (0, 0))
            if stat.calls != calls:
                layers[key] = [stat.calls - calls, stat.self_ns - self_ns]
        self.requests.append(
            {"request": self._request_id, "root": name, "ns": elapsed_ns, "layers": layers}
        )
        self._request_id = None

    # -- output --------------------------------------------------------------

    def write(self, path: str, meta: Dict[str, object]) -> None:
        """Write the spans and per-request rows as gzipped JSON lines."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            totals = {
                key: {name: getattr(stat, name) for name in Stat.__slots__}
                for key, stat in sorted(self.stats.items())
            }
            out.write(json.dumps({"meta": meta, "totals": totals}) + "\n")
            for span in self.spans:
                out.write(json.dumps(span) + "\n")
            for row in self.requests:
                out.write(json.dumps(row) + "\n")

    def durations_us(self, name: str) -> List[float]:
        return sorted((end - start) / 1e3 for _i, _p, n, start, end, _r in self.spans
                      if n == name)


#: Per-server rows reported by the traced run, one per profile the
#: workloads use.
PROFILE_ROWS = ("apache", "sendmail", "minic-sendmail", "pine", "mutt", "midnight-commander")

#: Every per-layer metric: name -> (unit, better).
LAYER_METRICS: Dict[str, Tuple[str, str]] = {
    "loadgen.latency_p50_ms": ("ms", "lower"),
    "loadgen.latency_p99_ms": ("ms", "lower"),
    "loadgen.late_p99_ms": ("ms", "lower"),
    "loadgen.backlog_max": ("count", "lower"),
    "fleet.self_ms_per_req": ("ms", "lower"),
    "servers.process.p50_us": ("us", "lower"),
    "servers.process.p99_us": ("us", "lower"),
    "servers.handle.self_ms_per_req": ("ms", "lower"),
    **{f"servers.{name}.process.p50_us": ("us", "lower") for name in PROFILE_ROWS},
    "memory.accessor.calls_per_req": ("count", "lower"),
    "memory.accessor.self_ms_per_req": ("ms", "lower"),
    "memory.accessor.bytes_per_call": ("bytes", "higher"),
    "memory.accessor.per_byte_share": ("ratio", "lower"),
    "memory.allocator.self_ms_per_req": ("ms", "lower"),
    "memory.allocator.verify_heap.ms_per_req": ("ms", "lower"),
    "memory.allocator.verify_heap.share": ("ratio", "lower"),
    "memory.allocator.live_units_end": ("count", "lower"),
    "memory.image.restarts": ("count", "lower"),
    "memory.image.restart.p50_us": ("us", "lower"),
    "memory.image.restart.ms_per_req": ("ms", "lower"),
    "memory.image.share": ("ratio", "lower"),
    "recovery.snapshots": ("count", "lower"),
    "recovery.snapshot.p50_us": ("us", "lower"),
    "recovery.rollbacks": ("count", "lower"),
    "recovery.rollback.p50_us": ("us", "lower"),
    "recovery.attempts_per_request": ("count", "lower"),
    "core.policy.invalid_calls_per_req": ("count", "lower"),
    "core.policy.self_ms_per_req": ("ms", "lower"),
    "core.errorlog.records_per_req": ("count", "lower"),
    "telemetry.events_per_req": ("count", "lower"),
    "telemetry.self_ms_per_req": ("ms", "lower"),
    "minic.self_ms_per_req": ("ms", "lower"),
    "runtime.gc.collections": ("count", "lower"),
    "runtime.gc.pause_ms_total": ("ms", "lower"),
    "runtime.gc.gen2_max_ms": ("ms", "lower"),
    "tracing.overhead": ("ratio", "higher"),
}


def layer_values(tracer: LayerTracer) -> Dict[str, float]:
    """The per-layer metrics the traced phase itself determines.

    ``*_per_req`` divides by the requests the phase served (root calls);
    a layer that saw no calls reads 0.
    """
    stats = tracer.stats
    empty = Stat()

    def stat(key: str) -> Stat:
        return stats.get(key, empty)

    requests = max(len(tracer.requests), 1)

    def ms_per_req(*keys: str) -> float:
        return sum(stat(key).self_ns for key in keys) / 1e6 / requests

    def p(name: str, pct: float) -> float:
        durations = tracer.durations_us(name)
        return percentile(durations, pct) if durations else 0.0

    process_us = sorted(
        (end - start) / 1e3 for _i, _p, n, start, end, _r in tracer.spans
        if n.startswith("servers.") and n.endswith(".process")
    )
    accessor, per_byte = stat("memory.accessor"), stat("memory.accessor.byte")
    accessor_calls = accessor.entries + per_byte.entries
    process_ns = sum(process_us) * 1e3
    request_ns = sum(row["ns"] for row in tracer.requests)
    image_ns = stat("memory.image").incl_ns + stat("memory.image.restart").incl_ns
    submit_ids = {span[0] for span in tracer.spans if span[2] == "recovery.submit"}
    supervised_attempts = sum(
        1 for span in tracer.spans
        if span[1] in submit_ids and span[2].endswith(".process")
    )
    values = {
        "fleet.self_ms_per_req": ms_per_req("fleet"),
        "servers.process.p50_us": percentile(process_us, 50) if process_us else 0.0,
        "servers.process.p99_us": percentile(process_us, 99) if process_us else 0.0,
        "servers.handle.self_ms_per_req": ms_per_req("servers.handle"),
        "memory.accessor.calls_per_req": accessor_calls / requests,
        "memory.accessor.self_ms_per_req": ms_per_req("memory.accessor", "memory.accessor.byte"),
        "memory.accessor.bytes_per_call":
            (accessor.units + per_byte.units) / accessor_calls if accessor_calls else 0.0,
        "memory.accessor.per_byte_share":
            per_byte.entries / accessor_calls if accessor_calls else 0.0,
        "memory.allocator.self_ms_per_req":
            ms_per_req("memory.allocator", "memory.allocator.verify_heap"),
        "memory.allocator.verify_heap.ms_per_req": ms_per_req("memory.allocator.verify_heap"),
        "memory.allocator.verify_heap.share":
            stat("memory.allocator.verify_heap").incl_ns / process_ns if process_ns else 0.0,
        "memory.allocator.live_units_end": tracer.live_units_max,
        "memory.image.restarts": stat("memory.image.restart").calls,
        "memory.image.restart.p50_us": p("memory.image.restart", 50),
        "memory.image.restart.ms_per_req": image_ns / 1e6 / requests,
        "memory.image.share": image_ns / request_ns if request_ns else 0.0,
        "recovery.snapshots": stat("recovery.snapshot").calls,
        "recovery.snapshot.p50_us": p("recovery.snapshot", 50),
        "recovery.rollbacks": stat("recovery.rollback").calls,
        "recovery.rollback.p50_us": p("recovery.rollback", 50),
        "recovery.attempts_per_request":
            supervised_attempts / len(submit_ids) if submit_ids else 0.0,
        "core.policy.invalid_calls_per_req": stat("core.policy").calls / requests,
        "core.policy.self_ms_per_req": ms_per_req("core.policy", "core.errorlog"),
        "core.errorlog.records_per_req": stat("core.errorlog").units / requests,
        "telemetry.events_per_req": stat("telemetry").calls / requests,
        "telemetry.self_ms_per_req": ms_per_req("telemetry"),
        "minic.self_ms_per_req": ms_per_req("minic"),
    }
    for name in PROFILE_ROWS:
        values[f"servers.{name}.process.p50_us"] = p(f"servers.{name}.process", 50)
    return values
