"""Substrate throughput benchmark: the perf trajectory of the memory fast path.

Measures bytes/second through the policy-mediated substrate for the span
fast path (the shipped ``cstring`` implementation) against a per-byte
reference (the pre-fast-path byte loops frozen in
:mod:`tests.reference_cstring`, shared with the equivalence suite), for every
policy, plus the wall clock of each performance figure.  Results are written
to ``BENCH_substrate.json`` at the repository root so the throughput
trajectory is tracked in version control from PR 2 on.

Environment knobs
-----------------
``REPRO_BENCH_FULL=1``
    Use full-size buffers (1 MiB spans) instead of the smoke sizes, for
    regenerating the committed baseline.  ``BENCH_substrate.json`` is only
    (over)written in this mode; smoke runs — including ENFORCE-only gate
    reproductions — leave the committed baseline untouched.
``REPRO_BENCH_ENFORCE=1``
    Fail if the measured speedup over the per-byte reference regresses more
    than 30% against the committed ``BENCH_substrate.json`` (the CI smoke
    job sets this).
``REPRO_BENCH_WORKERS``
    Worker count recorded in the JSON and used for the figure wall-clock
    sweep (see :func:`benchmarks.conftest.bench_workers`).
"""

from __future__ import annotations

import dataclasses
import gc
import json
import os
import platform
import time

import pytest

from benchmarks.conftest import bench_workers
from repro.core.policies import POLICY_NAMES
from repro.fleet.scheduler import InstanceSpec, run_fleet
from repro.harness.experiments import run_experiment
from repro.harness.stability import run_stability_experiment
from repro.memory import cstring
from repro.memory.context import MemoryContext
from repro.servers import SERVER_CLASSES
from repro.servers.apache import ApacheServer
from repro.servers.profile import get_profile, register_profile, unregister_profile
from tests.reference_cstring import ref_strcpy

BENCH_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "BENCH_substrate.json")

FULL = os.environ.get("REPRO_BENCH_FULL") == "1"
ENFORCE = os.environ.get("REPRO_BENCH_ENFORCE") == "1"

#: Bytes moved per fast-path measurement (spans are the unit of work now).
FAST_BYTES = (1 << 20) if FULL else (1 << 16)
#: Bytes moved per per-byte-reference measurement (three decimal orders
#: slower, so it gets a proportionally smaller buffer).
REFERENCE_BYTES = (1 << 14) if FULL else (1 << 12)
#: The acceptance floor: the fast path must beat the per-byte reference by at
#: least this factor on the Standard and Boundless policies.
REQUIRED_SPEEDUP = 5.0
#: Maximum tolerated regression against the committed baseline (CI gate).
REGRESSION_TOLERANCE = 0.30
#: The baseline speedup is capped before the tolerance is applied: measured
#: speedups span four decades run-to-run (the per-byte reference is timed in
#: tens of milliseconds), so gating on the raw ratio would flake.  Any real
#: breakage of the fast path collapses the speedup to ~1x, far below this cap.
BASELINE_SPEEDUP_CAP = 100.0

#: Payload of the out-of-bounds flood (PR 4): a long attack string copied
#: into a tiny buffer, so nearly every written byte is out of bounds and goes
#: through the policy continuation.  Sized to stay under the boundless
#: policy's default side-store capacity so its bulk-insert fast path (not the
#: capacity-crossing slow path) is what gets measured.
FLOOD_BYTES = (1 << 18) if FULL else (1 << 15)
#: Flood payload for the per-byte reference (umpteen times slower).
FLOOD_REFERENCE_BYTES = (1 << 13) if FULL else (1 << 11)
#: Size of the overflowed destination buffer.
FLOOD_DST_BYTES = 64
#: Policies with a surviving continuation: the flood completes under these
#: (bounds-check terminates at the first byte; standard segfaults).
FLOOD_POLICIES = ("failure-oblivious", "boundless", "redirect")
#: ISSUE 4 acceptance floor: the batched continuation must beat the per-byte
#: fallback by at least two decimal orders on every flood policy.
REQUIRED_OOB_SPEEDUP = 100.0
#: Baseline cap and factor for the OOB regression gate: fail only on an
#: order-of-magnitude collapse (the measured speedups sit between ~300x and
#: ~50000x run-to-run; a broken batched path collapses to ~1x).
OOB_BASELINE_SPEEDUP_CAP = 1000.0
OOB_REGRESSION_FACTOR = 10.0

#: ISSUE 5 — checkpointed process images.  The restart benchmark restores the
#: post-boot checkpoint against rebuilding the substrate and re-running
#: ``startup()``; these servers have the most expensive boots (Apache parses
#: its configuration byte by byte, Pine builds the message index).
RESTART_SERVERS = ("apache", "pine")
#: Boots per timing sample.
RESTART_ROUNDS = 30 if FULL else 10
RESTART_SCRATCH_ROUNDS = 8 if FULL else 4
#: Acceptance floor for the checkpoint restart: >=20x over from-scratch in the
#: committed full-mode baseline, gated at >=10x in CI fast mode (scheduler
#: noise shrinks the measured ratio, never the mechanism).
REQUIRED_RESTART_SPEEDUP = 20.0 if FULL else 10.0

#: PR 10 — self-healing recovery.  An incremental snapshot captures only the
#: blocks the last request dirtied, so it must be at least an order of
#: magnitude cheaper than a full checkpoint of the same space; and rolling
#: back to the last good snapshot must beat a from-scratch reboot by at
#: least the checkpoint-restart gate (the rollback is a block patch of the
#: live space — strictly less work than a full image restore).
REQUIRED_RECOVERY_DELTA_SPEEDUP = 10.0
RECOVERY_ROUNDS = 30 if FULL else 10
RECOVERY_SCRATCH_ROUNDS = 8 if FULL else 4
#: Heap size for the recovery measurements.  A full checkpoint is O(space)
#: while a delta snapshot is O(dirtied blocks), so the measurement uses a
#: long-lived-server heap; at toy sizes the delta's fixed bookkeeping cost
#: (allocator/object-table/policy capture) dominates and hides the mechanism.
RECOVERY_HEAP_BYTES = 16 * 1024 * 1024

#: Soak shape for the end-to-end gate: the §4.3.2 bounds-check-under-attack
#: flood, where every request kills the child and the monitor restarts it.
#: The :class:`RebootApache` profile reproduces the pre-checkpoint cost model
#: (every death pays a full reboot on a fresh substrate); the gate requires
#: the checkpointed soak to beat it by an order of magnitude.
SOAK_REQUESTS = 400 if FULL else 240
SOAK_ATTACK_EVERY = 1
SOAK_SHARDS = 8
SOAK_POLICIES = ("standard", "bounds-check", "failure-oblivious", "boundless", "redirect")
#: The order-of-magnitude gate holds in full mode (measured ~30x at full
#: sizes); smoke sizes amortize the per-shard clone worse and sit ~14x, so
#: the fast-mode floor drops to 8x — still far above the ~1x a broken
#: checkpoint path collapses to.
REQUIRED_SOAK_SPEEDUP = 10.0 if FULL else 8.0
#: Rounds for the gated soak cells (best observed rate, like _best_rate):
#: single noisy runs near the floor would flake the gate.
SOAK_ROUNDS = 3
SOAK_SCRATCH_ROUNDS = 2

#: ISSUE 6 — fleet soak service.  The fleet benchmark drives a heterogeneous
#: mix through the virtual-arrival-time scheduler: failure-oblivious survivors
#: on three server profiles plus a bounds-check Apache that dies on every
#: attack and restarts through its checkpoint, so the measured rate covers
#: template boot, clone fan-out, interleaved dispatch, O(dirty-bytes)
#: restarts, and streaming telemetry together.
FLEET_REQUESTS = 2000 if FULL else 600
FLEET_ATTACK_EVERY = 5
FLEET_SPECS = (
    ("apache", "failure-oblivious", 2),
    ("apache", "bounds-check", 1),
    ("pine", "failure-oblivious", 1),
    ("mutt", "failure-oblivious", 1),
)
#: Rounds for the gated fleet cell (best observed rate, like the soak gate).
FLEET_ROUNDS = 3 if FULL else 2
#: ISSUE 8 — pooled fleet dispatch.  The same heterogeneous mix is also run
#: through the fork pool; shared-memory template images and batched dispatch
#: are what make the pooled rate scale past the serial one.
FLEET_W4_WORKERS = 4
FLEET_W4_REQUESTS = 20000 if FULL else 2000
#: PR 6 full-mode pooled baseline (req/s at --workers 4); the v5 acceptance
#: floor is double it.
FLEET_W4_BASELINE_RPS = 908.0
FLEET_W4_FLOOR_FACTOR = 2.0

#: ISSUE 8 — shared-memory O(1) cloning.  The clone benchmark boots the same
#: Apache template on two heaps a decimal order apart and times adopting the
#: (shared) boot image into a fresh server.  The touched-block sparse restore
#: plus the shared payload make the per-clone cost a function of the bytes
#: the boot touched, not of the image size, so the ratio must stay flat.
CLONE_HEAP_SMALL = 4 * 1024 * 1024
CLONE_HEAP_LARGE = 40 * 1024 * 1024
CLONE_ROUNDS = 30 if FULL else 10
#: Acceptance ceiling for clone_seconds_large / clone_seconds_small.  Both
#: sides are measured in the same process moments apart, so machine speed
#: cancels; a restore that copies whole segments again blows past this at ~10x.
CLONE_RATIO_CEILING = 1.5

#: PR 9 — compiled mini-C on the span fast path.  The minic columns time the
#: interpreter twice over the same source: span-lowered (``lower=True``, the
#: shipped compile) against the same source compiled without lowering
#: (``lower=False``), whose loops run per byte.  Both run on the compiled
#: closures, so the ``*_tree_walk`` columns (named before the tree walk was
#: replaced) now time the closures' per-byte loops.
#: ``scanner`` is the raw lowered idiom (``while (*p) p++``); ``figure1`` is
#: the paper's Figure 1 ``utf8_to_utf7`` conversion, whose loops are *not*
#: lowerable (the double-read copy shape), so its columns track the plain
#: interpreter workload rate rather than a lowering speedup.
MINIC_SCAN_BYTES = (1 << 16) if FULL else (1 << 14)
#: Unlowered payload: three decimal orders slower than the lowered scan, so
#: it gets a proportionally smaller buffer (like the per-byte cstring ref).
MINIC_TREE_WALK_BYTES = (1 << 11) if FULL else (1 << 9)
#: Figure 1 folder-name length per conversion call.
MINIC_FIGURE1_BYTES = (1 << 12) if FULL else (1 << 10)
#: Acceptance floor: the span-lowered scanner must beat the unlowered
#: per-byte loop by at least 50x under the failure-oblivious build (a broken
#: lowering pass falls back to the per-byte loop and collapses to ~1x).
REQUIRED_MINIC_SPEEDUP = 50.0

#: The scanner benchmark source: the canonical lowered idiom.
MINIC_SCANNER_SOURCE = """
int scan(char *s) {
    char *p;
    p = s;
    while (*p) p++;
    return p - s;
}
"""


# -- measurement ---------------------------------------------------------------


def _best_rate(operation, payload_bytes, rounds=3):
    """Best observed bytes/second over a few rounds (minimizes scheduler noise)."""
    best = 0.0
    for _ in range(rounds):
        started = time.perf_counter()
        operation()
        elapsed = time.perf_counter() - started
        if elapsed > 0:
            best = max(best, payload_bytes / elapsed)
    return best


def _measure_policy(policy_name):
    """Measure fast-path and per-byte throughput under one policy."""
    policy_cls = POLICY_NAMES[policy_name]

    ctx = MemoryContext(policy_cls(), heap_size=8 * FAST_BYTES)
    src = ctx.alloc_c_string(b"x" * FAST_BYTES)
    dst = ctx.malloc(FAST_BYTES + 1)
    strcpy_rate = _best_rate(lambda: cstring.strcpy(ctx.mem, dst, src), FAST_BYTES)
    strlen_rate = _best_rate(lambda: cstring.strlen(ctx.mem, src), FAST_BYTES)

    ref_ctx = MemoryContext(policy_cls())
    ref_src = ref_ctx.alloc_c_string(b"x" * REFERENCE_BYTES)
    ref_dst = ref_ctx.malloc(REFERENCE_BYTES + 1)
    reference_rate = _best_rate(
        lambda: ref_strcpy(ref_ctx.mem, ref_dst, ref_src), REFERENCE_BYTES, rounds=1
    )

    return {
        "strcpy_bytes_per_sec": round(strcpy_rate),
        "strlen_bytes_per_sec": round(strlen_rate),
        "per_byte_strcpy_bytes_per_sec": round(reference_rate),
        "speedup_vs_per_byte": round(strcpy_rate / reference_rate, 1) if reference_rate else None,
    }


def _measure_flood(policy_name):
    """Measure the out-of-bounds flood under one continuation policy.

    The shipped path batches the invalid suffix into one policy decision per
    source span; the reference is the frozen per-byte loop (one decision, one
    error-log record, and one continuation event per byte).
    """
    policy_cls = POLICY_NAMES[policy_name]

    ctx = MemoryContext(policy_cls(), heap_size=8 * FLOOD_BYTES)
    src = ctx.alloc_c_string(b"x" * FLOOD_BYTES)
    dst = ctx.malloc(FLOOD_DST_BYTES)
    flood_rate = _best_rate(lambda: cstring.strcpy(ctx.mem, dst, src), FLOOD_BYTES)

    ref_ctx = MemoryContext(policy_cls())
    ref_src = ref_ctx.alloc_c_string(b"x" * FLOOD_REFERENCE_BYTES)
    ref_dst = ref_ctx.malloc(FLOOD_DST_BYTES)
    reference_rate = _best_rate(
        lambda: ref_strcpy(ref_ctx.mem, ref_dst, ref_src),
        FLOOD_REFERENCE_BYTES, rounds=1,
    )

    return {
        "oob_flood_bytes_per_sec": round(flood_rate),
        "per_byte_oob_flood_bytes_per_sec": round(reference_rate),
        "oob_speedup_vs_per_byte": round(flood_rate / reference_rate, 1) if reference_rate else None,
    }


def _measure_restart(server_name):
    """Time checkpoint restarts against from-scratch reboots for one server.

    Uses the bounds-check build (the restart-heavy build of §4.3.2) with the
    benchmark configuration; the ratio is policy-insensitive because the cost
    being removed is the boot itself.
    """
    from repro.harness.engine import ENGINE

    # Both timed sections run with the cyclic GC paused (timeit's own
    # methodology): a checkpoint restore is tens of microseconds, so a single
    # generation-2 collection landing inside the loop — increasingly likely
    # as earlier fixtures grow the heap — inflates the mean several-fold,
    # while the ~100x-longer scratch boots absorb the same pause invisibly.
    server = ENGINE.build_server(server_name, "bounds-check", scale=0.25)
    server.start()
    server.restart()  # warm the restore path once
    gc.collect()
    gc.disable()
    try:
        started = time.perf_counter()
        for _ in range(RESTART_ROUNDS):
            server.restart()
        checkpoint_per_boot = (time.perf_counter() - started) / RESTART_ROUNDS
    finally:
        gc.enable()
    server.stop()

    # The scratch baseline reproduces the pre-checkpoint cost model exactly:
    # a scratch restart captures no image, so the measured boot pays nothing
    # the old code did not pay.
    scratch = ENGINE.build_server(server_name, "bounds-check", scale=0.25)
    scratch.start()
    scratch.restart_from_scratch()  # warm
    gc.collect()
    gc.disable()
    try:
        started = time.perf_counter()
        for _ in range(RESTART_SCRATCH_ROUNDS):
            scratch.restart_from_scratch()
        scratch_per_boot = (time.perf_counter() - started) / RESTART_SCRATCH_ROUNDS
    finally:
        gc.enable()
    scratch.stop()

    return {
        "checkpoint_restart_seconds_per_boot": round(checkpoint_per_boot, 6),
        "scratch_restart_seconds_per_boot": round(scratch_per_boot, 6),
        "restart_speedup_vs_scratch": (
            round(scratch_per_boot / checkpoint_per_boot, 1)
            if checkpoint_per_boot > 0 else None
        ),
    }


class RebootApache(ApacheServer):
    """Apache without checkpoint restarts: the reboot-per-death baseline."""

    def restart(self):
        return self.restart_from_scratch()


def _measure_soak():
    """End-to-end sharded-soak throughput per policy, plus the scratch baseline.

    Every policy gets a ``soak_requests_per_sec`` column (the attack flood
    against Apache through ``run_fleet``, one instance per stream chunk,
    restarts through the checkpoint); the bounds-check cell is additionally
    measured on :class:`RebootApache` — the pre-checkpoint cost model — to
    compute the gated speedup.
    """
    def soak_once(policy_name, server_name="apache"):
        return run_stability_experiment(
            server_name, policy_name, total_requests=SOAK_REQUESTS,
            attack_every=SOAK_ATTACK_EVERY, shards=SOAK_SHARDS, workers=0,
        )

    policies = {}
    for policy_name in SOAK_POLICIES:
        rounds = SOAK_ROUNDS if policy_name == "bounds-check" else 1
        result = max(
            (soak_once(policy_name) for _ in range(rounds)),
            key=lambda r: r.requests_per_sec,
        )
        policies[policy_name] = {
            "soak_requests_per_sec": round(result.requests_per_sec, 1),
            "server_deaths": result.server_deaths,
            "restarts": result.restarts,
        }
    reboot = register_profile(dataclasses.replace(
        get_profile("apache"), name="apache-reboot", server_cls=RebootApache,
    ))
    try:
        scratch = max(
            (soak_once("bounds-check", reboot.name)
             for _ in range(SOAK_SCRATCH_ROUNDS)),
            key=lambda r: r.requests_per_sec,
        )
    finally:
        unregister_profile(reboot.name)
    checkpoint_rps = policies["bounds-check"]["soak_requests_per_sec"]
    scratch_rps = round(scratch.requests_per_sec, 1)
    return {
        "server": "apache",
        "total_requests": SOAK_REQUESTS,
        "attack_every": SOAK_ATTACK_EVERY,
        "shards": SOAK_SHARDS,
        "policies": policies,
        "bounds_check_scratch_requests_per_sec": scratch_rps,
        "soak_speedup_vs_scratch": (
            round(checkpoint_rps / scratch_rps, 1) if scratch_rps else None
        ),
    }


def _measure_fleet():
    """End-to-end fleet-scheduler throughput over a heterogeneous mix.

    Serial dispatch (the reproducible path — pooled runs are tally-identical
    by construction, so the rate is the only thing ``--workers`` changes);
    the bounds-check Apache instance contributes one death-and-restart per
    attack, so ``restarts`` gauges the checkpoint-restore volume the measured
    rate absorbed.
    """
    specs = [
        InstanceSpec(server, policy, count=count, attack_every=FLEET_ATTACK_EVERY)
        for server, policy, count in FLEET_SPECS
    ]
    best = None
    for _ in range(FLEET_ROUNDS):
        result = run_fleet(specs, total_requests=FLEET_REQUESTS, seed=20040101)
        if best is None or result.requests_per_sec > best.requests_per_sec:
            best = result
    pooled = None
    for _ in range(FLEET_ROUNDS):
        result = run_fleet(
            specs, total_requests=FLEET_W4_REQUESTS, seed=20040101,
            workers=FLEET_W4_WORKERS,
        )
        if pooled is None or result.requests_per_sec > pooled.requests_per_sec:
            pooled = result
    return {
        "fleet_requests_per_sec": round(best.requests_per_sec, 1),
        "total_requests": best.total_requests,
        "instances": len(best.instances),
        "attack_every": FLEET_ATTACK_EVERY,
        "server_deaths": best.server_deaths,
        "restarts": best.restarts,
        "availability": round(best.availability, 4),
        "fleet_workers4_requests_per_sec": round(pooled.requests_per_sec, 1),
        "fleet_workers4_total_requests": pooled.total_requests,
        "fleet_workers4_workers": FLEET_W4_WORKERS,
    }


def _measure_clone():
    """Time adopting the (shared-memory) template image into a fresh server.

    The operation timed is exactly what the fleet scheduler and the pre-fork
    pool pay per clone: restore the template checkpoint into a live substrate
    plus reinstate the captured server state.  ``full_copy_seconds_large``
    is the reference cost of materializing the large image's payload once —
    what a deep-copy clone would pay before even starting the restore.
    """
    from dataclasses import replace

    from repro.memory.shared_image import SharedImageStore
    from repro.workloads.attacks import apache_vulnerable_config

    def time_clone(heap_size):
        server_cls = SERVER_CLASSES["apache"]
        policy_cls = POLICY_NAMES["failure-oblivious"]
        template = server_cls(
            policy_cls, config=apache_vulnerable_config(), heap_size=heap_size
        )
        boot = template.start()
        if boot.fatal:  # pragma: no cover - the benchmark config always boots
            raise RuntimeError("apache template failed to boot")
        image = template.boot_image
        image_bytes = sum(
            len(contents) for _name, _base, contents in image.ctx.space.segments
        )
        with SharedImageStore() as store:
            shared = replace(image, ctx=store.share_image(image.ctx))
            clone = server_cls(
                policy_cls, config=apache_vulnerable_config(), heap_size=heap_size
            )
            clone.adopt_image(shared)  # warm the restore path once
            gc.collect()
            gc.disable()
            try:
                best = float("inf")
                for _ in range(CLONE_ROUNDS):
                    started = time.perf_counter()
                    clone.adopt_image(shared)
                    best = min(best, time.perf_counter() - started)
            finally:
                gc.enable()
            started = time.perf_counter()
            for _name, _base, contents in shared.ctx.space.segments:
                bytes(contents)
            full_copy = time.perf_counter() - started
            clone.stop()
        template.stop()
        return image_bytes, best, full_copy

    small_bytes, small_clone, _ = time_clone(CLONE_HEAP_SMALL)
    large_bytes, large_clone, large_copy = time_clone(CLONE_HEAP_LARGE)
    return {
        "image_small_bytes": small_bytes,
        "image_large_bytes": large_bytes,
        "clone_seconds_small": round(small_clone, 6),
        "clone_seconds_large": round(large_clone, 6),
        "clone_cost_ratio_10x_image": (
            round(large_clone / small_clone, 2) if small_clone > 0 else None
        ),
        "full_copy_seconds_large": round(large_copy, 6),
        "rounds": CLONE_ROUNDS,
    }


def _measure_minic():
    """Time span-lowered mini-C against the same source compiled unlowered.

    Both builds run under the failure-oblivious policy (the paper's headline
    build).  Repeated calls reuse the instance's interned argument string,
    so the scanner numbers measure the loop, not allocation; the Figure 1
    conversion allocates its output per call, which is freed between rounds
    to keep the heap flat.
    """
    from repro.minic.figure1 import FIGURE1_SOURCE
    from repro.minic.interpreter import TypedPointer
    from repro.minic.lower import compile_program, lowered_count

    policy_cls = POLICY_NAMES["failure-oblivious"]

    def scan_rate(lower, payload_bytes):
        program = compile_program(MINIC_SCANNER_SOURCE, lower=lower)
        if lower:
            assert lowered_count(program.unit) == 1
        instance = program.instantiate(policy_cls())
        payload = b"x" * payload_bytes
        instance.call("scan", payload)  # warm (interns the argument string)
        return _best_rate(lambda: instance.call("scan", payload), payload_bytes)

    def figure1_rate(lower, payload_bytes):
        program = compile_program(FIGURE1_SOURCE, lower=lower)
        instance = program.instantiate(policy_cls())
        name = b"x" * payload_bytes

        def convert():
            result = instance.call("utf8_to_utf7", name, len(name))
            if isinstance(result, TypedPointer) and not result.is_null:
                instance.ctx.free(result.pointer)

        convert()  # warm
        return _best_rate(convert, payload_bytes)

    scanner = scan_rate(True, MINIC_SCAN_BYTES)
    scanner_tree_walk = scan_rate(False, MINIC_TREE_WALK_BYTES)
    figure1 = figure1_rate(True, MINIC_FIGURE1_BYTES)
    figure1_tree_walk = figure1_rate(False, MINIC_TREE_WALK_BYTES)
    return {
        "scanner_bytes_per_sec": round(scanner),
        "scanner_tree_walk_bytes_per_sec": round(scanner_tree_walk),
        "scanner_speedup_vs_tree_walk": (
            round(scanner / scanner_tree_walk, 1) if scanner_tree_walk else None
        ),
        "figure1_bytes_per_sec": round(figure1),
        "figure1_tree_walk_bytes_per_sec": round(figure1_tree_walk),
        "figure1_speedup_vs_tree_walk": (
            round(figure1 / figure1_tree_walk, 1) if figure1_tree_walk else None
        ),
    }


def _measure_recovery():
    """Time the self-healing primitives (PR 10).

    Three costs per sample, with one benign Apache request processed between
    samples so every measurement sees a realistic dirty set (the request's
    scratch allocations), never an empty one.  Each cost is the *minimum*
    over its rounds — the operations are deterministic, so the minimum is
    the true cost and anything above it is scheduler noise (a single 1 ms
    preemption would otherwise shift a ~50 µs mean by an order of
    magnitude over 30 rounds):

    * a full checkpoint of the whole address space (the pre-delta cost);
    * an incremental snapshot appended to a
      :class:`~repro.memory.checkpoint_stream.CheckpointStream`;
    * a rollback to the newest snapshot (the supervisor's recovery path),
      against the from-scratch reboot it replaces.
    """
    from repro.memory.checkpoint_stream import CheckpointStream
    from repro.workloads.attacks import apache_vulnerable_config

    def build():
        server = SERVER_CLASSES["apache"](
            POLICY_NAMES["failure-oblivious"],
            config=apache_vulnerable_config(),
            heap_size=RECOVERY_HEAP_BYTES,
        )
        server.start()
        return server

    server = build()
    ctx = server.ctx
    request = get_profile("apache").make_request("small", index=0)

    def dirty():
        server.process(request)

    def timed(operation, rounds):
        gc.collect()
        gc.disable()
        try:
            best = None
            for _ in range(rounds):
                dirty()
                started = time.perf_counter()
                operation()
                elapsed = time.perf_counter() - started
                if best is None or elapsed < best:
                    best = elapsed
            return best
        finally:
            gc.enable()

    dirty()
    ctx.checkpoint()  # warm
    full_seconds = timed(ctx.checkpoint, RECOVERY_ROUNDS)

    stream = CheckpointStream(ctx)
    dirty()
    stream.snapshot()  # warm
    delta_seconds = timed(stream.snapshot, RECOVERY_ROUNDS)
    delta_bytes = stream.delta_bytes / len(stream.deltas)

    latest = stream.latest
    stream.restore(latest)  # warm
    rollback_seconds = timed(lambda: stream.restore(latest), RECOVERY_ROUNDS)
    server.stop()

    # The reboot the rollback replaces: no image captured, full boot paid.
    scratch = build()
    scratch.restart_from_scratch()  # warm
    gc.collect()
    gc.disable()
    try:
        scratch_seconds = None
        for _ in range(RECOVERY_SCRATCH_ROUNDS):
            started = time.perf_counter()
            scratch.restart_from_scratch()
            elapsed = time.perf_counter() - started
            if scratch_seconds is None or elapsed < scratch_seconds:
                scratch_seconds = elapsed
    finally:
        gc.enable()
    scratch.stop()

    return {
        "full_checkpoint_seconds": round(full_seconds, 6),
        "delta_snapshot_seconds": round(delta_seconds, 6),
        "delta_speedup_vs_full": (
            round(full_seconds / delta_seconds, 1) if delta_seconds > 0 else None
        ),
        "delta_bytes_per_snapshot": round(delta_bytes),
        "rollback_seconds": round(rollback_seconds, 6),
        "scratch_reboot_seconds": round(scratch_seconds, 6),
        "rollback_speedup_vs_scratch": (
            round(scratch_seconds / rollback_seconds, 1)
            if rollback_seconds > 0 else None
        ),
        "rounds": RECOVERY_ROUNDS,
    }


def _load_baseline():
    try:
        with open(BENCH_PATH, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return None


@pytest.fixture(scope="module")
def flood_report():
    """Measure only the OOB flood — the cheap fixture the CI fast-mode flood
    step exercises (``-k oob_flood``) without paying for the policy sweep and
    the figure wall clocks."""
    return {name: _measure_flood(name) for name in FLOOD_POLICIES}


@pytest.fixture(scope="module")
def restart_report():
    """Measure checkpoint vs from-scratch restarts — the CI fast-mode restart
    step exercises this alone (``-k restart``)."""
    return {name: _measure_restart(name) for name in RESTART_SERVERS}


@pytest.fixture(scope="module")
def soak_report():
    """Measure the sharded attack-flood soak per policy plus its scratch
    baseline (``-k soak`` in the CI fast-mode step)."""
    return _measure_soak()


@pytest.fixture(scope="module")
def fleet_report():
    """Measure the heterogeneous fleet soak — the CI fast-mode fleet smoke
    step exercises this alone (``-k fleet``)."""
    return _measure_fleet()


@pytest.fixture(scope="module")
def clone_report():
    """Measure shared-image clone cost on 10x-apart heaps — the CI fast-mode
    clone smoke step exercises this alone (``-k clone``)."""
    return _measure_clone()


@pytest.fixture(scope="module")
def minic_report():
    """Measure span-lowered vs unlowered mini-C — the CI fast-mode minic
    smoke step exercises this alone (``-k minic``)."""
    return _measure_minic()


@pytest.fixture(scope="module")
def recovery_report():
    """Measure delta snapshots vs full checkpoints and rollbacks vs reboots —
    the CI fast-mode recovery smoke step exercises this alone
    (``-k recovery``)."""
    return _measure_recovery()


@pytest.fixture(scope="module")
def substrate_report(flood_report, restart_report, soak_report, fleet_report,
                     clone_report, minic_report, recovery_report):
    """Measure every policy plus figure wall clocks; write BENCH_substrate.json."""
    baseline = _load_baseline()

    policies = {name: _measure_policy(name) for name in sorted(POLICY_NAMES)}
    for name in FLOOD_POLICIES:
        policies[name].update(flood_report[name])

    workers = bench_workers()
    figures = {}
    for server_name in sorted(SERVER_CLASSES):
        figure_number = get_profile(server_name).figure_number
        if figure_number is None:
            continue
        experiment_id = f"fig{figure_number}"
        started = time.perf_counter()
        run_experiment(experiment_id, repetitions=3, scale=0.25, workers=workers or None)
        figures[experiment_id] = round(time.perf_counter() - started, 3)

    report = {
        "schema": "repro-substrate-throughput/v7",
        "mode": "full" if FULL else "smoke",
        "python": platform.python_version(),
        "fast_payload_bytes": FAST_BYTES,
        "per_byte_payload_bytes": REFERENCE_BYTES,
        "workers": workers,
        "policies": policies,
        "restart": restart_report,
        "soak": soak_report,
        "fleet": fleet_report,
        "clone": clone_report,
        "minic": minic_report,
        "recovery": recovery_report,
        "figures_wall_clock_seconds": figures,
    }
    # Only full-mode runs overwrite the version-tracked baseline (the CI job
    # sets REPRO_BENCH_FULL together with REPRO_BENCH_ENFORCE).  Neither a
    # plain local pytest run nor a local ENFORCE-only gate reproduction may
    # silently replace the committed full-mode numbers with smoke numbers.
    if FULL:
        with open(BENCH_PATH, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return {"report": report, "baseline": baseline}


def test_fast_path_meets_speedup_floor(substrate_report):
    """The span fast path must beat the per-byte substrate ≥5x (ISSUE 2 target)."""
    policies = substrate_report["report"]["policies"]
    for policy_name in ("standard", "boundless"):
        speedup = policies[policy_name]["speedup_vs_per_byte"]
        assert speedup is not None and speedup >= REQUIRED_SPEEDUP, (
            f"{policy_name}: fast path only {speedup}x over the per-byte reference"
        )


def test_every_policy_produces_throughput_numbers(substrate_report):
    """All registered policies are measured and report sane positive rates."""
    policies = substrate_report["report"]["policies"]
    assert set(policies) == set(POLICY_NAMES)
    for name, row in policies.items():
        assert row["strcpy_bytes_per_sec"] > 0, name
        assert row["strlen_bytes_per_sec"] > 0, name


def test_oob_flood_meets_speedup_floor(flood_report):
    """ISSUE 4 acceptance: batched continuation ≥100x over the per-byte fallback."""
    for policy_name in FLOOD_POLICIES:
        speedup = flood_report[policy_name]["oob_speedup_vs_per_byte"]
        assert speedup is not None and speedup >= REQUIRED_OOB_SPEEDUP, (
            f"{policy_name}: OOB flood only {speedup}x over the per-byte fallback"
        )


def test_oob_flood_rates_are_positive(flood_report):
    for policy_name in FLOOD_POLICIES:
        row = flood_report[policy_name]
        assert row["oob_flood_bytes_per_sec"] > 0, policy_name
        assert row["per_byte_oob_flood_bytes_per_sec"] > 0, policy_name


def test_restart_speedup_floor(restart_report):
    """ISSUE 5 acceptance: checkpoint restarts >=20x (full) / >=10x (CI fast
    mode) over from-scratch reboots on the boot-heavy servers."""
    for server_name in RESTART_SERVERS:
        speedup = restart_report[server_name]["restart_speedup_vs_scratch"]
        assert speedup is not None and speedup >= REQUIRED_RESTART_SPEEDUP, (
            f"{server_name}: checkpoint restart only {speedup}x over from-scratch "
            f"(floor {REQUIRED_RESTART_SPEEDUP}x)"
        )


def test_restart_rates_are_positive(restart_report):
    for server_name in RESTART_SERVERS:
        row = restart_report[server_name]
        assert row["checkpoint_restart_seconds_per_boot"] > 0, server_name
        assert row["scratch_restart_seconds_per_boot"] > 0, server_name


def test_soak_checkpoint_speedup_floor(soak_report):
    """ISSUE 5 acceptance: the bounds-check-under-attack soak must run an
    order of magnitude faster than the pre-checkpoint (reboot-per-death)
    baseline measured in the same process."""
    speedup = soak_report["soak_speedup_vs_scratch"]
    assert speedup is not None and speedup >= REQUIRED_SOAK_SPEEDUP, (
        f"bounds-check attack soak only {speedup}x over the reboot-per-death "
        f"baseline (floor {REQUIRED_SOAK_SPEEDUP}x)"
    )


def test_soak_every_policy_produces_throughput(soak_report):
    assert set(soak_report["policies"]) == set(SOAK_POLICIES)
    for policy_name, row in soak_report["policies"].items():
        assert row["soak_requests_per_sec"] > 0, policy_name


def test_fleet_rates_are_positive(fleet_report):
    """ISSUE 6 acceptance: the fleet scheduler sustains throughput while the
    bounds-check instance dies (and is checkpoint-restarted) on every attack."""
    assert fleet_report["fleet_requests_per_sec"] > 0
    assert fleet_report["restarts"] > 0  # the bounds-check Apache keeps dying
    assert fleet_report["server_deaths"] >= fleet_report["restarts"]
    assert fleet_report["availability"] > 0.9  # FO majority keeps serving


def test_fleet_workers4_meets_speedup_floor(fleet_report):
    """ISSUE 8 acceptance: the pooled fleet (4 workers) must at least double
    the PR 6 pooled baseline.  Full mode only — smoke request counts are too
    small to amortize the fork pool's startup."""
    measured = fleet_report["fleet_workers4_requests_per_sec"]
    assert measured > 0
    if not FULL:
        pytest.skip("full mode only: smoke sizes underfeed the worker pool")
    floor = FLEET_W4_FLOOR_FACTOR * FLEET_W4_BASELINE_RPS
    assert measured >= floor, (
        f"pooled fleet only {measured} req/s at --workers {FLEET_W4_WORKERS} "
        f"(floor {floor} req/s = {FLEET_W4_FLOOR_FACTOR}x the PR 6 baseline)"
    )


def test_clone_cost_flat_as_image_grows(clone_report):
    """ISSUE 8 acceptance: growing the template image 10x must not grow the
    per-clone cost past 1.5x (the O(1)-clone gate, measured in-process)."""
    assert clone_report["image_large_bytes"] >= 8 * clone_report["image_small_bytes"], (
        "the large template image is not ~10x the small one; the ratio gate "
        "would be vacuous"
    )
    ratio = clone_report["clone_cost_ratio_10x_image"]
    assert ratio is not None and ratio <= CLONE_RATIO_CEILING, (
        f"clone cost grew {ratio}x when the image grew 10x "
        f"(ceiling {CLONE_RATIO_CEILING}x): cloning is no longer O(touched bytes)"
    )


def test_clone_times_are_positive(clone_report):
    assert clone_report["clone_seconds_small"] > 0
    assert clone_report["clone_seconds_large"] > 0
    assert clone_report["full_copy_seconds_large"] > 0


def test_no_fleet_workers_regression_against_committed_baseline(fleet_report):
    """CI gate: pooled fleet throughput must not collapse by an order of
    magnitude against the committed v5 ``fleet.fleet_workers4_*`` columns."""
    if not ENFORCE:
        pytest.skip("baseline enforcement disabled (set REPRO_BENCH_ENFORCE=1)")
    baseline = _load_baseline()
    if not baseline or "fleet" not in baseline:
        pytest.skip("no committed fleet baseline to compare against")
    reference = baseline["fleet"].get("fleet_workers4_requests_per_sec")
    if reference is None:
        pytest.skip("committed baseline predates the pooled-fleet column")
    measured = fleet_report["fleet_workers4_requests_per_sec"]
    floor = reference / OOB_REGRESSION_FACTOR
    assert measured >= floor, (
        f"pooled fleet throughput {measured} req/s collapsed an order of "
        f"magnitude below baseline {reference} req/s (gate floor {floor})"
    )


def test_no_fleet_regression_against_committed_baseline(fleet_report):
    """CI gate: fleet throughput must not collapse by an order of magnitude
    against the committed fleet baseline (schema v4 ``fleet.*`` columns)."""
    if not ENFORCE:
        pytest.skip("baseline enforcement disabled (set REPRO_BENCH_ENFORCE=1)")
    baseline = _load_baseline()
    if not baseline or "fleet" not in baseline:
        pytest.skip("no committed fleet baseline to compare against")
    reference = baseline["fleet"].get("fleet_requests_per_sec")
    measured = fleet_report["fleet_requests_per_sec"]
    if reference is None:
        pytest.skip("committed baseline predates the fleet column")
    floor = reference / OOB_REGRESSION_FACTOR
    assert measured >= floor, (
        f"fleet throughput {measured} req/s collapsed an order of magnitude "
        f"below baseline {reference} req/s (gate floor {floor})"
    )


def test_no_restart_regression_against_committed_baseline(restart_report):
    """CI gate: the checkpoint restart must not collapse by an order of
    magnitude against the committed restart baseline."""
    if not ENFORCE:
        pytest.skip("baseline enforcement disabled (set REPRO_BENCH_ENFORCE=1)")
    baseline = _load_baseline()
    if not baseline or "restart" not in baseline:
        pytest.skip("no committed restart baseline to compare against")
    for server_name, row in baseline["restart"].items():
        reference = row.get("restart_speedup_vs_scratch")
        measured = restart_report.get(server_name, {}).get("restart_speedup_vs_scratch")
        if reference is None or measured is None:
            continue
        floor = min(reference, OOB_BASELINE_SPEEDUP_CAP) / OOB_REGRESSION_FACTOR
        assert measured >= floor, (
            f"{server_name}: restart speedup {measured}x collapsed an order of "
            f"magnitude below baseline {reference}x (gate floor {floor}x)"
        )


def test_no_regression_against_committed_baseline(substrate_report):
    """CI gate: speedup must stay within 30% of the committed baseline."""
    if not ENFORCE:
        pytest.skip("baseline enforcement disabled (set REPRO_BENCH_ENFORCE=1)")
    baseline = substrate_report["baseline"]
    if not baseline or "policies" not in baseline:
        pytest.skip("no committed baseline to compare against")
    current = substrate_report["report"]["policies"]
    for name, row in baseline["policies"].items():
        reference = row.get("speedup_vs_per_byte")
        measured = current.get(name, {}).get("speedup_vs_per_byte")
        # Explicit None checks: a catastrophic regression rounds the measured
        # speedup to a *falsy* 0.0, which is exactly what must not skip the gate.
        if reference is None or measured is None:
            continue
        floor = min(reference, BASELINE_SPEEDUP_CAP) * (1.0 - REGRESSION_TOLERANCE)
        assert measured >= floor, (
            f"{name}: speedup {measured}x regressed >30% below baseline {reference}x "
            f"(gate floor {floor}x)"
        )


def test_minic_scanner_meets_speedup_floor(minic_report):
    """Acceptance: the span-lowered scanner loop must beat the same
    loop compiled unlowered by at least 50x under failure-oblivious."""
    speedup = minic_report["scanner_speedup_vs_tree_walk"]
    assert speedup is not None and speedup >= REQUIRED_MINIC_SPEEDUP, (
        f"span-lowered mini-C scanner only {speedup}x over the unlowered loop "
        f"(floor {REQUIRED_MINIC_SPEEDUP}x): the lowering pass is not engaging"
    )


def test_minic_rates_are_positive(minic_report):
    for column, value in minic_report.items():
        assert value is not None and value > 0, column


def test_no_minic_regression_against_committed_baseline(minic_report):
    """CI gate: the lowered-scanner speedup must not collapse by an order of
    magnitude against the committed v6 ``minic.*`` columns."""
    if not ENFORCE:
        pytest.skip("baseline enforcement disabled (set REPRO_BENCH_ENFORCE=1)")
    baseline = _load_baseline()
    if not baseline or "minic" not in baseline:
        pytest.skip("committed baseline predates the minic columns (schema < v6)")
    reference = baseline["minic"].get("scanner_speedup_vs_tree_walk")
    measured = minic_report["scanner_speedup_vs_tree_walk"]
    if reference is None or measured is None:
        pytest.skip("no comparable minic scanner speedup in the baseline")
    floor = min(reference, OOB_BASELINE_SPEEDUP_CAP) / OOB_REGRESSION_FACTOR
    assert measured >= floor, (
        f"mini-C scanner speedup {measured}x collapsed an order of magnitude "
        f"below baseline {reference}x (gate floor {floor}x)"
    )


def test_recovery_delta_snapshot_meets_speedup_floor(recovery_report):
    """PR 10 acceptance: an incremental snapshot must be at least an order of
    magnitude cheaper than a full checkpoint of the same space."""
    speedup = recovery_report["delta_speedup_vs_full"]
    assert speedup is not None and speedup >= REQUIRED_RECOVERY_DELTA_SPEEDUP, (
        f"delta snapshot only {speedup}x over a full checkpoint "
        f"(floor {REQUIRED_RECOVERY_DELTA_SPEEDUP}x): the dirty-block "
        f"tracking is not paying off"
    )


def test_recovery_rollback_meets_reboot_gate(recovery_report):
    """PR 10 acceptance: rolling back to the last good snapshot must beat the
    from-scratch reboot it replaces by at least the checkpoint gate."""
    speedup = recovery_report["rollback_speedup_vs_scratch"]
    assert speedup is not None and speedup >= REQUIRED_RESTART_SPEEDUP, (
        f"rollback only {speedup}x over a from-scratch reboot "
        f"(floor {REQUIRED_RESTART_SPEEDUP}x)"
    )


def test_recovery_times_are_positive(recovery_report):
    for column, value in recovery_report.items():
        assert value is not None and value > 0, column


def test_no_recovery_regression_against_committed_baseline(recovery_report):
    """CI gate: the rollback speedup must not collapse by an order of
    magnitude against the committed v7 ``recovery.*`` columns."""
    if not ENFORCE:
        pytest.skip("baseline enforcement disabled (set REPRO_BENCH_ENFORCE=1)")
    baseline = _load_baseline()
    if not baseline or "recovery" not in baseline:
        pytest.skip("committed baseline predates the recovery columns "
                    "(schema < v7)")
    for column in ("delta_speedup_vs_full", "rollback_speedup_vs_scratch"):
        reference = baseline["recovery"].get(column)
        measured = recovery_report[column]
        if reference is None or measured is None:
            continue
        floor = min(reference, OOB_BASELINE_SPEEDUP_CAP) / OOB_REGRESSION_FACTOR
        assert measured >= floor, (
            f"{column}: {measured}x collapsed an order of magnitude below "
            f"baseline {reference}x (gate floor {floor}x)"
        )


def test_no_oob_flood_regression_against_committed_baseline(flood_report):
    """CI gate: the batched OOB continuation must not collapse by an order of
    magnitude against the committed flood baseline."""
    if not ENFORCE:
        pytest.skip("baseline enforcement disabled (set REPRO_BENCH_ENFORCE=1)")
    baseline = _load_baseline()
    if not baseline or "policies" not in baseline:
        pytest.skip("no committed baseline to compare against")
    for name, row in baseline["policies"].items():
        reference = row.get("oob_speedup_vs_per_byte")
        measured = flood_report.get(name, {}).get("oob_speedup_vs_per_byte")
        if reference is None or measured is None:
            continue
        floor = min(reference, OOB_BASELINE_SPEEDUP_CAP) / OOB_REGRESSION_FACTOR
        assert measured >= floor, (
            f"{name}: OOB flood speedup {measured}x collapsed an order of magnitude "
            f"below baseline {reference}x (gate floor {floor}x)"
        )
