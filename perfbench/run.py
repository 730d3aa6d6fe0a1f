#!/usr/bin/env python3
"""End-to-end serving benchmark for the failure-oblivious reproduction.

Usage (from the repository root)::

    python3 perfbench/run.py --workload apache-fo-attack --seed 1 --seconds 20 --trace 0

Workloads: ``apache-fo-attack``, ``apache-bc-attack`` and ``fleet-soak``
(see ``perfbench/README.md``).  With ``--trace 0`` the run measures the
end-to-end metrics with tracing off.  With ``--trace 1`` it first runs the
same workload untraced, then repeats the closed-loop windows with every
layer traced, and reports the per-layer metrics; the spans are written to
``.perfbench-traces/`` in the repository root.  A run starts no other
process.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TRACE_DIR = os.path.join(ROOT, ".perfbench-traces")


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program() -> bool:
    """Put the repository's ``src`` on the path; False when it is missing."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import the repro package from {ROOT}/src: {exc}",
              file=sys.stderr)
        return False
    return True


def result_line(correct: bool, attempted: int, failed: int,
                metrics: Dict[str, Tuple[float, str]]) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    })


def print_metrics(title: str, metrics: Dict[str, Tuple[float, str]]) -> None:
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {unit}")


def run_untraced(workload_cls, seed: int, seconds: float) -> int:
    import serving

    report = serving.measure_end_to_end(workload_cls(seed, seconds), seconds)
    tally = report.tally
    metrics = {name: (serving.finite(value), unit)
               for name, (value, unit) in report.metrics.items()}
    print_metrics(f"{workload_cls.name} seed {seed}: end-to-end (tracing off)", metrics)
    print(f"  {'failed_ratio':<44} {report.detail['failed_ratio']:>14.6g} ratio"
          f"  ({tally.failed} of {tally.attempted} operations)")
    detail = report.detail
    print(f"  latency sample: {detail['latency_samples']} legitimate requests; "
          f"p50 {detail['loadgen.latency_p50_ms']:.6g} ms, "
          f"p99 {detail['loadgen.latency_p99_ms']:.6g} ms (not gated)")
    print(f"  host slowdown {detail['host_slowdown']:.3f} (median over windows); as measured: "
          f"goodput_rps {detail['measured.goodput_rps']:.6g}, "
          f"latency_p50_ms {detail['measured.latency_p50_ms']:.6g}, "
          f"latency_p90_ms {detail['measured.latency_p90_ms']:.6g}, "
          f"setup_s {detail['measured.setup_s']:.6g}")
    for problem in tally.problems:
        print(f"  check failed: {problem}")
    print("detail " + json.dumps(report.detail))
    print(result_line(report.correct, tally.attempted, tally.failed, metrics))
    return 0


def keep_shared_memory_in_process() -> None:
    """Let shared memory start no helper process.

    The Apache pool and the fleet keep their template images in
    ``multiprocessing.shared_memory``, and Python starts a resource-tracker
    process on the first block registered with it, to unlink blocks a dead
    process leaked.  The program closes and unlinks every block it creates
    (its stores close in ``finally``), so the tracker has nothing to do, and
    not starting it means the benchmark never starts a process at all.
    """
    from multiprocessing import resource_tracker

    def untracked(*_args) -> None:
        return None

    resource_tracker.register = resource_tracker.unregister = untracked
    resource_tracker.ensure_running = untracked


def traced_metrics(workload, seconds: float, untraced: dict):
    """Repeat the closed-loop windows with every layer traced.

    Returns the per-layer metrics, the traced windows' tally and the tracer.
    The load generator's and the collector's numbers come from the untraced
    run: span storage itself makes the collector work harder.
    """
    import serving
    from layertrace import LAYER_METRICS, LayerTracer, layer_values

    tracer = LayerTracer()
    goodput, tally = serving.measure_traced(workload, seconds, tracer)
    values = layer_values(tracer)
    for name in ("loadgen.latency_p50_ms", "loadgen.latency_p99_ms",
                 "loadgen.late_p99_ms", "loadgen.backlog_max",
                 "runtime.gc.collections",
                 "runtime.gc.pause_ms_total", "runtime.gc.gen2_max_ms"):
        values[name] = untraced[name]
    values["tracing.overhead"] = goodput / untraced["goodput_rps"]
    metrics = {name: (values[name], unit) for name, (unit, _better) in LAYER_METRICS.items()}
    return metrics, tally, tracer


def run_traced(workload_cls, seed: int, seconds: float) -> int:
    import serving

    report = serving.measure_end_to_end(workload_cls(seed, seconds), seconds)
    detail = report.detail
    metrics, tally, tracer = traced_metrics(workload_cls(seed, seconds), seconds, detail)
    print_metrics(f"{workload_cls.name} seed {seed}: per layer (traced closed-loop windows)", metrics)
    print(f"  untraced goodput {detail['goodput_rps']:.6g} req/s; "
          f"{len(tracer.requests)} traced requests, {len(tracer.spans)} spans")
    if workload_cls.name == "apache-bc-attack":
        print(f"  paper cross-check: memory.image is "
              f"{metrics['memory.image.share'][0]:.1%} of request time")
    for problem in report.tally.problems + tally.problems:
        print(f"  check failed: {problem}")
    os.makedirs(TRACE_DIR, exist_ok=True)
    path = os.path.join(TRACE_DIR, f"{workload_cls.name}-seed{seed}.jsonl.gz")
    tracer.write(path, {"workload": workload_cls.name, "seed": seed, "seconds": seconds})
    print(f"  spans written to {os.path.relpath(path, ROOT)}")
    print(result_line(report.correct and tally.failed == 0,
                      report.tally.attempted + tally.attempted,
                      report.tally.failed + tally.failed, metrics))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    if not import_program():
        return 2
    import serving

    workload_cls = serving.WORKLOADS.get(args.workload)
    if workload_cls is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"expected one of {sorted(serving.WORKLOADS)}", file=sys.stderr)
        return 2
    keep_shared_memory_in_process()
    if args.trace:
        return run_traced(workload_cls, args.seed, args.seconds)
    return run_untraced(workload_cls, args.seed, args.seconds)


if __name__ == "__main__":
    sys.exit(main())
