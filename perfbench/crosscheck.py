#!/usr/bin/env python3
"""Paper cross-check (informational, not gated): Apache under attack, §4.3.2.

Prints the failure-oblivious / bounds-check ``goodput_rps`` ratio beside the
paper's 5.7x, and, from a traced ``apache-bc-attack`` run, the share of
request time the bounds-check pool spends in ``memory.image`` (constructing
and restoring replacement children).  Usage, from the repository root::

    python3 perfbench/crosscheck.py --seed 1 --seconds 20
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
PAPER_RATIO = 5.7


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True, timeout=600,
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])["metrics"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    args = parser.parse_args()
    fo = run("apache-fo-attack", args.seed, args.seconds, 0)["goodput_rps"]["value"]
    bc = run("apache-bc-attack", args.seed, args.seconds, 0)["goodput_rps"]["value"]
    share = run("apache-bc-attack", args.seed, args.seconds, 1)["memory.image.share"]["value"]
    print(f"goodput_rps  failure-oblivious {fo:.1f}  bounds-check {bc:.1f} req/s")
    print(f"ratio        {fo / bc:.2f}x  (paper: {PAPER_RATIO}x)")
    print(f"bounds-check request time in memory.image: {share:.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
