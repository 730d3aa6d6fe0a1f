"""Shared helpers for the benchmark suite.

Every module in this directory regenerates one table or figure from the
paper's evaluation section (see DESIGN.md's experiment index).  Two kinds of
measurements coexist:

* ``benchmark`` fixtures time a single representative request under a given
  build, giving pytest-benchmark's statistics for the raw request cost; and
* "table" benchmarks run the corresponding experiment from
  :mod:`repro.harness.experiments` and print the full reproduction table so
  the run's output can be compared side by side with the paper.

Tables printed during the run are also merged into ``benchmarks/results.txt``
when ``REPRO_BENCH_FULL=1`` is set (the switch that also guards
``BENCH_substrate.json``), so a full benchmark run leaves a written record
and a plain test run leaves the tracked file alone.
"""

from __future__ import annotations

import os
import re
from typing import Callable, Dict, Optional

from repro.harness.engine import ENGINE

RESULTS_PATH = os.path.join(os.path.dirname(__file__), "results.txt")

#: Only full benchmark runs rewrite the tracked results file.
WRITE_RESULTS = os.environ.get("REPRO_BENCH_FULL") == "1"

_RESULTS_HEADER = "failure-oblivious computing reproduction: benchmark tables\n"
_RULE = "=" * 72
_SECTION_RE = re.compile(
    rf"\n{_RULE}\n(.*?)\n{_RULE}\n(.*?)(?=\n{_RULE}\n|\Z)", re.S
)


def bench_workers() -> int:
    """Process count for table benchmarks that fan out via ``run_many``.

    Controlled by ``REPRO_BENCH_WORKERS`` (0 or unset = serial), so CI and
    local runs can exercise the pooled path without editing the suite.
    """
    try:
        return int(os.environ.get("REPRO_BENCH_WORKERS", "0"))
    except ValueError:  # pragma: no cover - malformed env var
        return 0


#: Sections of the results file, keyed by table title; loaded lazily from the
#: committed file by the first ``record_table`` call of the session.
_results_sections: Optional[Dict[str, str]] = None


def _load_sections() -> Dict[str, str]:
    """Parse the committed results file back into {title: table text}."""
    try:
        with open(RESULTS_PATH, encoding="utf-8") as handle:
            content = handle.read()
    except OSError:
        return {}
    return {
        title: body.strip("\n")
        for title, body in _SECTION_RE.findall(content)
    }


def record_table(title: str, table_text: str) -> None:
    """Print a reproduction table and, under ``REPRO_BENCH_FULL=1``, merge
    it into the results file.

    The file is rewritten with its sections in sorted title order, and
    sections this session did not regenerate (e.g. under a ``-k`` filter)
    are carried over from the committed file — so a diff of ``results.txt``
    shows exactly the tables whose content actually changed, never
    reordering or truncation churn.
    """
    global _results_sections
    banner = f"\n{_RULE}\n{title}\n{_RULE}\n"
    print(banner + table_text)
    if not WRITE_RESULTS:
        return
    try:
        if _results_sections is None:
            _results_sections = _load_sections()
        _results_sections[title] = table_text.rstrip("\n")
        with open(RESULTS_PATH, "w", encoding="utf-8") as handle:
            handle.write(_RESULTS_HEADER)
            for name in sorted(_results_sections):
                handle.write(f"\n{_RULE}\n{name}\n{_RULE}\n")
                handle.write(_results_sections[name] + "\n")
    except OSError:  # pragma: no cover - the results file is best effort
        pass


def served_request_runner(server_name: str, policy_name: str, kind: str,
                          scale: float = 0.5) -> Callable[[], None]:
    """Build a started server and return a zero-argument callable serving one request.

    The callable is what the ``benchmark`` fixture times; request construction
    and any per-iteration state restoration are included (they are part of
    serving a request in the real system too, and identical across builds).
    """
    profile = ENGINE.profile(server_name)
    server = ENGINE.build_server(server_name, policy_name, scale=scale)
    boot = server.start()
    if boot.fatal:  # pragma: no cover - benign configs always boot
        raise RuntimeError(f"{server_name} failed to boot under {policy_name}")
    factory = profile.request_factory_for(kind)
    reset = profile.reset_hook_for(kind)
    counter = {"index": 0}

    def run_once() -> None:
        index = counter["index"]
        counter["index"] = index + 1
        if reset is not None:
            reset(server, index)
        result = server.process(factory(index))
        if result.fatal:  # pragma: no cover - benign workloads never kill servers
            raise RuntimeError(f"{server_name} died during benchmarking: {result.error}")

    return run_once
