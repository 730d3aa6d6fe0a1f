"""Benchmark regenerating the stability experiments (§4.2.4-§4.6.4)."""

import pytest

from benchmarks.conftest import record_table
from repro.harness.experiments import run_experiment
from repro.harness.stability import run_stability_experiment
from repro.servers import SERVER_CLASSES


@pytest.mark.parametrize("server_name", sorted(SERVER_CLASSES))
def test_stability_run_failure_oblivious(benchmark, server_name):
    """Time a mixed workload with periodic attacks under the FO build of each server."""
    result = benchmark.pedantic(
        lambda: run_stability_experiment(
            server_name, "failure-oblivious", total_requests=60, attack_every=10, scale=0.2
        ),
        rounds=1,
        iterations=1,
    ).instances[0]
    assert result.flawless
    assert result.attacks_survived == result.attack_requests


def test_stability_table(benchmark):
    """Regenerate the all-servers stability summary table."""
    output = benchmark.pedantic(
        lambda: run_experiment("exp-stability", total_requests=80, attack_every=10, scale=0.25),
        rounds=1,
        iterations=1,
    )
    record_table("Failure-oblivious stability under periodic attack (§4.x.4)", output.table)
    assert all(result.flawless for result in output.data.values())
