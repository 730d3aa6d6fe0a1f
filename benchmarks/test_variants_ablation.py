"""Benchmarks for the §5.1 variants and the manufactured-value-sequence ablation."""

import pytest

from benchmarks.conftest import record_table
from repro.core.manufacture import ManufacturedValueSequence, ZeroValueSequence
from repro.core.policies import FailureObliviousPolicy
from repro.errors import RequestOutcome
from repro.harness.experiments import run_experiment
from repro.servers.base import Request
from repro.servers.midnight_commander import MidnightCommanderServer
from repro.workloads.benign import midnight_commander_vfs_files


@pytest.mark.parametrize("policy", ["failure-oblivious", "boundless", "redirect"])
def test_variant_attack_scenario_cost(benchmark, policy):
    """Time the Mutt attack scenario under each §5.1 continuation-code variant."""
    from repro.harness.engine import ENGINE, ScenarioSpec

    spec = ScenarioSpec(server="mutt", policy=policy, workload="attack", scale=0.2)
    result = benchmark.pedantic(lambda: ENGINE.run(spec), rounds=3, iterations=1)
    assert result.continued_service


def test_variants_table(benchmark):
    """Regenerate the §5.1 variants matrix (boundless and redirect also work)."""
    output = benchmark.pedantic(
        lambda: run_experiment("exp-variants", scale=0.25), rounds=1, iterations=1
    )
    record_table("§5.1 continuation-code variants", output.table)
    assert all(output.data["survived"].values())


def _mc_with_sequence(sequence_factory):
    config = {"vfs_files": midnight_commander_vfs_files(directory_bytes=32 * 1024)}
    server = MidnightCommanderServer(
        lambda: FailureObliviousPolicy(sequence=sequence_factory()), config=config
    )
    server.start()
    return server


def test_value_sequence_ablation(benchmark):
    """§3 ablation: the paper's cycling sequence terminates the '/'-search loop,
    a constant all-zero sequence leaves it spinning (observable as HUNG)."""

    def run_ablation():
        paper = _mc_with_sequence(ManufacturedValueSequence)
        zeros = _mc_with_sequence(ZeroValueSequence)
        request = Request(kind="find_component", payload={"name": "noslashinthisname"})
        return (
            paper.process(Request(kind="find_component", payload={"name": "noslashinthisname"})),
            zeros.process(request),
        )

    paper_result, zero_result = benchmark.pedantic(run_ablation, rounds=3, iterations=1)
    assert paper_result.outcome is RequestOutcome.SERVED
    assert zero_result.outcome is RequestOutcome.HUNG
    record_table(
        "Manufactured value sequence ablation (§3)",
        "paper sequence -> {}\nall-zero sequence -> {}".format(
            paper_result.outcome.value, zero_result.outcome.value
        ),
    )
