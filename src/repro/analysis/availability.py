"""Availability metrics: continued execution versus restart-based recovery.

The paper argues (§1.4, §5.6) that failure-oblivious computing improves
availability relative both to crashing (Standard) and to terminate-and-restart
(Bounds Check plus a monitor), because restart costs time and, for servers
whose error trigger persists in the environment (Pine's mailbox, Mutt's
configured folder, Midnight Commander's configuration file), restarting simply
re-encounters the same error.

:func:`compare_availability` runs the same stability workload under several
builds and reports the fraction of legitimate requests served, the number of
process deaths, and the restart count for each.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

from repro.fleet.scheduler import InstanceTally
from repro.harness.stability import run_stability_experiment


@dataclass
class AvailabilityReport:
    """Availability comparison across builds for one server."""

    server: str
    results: Dict[str, InstanceTally]

    def service_rate(self, policy: str) -> float:
        """Fraction of legitimate requests served under the given build."""
        return self.results[policy].availability

    def deaths(self, policy: str) -> int:
        """Process deaths under the given build, boot-time deaths included."""
        result = self.results[policy]
        return result.server_deaths + result.boot_deaths

    def best_policy(self) -> str:
        """The build with the best availability.

        Service rate is the primary criterion; ties (e.g. Apache, whose child
        pool keeps the Standard build serving too) are broken by fewer process
        deaths and then fewer restarts, since every death/restart is downtime
        and management overhead the paper's throughput experiment charges for.
        """
        return max(
            self.results,
            key=lambda policy: (
                self.service_rate(policy),
                -self.deaths(policy),
                -self.results[policy].restarts,
            ),
        )

    def improvement_over(self, baseline: str, treatment: str = "failure-oblivious") -> float:
        """Ratio of service rates (treatment over baseline); inf if the baseline served nothing."""
        base = self.service_rate(baseline)
        treat = self.service_rate(treatment)
        if base == 0:
            return float("inf") if treat > 0 else 1.0
        return treat / base

    def summary_rows(self):
        """Rows (policy, served, failed, deaths, restarts, rate) for report tables."""
        rows = []
        for policy, result in self.results.items():
            rows.append(
                (
                    policy,
                    result.legitimate_served,
                    result.legitimate_failed,
                    self.deaths(policy),
                    result.restarts,
                    f"{result.availability:.3f}",
                )
            )
        return rows


def compare_availability(
    server_name: str,
    policies: Sequence[str] = ("standard", "bounds-check", "failure-oblivious"),
    total_requests: int = 120,
    attack_every: int = 20,
    restart_on_death: bool = True,
    seed: int = 20040101,
    scale: float = 0.25,
) -> AvailabilityReport:
    """Run the same mixed workload under each build and compare service rates."""
    results: Dict[str, InstanceTally] = {}
    for policy_name in policies:
        results[policy_name] = run_stability_experiment(
            server_name,
            policy_name,
            total_requests=total_requests,
            attack_every=attack_every,
            restart_on_death=restart_on_death,
            seed=seed,
            scale=scale,
        ).instances[0]
    return AvailabilityReport(server=server_name, results=results)
