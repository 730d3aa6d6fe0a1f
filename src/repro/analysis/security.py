"""Security outcome classification for the attack experiments.

The paper's security claim has two parts: the failure-oblivious build (1) is
not exploitable via the documented memory errors (the attacker can neither
corrupt the address space nor hijack control flow) and (2) keeps serving
legitimate users through the attack.  :func:`assess_security` condenses a
security-matrix run into those terms for each server and build.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

from repro.errors import RequestOutcome
from repro.harness.engine import ENGINE, SecurityCell


@dataclass
class SecurityAssessment:
    """Security verdict for one (server, build) pair."""

    server: str
    policy: str
    #: The attacker crashed the process (denial of service).
    denial_of_service: bool
    #: The attacker achieved control-flow hijack (arbitrary code execution analogue).
    code_execution: bool
    #: The server kept serving legitimate requests through the attack.
    continued_service: bool

    @property
    def invulnerable(self) -> bool:
        """True if the attack achieved neither code execution nor denial of service."""
        return not self.denial_of_service and not self.code_execution

    def verdict(self) -> str:
        """Short label used in reports."""
        if self.code_execution:
            return "exploitable (code execution)"
        if self.denial_of_service:
            return "denial of service"
        if self.continued_service:
            return "invulnerable, keeps serving"
        return "invulnerable, degraded service"


def assess_security(
    cells: Optional[Iterable[SecurityCell]] = None,
    servers: Optional[Sequence[str]] = None,
    policies: Sequence[str] = ("standard", "bounds-check", "failure-oblivious"),
    scale: float = 0.25,
) -> List[SecurityAssessment]:
    """Classify each (server, build) cell of the security matrix.

    Either pass pre-computed ``cells`` (from
    :meth:`~repro.harness.engine.ExperimentEngine.run_security_matrix`) or
    let this function run the matrix itself.
    """
    if cells is None:
        cells = ENGINE.run_security_matrix(servers=servers, policies=policies, scale=scale)
    assessments: List[SecurityAssessment] = []
    for cell in cells:
        outcomes = [cell.boot_outcome]
        if cell.attack_outcome is not None:
            outcomes.append(cell.attack_outcome)
        denial = any(
            outcome in (
                RequestOutcome.CRASHED,
                RequestOutcome.TERMINATED_BY_CHECK,
                RequestOutcome.HUNG,
            )
            for outcome in outcomes
        )
        execution = any(outcome is RequestOutcome.EXPLOITED for outcome in outcomes)
        assessments.append(
            SecurityAssessment(
                server=cell.server,
                policy=cell.policy,
                denial_of_service=denial,
                code_execution=execution,
                continued_service=cell.continued_service,
            )
        )
    return assessments
