"""Analyses supporting the paper's explanation of *why* failure-oblivious works.

* :mod:`repro.analysis.propagation` — measures data and control-flow error
  propagation distances (§1.2): how far the effects of a memory error reach
  into subsequent requests.
* :mod:`repro.analysis.security` — classification of attack outcomes into the
  paper's security categories (exploited / crashed / denied service / survived).
"""

# The harness's experiment registry imports the modules below, and they
# import the harness's engine: load the harness first so neither side
# re-enters a half-loaded module.
import repro.harness  # noqa: F401
from repro.analysis.propagation import PropagationReport, measure_propagation
from repro.analysis.security import SecurityAssessment, assess_security

__all__ = [
    "PropagationReport",
    "measure_propagation",
    "SecurityAssessment",
    "assess_security",
]
