"""Experiment harness: everything needed to regenerate the paper's evaluation.

* :mod:`repro.harness.engine` — the experiment engine: declarative
  :class:`~repro.harness.engine.ScenarioSpec` runs against registered
  :class:`~repro.servers.profile.ServerProfile`\\ s.
* :mod:`repro.harness.timing` — request-time measurement (means, standard
  deviations, slowdowns) in the style of Figures 2-6.
* :mod:`repro.harness.throughput` — the Apache throughput-under-attack
  experiment (§4.3.2).
* :mod:`repro.harness.stability` — long mixed-workload runs with periodic
  attack injection (the §4.x.4 stability sections and the sharded soak),
  served by the fleet scheduler.
* :mod:`repro.harness.report` — plain-text tables shaped like the paper's
  figures.
* :mod:`repro.harness.experiments` — the experiment registry keyed by the ids
  used in DESIGN.md and EXPERIMENTS.md (``fig2`` ... ``exp-propagation``).
"""

from repro.harness.timing import TimingResult, slowdown
from repro.harness.engine import (
    ENGINE,
    ExperimentEngine,
    FigureRow,
    ScenarioResult,
    ScenarioSpec,
    SecurityCell,
)
from repro.harness.report import format_figure_table, format_security_matrix
from repro.harness.throughput import ThroughputResult, run_throughput_experiment
from repro.harness.stability import run_stability_experiment
from repro.harness.experiments import EXPERIMENTS, run_experiment

__all__ = [
    "TimingResult",
    "slowdown",
    "ENGINE",
    "ExperimentEngine",
    "ScenarioSpec",
    "ScenarioResult",
    "FigureRow",
    "SecurityCell",
    "format_figure_table",
    "format_security_matrix",
    "ThroughputResult",
    "run_throughput_experiment",
    "run_stability_experiment",
    "EXPERIMENTS",
    "run_experiment",
]
