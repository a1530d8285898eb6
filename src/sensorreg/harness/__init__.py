"""Scenario simulation, Monte Carlo execution, metrics, and reporting.

The package exports the names that a study, its bounds and its reports are
written with; every other name is imported from its module
(``sensorreg.harness.simulate``, ``sensorreg.harness.metrics``, ...).
"""

from .bounds import crlb_series
from .metrics import chi2_band, nees_series
from .report import emit_crlb, emit_report, summary_tables
from .scenario import BUILTIN_SCENARIOS, builtin_scenario_path, load_scenario
from .simulate import (
    nominal_geometry,
    run_local_tracks,
    run_monte_carlo,
    simulate_truth,
)

__all__ = [
    "BUILTIN_SCENARIOS",
    "builtin_scenario_path",
    "chi2_band",
    "crlb_series",
    "emit_crlb",
    "emit_report",
    "load_scenario",
    "nees_series",
    "nominal_geometry",
    "run_local_tracks",
    "run_monte_carlo",
    "simulate_truth",
    "summary_tables",
]
