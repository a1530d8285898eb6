"""Scenario simulation, Monte Carlo execution, metrics, and reporting."""

from .bounds import CrlbSeries, crlb_series
from .metrics import (
    NeesResult,
    RunMetrics,
    chi2_band,
    chi2_upper,
    nees_series,
    rmse_band,
)
from .report import emit_crlb, emit_report, summary_tables
from .scenario import (
    BUILTIN_SCENARIOS,
    LocalFilterSpec,
    Scenario,
    SegmentSpec,
    SensorSpec,
    TargetSpec,
    builtin_scenario_path,
    load_scenario,
)
from .simulate import (
    LocalTracks,
    SingleRun,
    TruthData,
    nominal_geometry,
    run_local_tracks,
    run_monte_carlo,
    run_single,
    simulate_truth,
)

__all__ = [
    "BUILTIN_SCENARIOS",
    "CrlbSeries",
    "LocalFilterSpec",
    "LocalTracks",
    "NeesResult",
    "RunMetrics",
    "Scenario",
    "SegmentSpec",
    "SensorSpec",
    "SingleRun",
    "TargetSpec",
    "TruthData",
    "builtin_scenario_path",
    "chi2_band",
    "chi2_upper",
    "crlb_series",
    "emit_crlb",
    "emit_report",
    "load_scenario",
    "nees_series",
    "nominal_geometry",
    "rmse_band",
    "run_local_tracks",
    "run_monte_carlo",
    "run_single",
    "simulate_truth",
    "summary_tables",
]
