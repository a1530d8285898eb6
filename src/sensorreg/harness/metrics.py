"""Monte Carlo aggregation: RMSE, estimator-reported sigmas, and NEES.

NEES (normalized estimation error squared) for a consistent d-dimensional
estimator averaged over N runs concentrates around d; its 95% acceptance
band comes from chi-square quantiles with d*N degrees of freedom scaled by
N.  RMSE confidence bands use the chi-square distribution of the summed
squared errors around the reported value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.stats import chi2

from .._linalg import solve_psd
from ..errors import NumericalError, SingularMatrixError
from .scenario import Scenario

__all__ = [
    "RunMetrics",
    "NeesResult",
    "nees_series",
    "chi2_band",
    "chi2_upper",
    "rmse_band",
    "forward_fill",
    "aggregate_runs",
]


def chi2_band(dim: int, runs: int, alpha: float = 0.05) -> tuple[float, float]:
    """Two-sided (1 - alpha) acceptance band for run-averaged NEES."""
    lo = chi2.ppf(alpha / 2.0, dim * runs) / runs
    hi = chi2.ppf(1.0 - alpha / 2.0, dim * runs) / runs
    return float(lo), float(hi)


def chi2_upper(dim: int, runs: int, alpha: float = 0.05) -> float:
    """One-sided (1 - alpha) upper bound for run-averaged NEES."""
    return float(chi2.ppf(1.0 - alpha, dim * runs) / runs)


def rmse_band(rmse: float, runs: int, alpha: float = 0.05) -> tuple[float, float]:
    """Chi-square confidence band for an RMSE estimated from ``runs`` samples."""
    lo = rmse * np.sqrt(chi2.ppf(alpha / 2.0, runs) / runs)
    hi = rmse * np.sqrt(chi2.ppf(1.0 - alpha / 2.0, runs) / runs)
    return float(lo), float(hi)


@dataclass
class NeesResult:
    """Run-averaged NEES per frame with its chi-square bounds."""

    nees: np.ndarray
    lower: float
    upper: float
    upper_one_sided: float
    dim: int
    runs: int


def nees_series(errors: np.ndarray, covariances: np.ndarray) -> NeesResult:
    """Average e' Sigma^-1 e over runs, for each frame (and group).

    Args:
        errors: (runs, frames, d) estimation errors, or (runs, frames, g, d)
            for g groups of the same dimension at once.
        covariances: the matching (..., d, d) reported covariances.

    Raises :class:`NumericalError` naming the run and frame (and group) of
    the first covariance that cannot be inverted.
    """
    errors = np.asarray(errors, dtype=float)
    covariances = np.asarray(covariances, dtype=float)
    runs, d = errors.shape[0], errors.shape[-1]
    try:
        sol = solve_psd(covariances, errors[..., None], context="covariance")
    except SingularMatrixError as exc:
        run, frame, *group = exc.index
        where = f"run {run}, frame {frame}" + "".join(f", group {g}" for g in group)
        raise NumericalError(f"singular covariance in NEES at {where}") from exc
    vals = (errors[..., None, :] @ sol)[..., 0, 0]
    lo, hi = chi2_band(d, runs)
    return NeesResult(
        nees=vals.mean(axis=0),
        lower=lo,
        upper=hi,
        upper_one_sided=chi2_upper(d, runs),
        dim=d,
        runs=runs,
    )


def forward_fill(arr: np.ndarray) -> np.ndarray:
    """Replace NaN entries with the most recent finite value."""
    out = np.asarray(arr, dtype=float).copy()
    last = np.nan
    for i in range(out.shape[0]):
        if np.isfinite(out[i]):
            last = out[i]
        else:
            out[i] = last
    return out


@dataclass
class RunMetrics:
    """Aggregated Monte Carlo metrics for one scenario/method pair.

    Bias metrics are grouped per sensor for the leave-one-out estimator and
    as a single stacked group for the two-sensor oracle paths; ``group_dim``
    is the per-group bias dimension.
    """

    scenario_name: str
    method: str
    mc_runs: int
    frames: int
    update_epochs: list[int]
    n_groups: int
    group_dim: int
    group_sensors: list[list[int]]
    bias_true: np.ndarray | None
    bias_rmse: np.ndarray | None          # (K+1, n_groups, d)
    bias_sqrt_sigma: np.ndarray | None    # (K+1, n_groups, d)
    bias_nees: np.ndarray | None          # (K+1, n_groups)
    nees_lower: float = np.nan
    nees_upper: float = np.nan
    nees_upper_one_sided: float = np.nan
    track_rmse_local: np.ndarray | None = None    # (K+1,)
    track_rmse_fused: np.ndarray | None = None    # (K+1,)
    final_local_sqerr: np.ndarray | None = None   # (runs,)
    final_fused_sqerr: np.ndarray | None = None   # (runs,)


def aggregate_runs(
    scenario: Scenario,
    method: str,
    outs: list,
    true_bias: np.ndarray | None,
) -> RunMetrics:
    """Reduce per-run outputs into Monte Carlo metrics (run order invariant)."""
    runs = len(outs)
    K = scenario.frames
    epochs = scenario.update_epochs()

    local_sq = np.stack([o.local_sqerr for o in outs])
    track_local = np.sqrt(local_sq.mean(axis=0))
    if outs[0].fused_sqerr is not None:
        fused_sq = np.stack([forward_fill(o.fused_sqerr) for o in outs])
        if not np.all(np.isfinite(fused_sq[:, 1:])):
            bad = np.argwhere(~np.isfinite(fused_sq))
            raise NumericalError(
                f"non-finite fused track error at run {bad[0][0]}, frame {bad[0][1]}"
            )
        track_fused = np.sqrt(fused_sq.mean(axis=0))
        final_fused = fused_sq[:, -1]
    else:
        track_fused = None
        final_fused = None

    if outs[0].b_series is None:
        return RunMetrics(
            scenario_name=scenario.name,
            method=method,
            mc_runs=runs,
            frames=K,
            update_epochs=epochs,
            n_groups=0,
            group_dim=0,
            group_sensors=[],
            bias_true=None,
            bias_rmse=None,
            bias_sqrt_sigma=None,
            bias_nees=None,
            track_rmse_local=track_local,
            track_rmse_fused=track_fused,
            final_local_sqerr=local_sq[:, -1],
            final_fused_sqerr=final_fused,
        )

    b = np.stack([o.b_series for o in outs])          # (runs, K+1, g, d)
    sig = np.stack([o.sigma_series for o in outs])    # (runs, K+1, g, d, d)
    n_groups = b.shape[2]
    d = b.shape[3]
    err = b - true_bias[None, None, :, :]
    bias_rmse = np.sqrt((err**2).mean(axis=0))
    diag = np.sqrt(np.maximum(np.diagonal(sig, axis1=3, axis2=4), 0.0))
    bias_sqrt_sigma = diag.mean(axis=0)

    res = nees_series(err, sig)

    if method in ("ex", "exl"):
        group_sensors = [[i for i in range(len(scenario.sensors))]]
    else:
        group_sensors = [[i] for i in range(len(scenario.sensors))]

    return RunMetrics(
        scenario_name=scenario.name,
        method=method,
        mc_runs=runs,
        frames=K,
        update_epochs=epochs,
        n_groups=n_groups,
        group_dim=d,
        group_sensors=group_sensors,
        bias_true=true_bias,
        bias_rmse=bias_rmse,
        bias_sqrt_sigma=bias_sqrt_sigma,
        bias_nees=res.nees,
        nees_lower=res.lower,
        nees_upper=res.upper,
        nees_upper_one_sided=res.upper_one_sided,
        track_rmse_local=track_local,
        track_rmse_fused=track_fused,
        final_local_sqerr=local_sq[:, -1],
        final_fused_sqerr=final_fused,
    )
