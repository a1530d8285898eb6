"""Monte Carlo aggregation: RMSE, estimator-reported sigmas, and NEES.

NEES (normalized estimation error squared) for a consistent d-dimensional
estimator averaged over N runs concentrates around d; its 95% acceptance
band comes from chi-square quantiles with d*N degrees of freedom scaled by
N.  RMSE confidence bands use the chi-square distribution of the summed
squared errors around the reported value.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaincinv

from .._linalg import cholesky, solve_psd
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


def _chi2_quantile(q: float, df: int) -> float:
    """Quantile ``q`` of chi-square(``df``), which is Gamma(df/2, scale 2):
    the formula ``scipy.stats.chi2.ppf`` evaluates, bit for bit."""
    return 2 * gammaincinv(df / 2, q)


def chi2_band(dim: int, runs: int, alpha: float = 0.05) -> tuple[float, float]:
    """Two-sided (1 - alpha) acceptance band for run-averaged NEES."""
    lo = _chi2_quantile(alpha / 2.0, dim * runs) / runs
    hi = _chi2_quantile(1.0 - alpha / 2.0, dim * runs) / runs
    return float(lo), float(hi)


def chi2_upper(dim: int, runs: int, alpha: float = 0.05) -> float:
    """One-sided (1 - alpha) upper bound for run-averaged NEES."""
    return float(_chi2_quantile(1.0 - alpha, dim * runs) / runs)


def rmse_band(
    rmse: np.ndarray | float, runs: int, alpha: float = 0.05
) -> tuple[np.ndarray, np.ndarray]:
    """Chi-square confidence band, elementwise, for RMSEs estimated from
    ``runs`` samples; each bound is the RMSE times one factor."""
    rmse = np.asarray(rmse, dtype=float)
    lo = rmse * np.sqrt(_chi2_quantile(alpha / 2.0, runs) / runs)
    hi = rmse * np.sqrt(_chi2_quantile(1.0 - alpha / 2.0, runs) / runs)
    return lo, hi


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
    the first covariance that is not positive definite (NaN entries
    included).
    """
    errors = np.asarray(errors, dtype=float)
    covariances = np.asarray(covariances, dtype=float)
    runs, d = errors.shape[0], errors.shape[-1]
    try:
        # The Cholesky factors only screen; the LU solve sets the values.
        cholesky(covariances, context="covariance")
        sol = solve_psd(covariances, errors[..., None], context="covariance")
    except SingularMatrixError as exc:
        run, frame, *group = exc.index
        where = f"run {run}, frame {frame}" + "".join(f", group {g}" for g in group)
        raise NumericalError(f"covariance not positive definite in NEES at {where}") from exc
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
    """Replace each non-finite entry with the most recent finite value
    before it on the last axis; entries before the first finite one are NaN."""
    arr = np.asarray(arr, dtype=float)
    n = arr.shape[-1]
    # Index into a NaN-led copy: 0 is the NaN, i + 1 the entry i.
    src = np.maximum.accumulate(np.where(np.isfinite(arr), np.arange(1, n + 1), 0), axis=-1)
    led = np.concatenate([np.full(arr.shape[:-1] + (1,), np.nan), arr], axis=-1)
    return np.take_along_axis(led, src, axis=-1)


@dataclass
class RunMetrics:
    """Aggregated Monte Carlo metrics for one scenario/method pair.

    Bias metrics come in groups of equal dimension: one per sensor, or one
    that stacks every sensor's bias.  ``group_sensors`` lists the
    (0-based) sensors each group covers, in stacking order.
    """

    scenario_name: str
    method: str
    mc_runs: int
    frames: int
    update_epochs: list[int]
    group_sensors: list[list[int]] = field(default_factory=list)
    bias_rmse: np.ndarray | None = None          # (K+1, n_groups, d)
    bias_sqrt_sigma: np.ndarray | None = None    # (K+1, n_groups, d)
    bias_nees: np.ndarray | None = None          # (K+1, n_groups)
    nees_lower: float = np.nan
    nees_upper: float = np.nan
    nees_upper_one_sided: float = np.nan
    track_rmse_local: np.ndarray | None = None    # (K+1,)
    track_rmse_fused: np.ndarray | None = None    # (K+1,)
    final_local_sqerr: np.ndarray | None = None   # (runs,)
    final_fused_sqerr: np.ndarray | None = None   # (runs,)

    @property
    def n_groups(self) -> int:
        return 0 if self.bias_rmse is None else self.bias_rmse.shape[1]

    @property
    def group_dim(self) -> int:
        """Bias dimension of each group."""
        return 0 if self.bias_rmse is None else self.bias_rmse.shape[2]


def aggregate_runs(scenario: Scenario, method: str, outs: list) -> RunMetrics:
    """Reduce per-run outputs into Monte Carlo metrics (run order invariant).

    The bias group count of the outputs sets the layout: one group stacks
    every sensor's bias, more give one group per sensor.
    """
    local_sq = np.stack([o.local_sqerr for o in outs])
    fused_sq = None
    if outs[0].fused_sqerr is not None:
        fused_sq = forward_fill(np.stack([o.fused_sqerr for o in outs]))
        if not np.all(np.isfinite(fused_sq[:, 1:])):
            bad = np.argwhere(~np.isfinite(fused_sq))
            raise NumericalError(
                f"non-finite fused track error at run {bad[0][0]}, frame {bad[0][1]}"
            )

    bias = {}
    if outs[0].b_series is not None:
        b = np.stack([o.b_series for o in outs])          # (runs, K+1, g, d)
        sig = np.stack([o.sigma_series for o in outs])    # (runs, K+1, g, d, d)
        # Groups split the sensors evenly, in order: one group stacks them
        # all, one group per sensor holds each alone.
        n_groups = b.shape[2]
        group_sensors = np.arange(len(scenario.sensors)).reshape(n_groups, -1).tolist()
        true = [s.bias.as_array(scenario.estimate_scale_bias) for s in scenario.sensors]
        err = b - np.reshape(true, (n_groups, -1))
        res = nees_series(err, sig)
        sqrt_diag = np.sqrt(np.maximum(np.diagonal(sig, axis1=3, axis2=4), 0.0))
        bias = dict(
            group_sensors=group_sensors,
            bias_rmse=np.sqrt((err**2).mean(axis=0)),
            bias_sqrt_sigma=sqrt_diag.mean(axis=0),
            bias_nees=res.nees,
            nees_lower=res.lower,
            nees_upper=res.upper,
            nees_upper_one_sided=res.upper_one_sided,
        )

    return RunMetrics(
        scenario_name=scenario.name,
        method=method,
        mc_runs=len(outs),
        frames=scenario.frames,
        update_epochs=scenario.update_epochs(),
        track_rmse_local=np.sqrt(local_sq.mean(axis=0)),
        track_rmse_fused=None if fused_sq is None else np.sqrt(fused_sq.mean(axis=0)),
        final_local_sqerr=local_sq[:, -1],
        final_fused_sqerr=None if fused_sq is None else fused_sq[:, -1],
        **bias,
    )
