"""Monte Carlo aggregation: RMSE, estimator-reported sigmas, and NEES.

NEES (normalized estimation error squared) for a consistent d-dimensional
estimator averaged over N runs concentrates around d; its 95% acceptance
band comes from chi-square quantiles with d*N degrees of freedom scaled by
N.  RMSE confidence bands use the chi-square distribution of the summed
squared errors around the reported value.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .._linalg import cholesky, solve_psd
from ..errors import NumericalError, SingularMatrixError, located, raise_first
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


_EPS = sys.float_info.epsilon
_TINY = sys.float_info.min
# Coefficients of the Stirling series of log Gamma(a) - [(a - 1/2) log a - a
# + log(2 pi) / 2] in odd powers of 1/a; from a = 16 on, the first omitted
# term is below 1.2e-16.
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188)
# A Halley step shorter than this share of x leaves an error of the order
# of its cube, far below the quantile's 1e-12 tolerance.
_STEP_TOL = 1e-8
_MAX_STEPS = 100


def _log_gamma_kernel(a: float, x: float) -> float:
    """log(x^a e^-x / Gamma(a)).  From a = 16 on it is formed around x = a
    as a (log1p(t) - t) + log(a / 2 pi) / 2 - stirlerr(a), t = (x - a) / a,
    so that the large, nearly cancelling a log x, x and log Gamma(a) never
    meet in floating point."""
    if a < 16:
        return a * math.log(x) - x - math.lgamma(a)
    t = (x - a) / a
    inv2 = 1 / (a * a)
    c0, c1, c2, c3, c4 = _STIRLING
    stirlerr = (c0 + inv2 * (c1 + inv2 * (c2 + inv2 * (c3 + inv2 * c4)))) / a
    return a * (math.log1p(t) - t) + 0.5 * math.log(a / (2 * math.pi)) - stirlerr


def _gamma_tail(a: float, x: float) -> tuple[bool, float, float]:
    """One tail of the regularized incomplete gamma function at ``x`` > 0,
    with the Gamma(a) density there: ``(False, P(a, x), f)`` from the power
    series below x = a + 1, ``(True, Q(a, x), f)`` from the continued
    fraction (modified Lentz) above, each where it converges fast."""
    kernel = math.exp(_log_gamma_kernel(a, x))
    if x < a + 1:
        # P = kernel * sum_n x^n / (a (a + 1) ... (a + n)); the ratio of
        # successive terms is below 1, so the loop ends.
        term = total = 1 / a
        ap = a
        while term > total * _EPS:
            ap += 1
            term *= x / ap
            total += term
        return False, kernel * total, kernel / x
    # Q = kernel / (x + 1 - a - 1 (1 - a) / (x + 3 - a - 2 (2 - a) / ...)),
    # which takes a few times sqrt(a) terms near x = a + 1.
    b = x + 1 - a
    c = 1 / _TINY
    d = 1 / b
    h = d
    for n in range(1, 100 + int(10 * math.sqrt(a))):
        an = -n * (n - a)
        b += 2
        d = an * d + b
        d = 1 / (d if abs(d) >= _TINY else _TINY)
        c = b + an / c
        c = c if abs(c) >= _TINY else _TINY
        delta = d * c
        h *= delta
        if abs(delta - 1) <= _EPS:
            return True, kernel * h, kernel / x
    raise NumericalError(f"incomplete gamma continued fraction did not converge at a={a}, x={x}")


def _normal_quantile(q: float) -> float:
    """Standard normal quantile to about 4.5e-4 (Abramowitz and Stegun
    26.2.23); a starting point, not a result."""
    t = math.sqrt(-2 * math.log(min(q, 1 - q)))
    z = t - (2.515517 + t * (0.802853 + t * 0.010328)) / (
        1 + t * (1.432788 + t * (0.189269 + t * 0.001308))
    )
    return z if q > 0.5 else -z


def _chi2_quantile(q: float, df: int) -> float:
    """Quantile ``q`` of chi-square(``df``), which is twice that of
    Gamma(df/2), to within 1e-12 relative (``tests/test_harness.py`` holds
    it to ``scipy.stats.chi2.ppf`` for df up to 1e6).

    Solves P(a, x) = q by Halley steps from the larger of the Wilson-Hilferty
    guess and (q Gamma(a + 1))^(1/a), a lower bound because P(a, x) <= x^a /
    Gamma(a + 1).  Every evaluation narrows a bracket around the root, and a
    step that leaves it bisects instead, so the iteration ends: on a short
    step, on a bracket a few ulps wide, or after ``_MAX_STEPS`` with a
    :class:`NumericalError`.
    """
    if not (0 < q < 1 and df > 0):
        raise ValueError(f"need 0 < q < 1 and df > 0, got q={q}, df={df}")
    a = df / 2
    wilson_hilferty = a * (1 - 1 / (9 * a) + _normal_quantile(q) / (3 * math.sqrt(a))) ** 3
    x = max(wilson_hilferty, math.exp((math.log(q) + math.lgamma(a + 1)) / a))
    lo, hi = 0.0, math.inf
    for _ in range(_MAX_STEPS):
        upper, tail, density = _gamma_tail(a, x)
        # P(a, x) - q, from the tail that was summed.
        g = (1 - q) - tail if upper else tail - q
        if g < 0:
            lo = x
        else:
            hi = x
        step = g / density
        # Halley's correction, from f'/f = (a - 1)/x - 1 of the density.
        h = 1 - 0.5 * step * ((a - 1) / x - 1)
        if h > 0:
            step /= h
        new = x - step
        if abs(step) <= _STEP_TOL * x:
            return 2 * new
        if not lo < new < hi:
            new = 0.5 * (lo + hi) if hi < math.inf else 2 * x
        if hi - lo <= 4 * _EPS * new:
            return 2 * new
        x = new
    raise NumericalError(f"chi-square quantile did not converge for q={q}, df={df}")


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

    Raises :class:`SingularMatrixError` naming the run and frame (and
    group) of the first covariance that is not positive definite (NaN
    entries included), with the failing ones marked over (run, frame[,
    group]).
    """
    errors = np.asarray(errors, dtype=float)
    covariances = np.asarray(covariances, dtype=float)
    runs, d = errors.shape[0], errors.shape[-1]

    def where(run, frame, *group):
        return f"NEES at run {run}, frame {frame}" + "".join(f", group {g}" for g in group)

    with located(where):
        # The Cholesky factors only screen; the LU solve sets the values.
        screen = ("covariance is not positive definite", ~cholesky(covariances)[1])
        raise_first([screen], SingularMatrixError)
        sol = solve_psd(covariances, errors[..., None], context="covariance")
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
        bad = ~np.isfinite(fused_sq)
        if bad.any():
            with located(lambda r, k: f"non-finite fused track error at run {r}, frame {k}"):
                raise NumericalError(f"{fused_sq[bad][0]:g}", bad)

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
