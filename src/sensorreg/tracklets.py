"""Equivalent measurements (tracklets) from pairs of track snapshots.

A tracklet condenses the information a local track accumulated between two
reported frames into a single synthetic measurement ``u`` with covariance
``U``, so a fusion center can treat intermittent track reports as ordinary
measurements.  Everything downstream of a tracklet reads its positions
alone, so :func:`compute_tracklet` returns position tracklets, choosing a
form per element: the position block of the inverse-filter construction
(:func:`tracklet_inverse_kf`) where the covariance difference between
prediction and update is safely invertible, and the information difference
of the position marginals (:func:`tracklet_decorrelated`), which also covers
the single-step case, everywhere else.  Each element's tracklet, and the
reason it fails, depend on that element alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import det_spd2, inv_spd2, mt, mv, symmetrize
from .dynamics import MotionModel
from .errors import NumericalError, SingularMatrixError, TrackletSingularError, first_index
from .trackers import GaussianEstimate

__all__ = [
    "Tracklet",
    "tracklet_inverse_kf",
    "tracklet_decorrelated",
    "compute_tracklet",
]

# Condition-number limit on the prediction/update covariance difference above
# which the inverse-filter form is numerically untrustworthy.
COND_LIMIT = 1e12


@dataclass
class Tracklet:
    """Equivalent measurement ``u`` with covariance ``U`` over (k', k].

    A position tracklet, from :func:`compute_tracklet` or
    :func:`tracklet_decorrelated`, holds positions alone: ``u`` (..., 2) and
    ``U`` (..., 2, 2).  :func:`tracklet_inverse_kf` returns the full state,
    ``u`` (..., n) and ``U`` (..., n, n), and ``A``, the weighting matrix of
    its construction (None otherwise).  ``pred_cov`` (..., n, n) is the
    L-step predicted covariance used to build the tracklet; gain
    reconstruction reuses it.  The leading batch axes are those of the
    snapshots.
    """

    u: np.ndarray
    U: np.ndarray
    pred_cov: np.ndarray
    A: np.ndarray | None = None


def _predict(prev: GaussianEstimate, model: MotionModel):
    F = model.F
    if F.ndim > 2:
        return mv(F, prev.mean), F @ prev.cov @ mt(F) + model.Q
    # A shared F predicts the whole batch in two 2-D BLAS products: F times
    # every covariance side by side, then every row of F P times F'.
    n = model.dim
    FP = F @ np.moveaxis(prev.cov, -2, 0).reshape(n, -1)
    FPF = (FP.reshape(-1, n) @ F.T).reshape((n,) + prev.cov.shape[:-1])
    return prev.mean @ F.T, np.moveaxis(FPF, 0, -2) + model.Q


def tracklet_inverse_kf(
    prev: GaussianEstimate, curr: GaussianEstimate, model: MotionModel
) -> Tracklet:
    """Invert the filter update between two snapshots of the same track.

    The snapshots and the model's ``F``/``Q`` may carry leading batch axes;
    one call then builds a tracklet per element.

    Raises :class:`TrackletSingularError` marking every element whose
    covariance difference D = P(k|k') - P(k|k) is singular or nearly so
    (e.g. single-step lags with position-only updates); those take
    :func:`tracklet_decorrelated` in :func:`compute_tracklet`.
    """
    x_pred, P_pred = _predict(prev, model)
    D = symmetrize(P_pred - curr.cov)
    w = np.linalg.eigvalsh(D)
    lo, hi = w[..., 0], w[..., -1]
    with np.errstate(divide="ignore", invalid="ignore"):
        failed = (lo <= 0.0) | (hi / lo > COND_LIMIT)
    if failed.any():
        at = first_index(failed) or ()
        raise TrackletSingularError(
            f"covariance difference near-singular (eig range [{lo[at]:.3e}, {hi[at]:.3e}])",
            failed,
        )
    A = mt(np.linalg.solve(mt(D), mt(P_pred)))
    u = x_pred + mv(A, curr.mean - x_pred)
    return Tracklet(u=u, U=symmetrize(A @ curr.cov), pred_cov=P_pred, A=A)


def tracklet_decorrelated(
    prev: GaussianEstimate, curr: GaussianEstimate, model: MotionModel
) -> Tracklet:
    """The position tracklet from the information difference of the
    snapshots' position marginals: the position measurement whose Kalman
    update reproduces the position marginal of the track's update between
    them.

    With position blocks p, U^-1 = P(k|k)pp^-1 - P(k|k')pp^-1 and
    u = U (P(k|k)pp^-1 x(k|k)p - P(k|k')pp^-1 x(k|k')p), computed as
    x(k|k)p + U P(k|k')pp^-1 (x(k|k)p - x(k|k')p): 2x2 closed forms over any
    leading batch axes.  At lag 1 it is a Kalman filter's position
    measurement itself.

    Raises :class:`SingularMatrixError` for a track or predicted position
    covariance that is not positive definite, and :class:`NumericalError`
    marking every element whose information difference is not.
    """
    x_pred, P_pred = _predict(prev, model)
    J_curr, _ = inv_spd2(curr.cov[..., ::2, ::2], context="track position covariance")
    J_pred, _ = inv_spd2(P_pred[..., ::2, ::2], context="predicted track position covariance")
    try:
        U, _ = inv_spd2(J_curr - J_pred)
    except SingularMatrixError as exc:
        failed = ~det_spd2(J_curr - J_pred)[1]
        reason = "position information difference not positive definite"
        raise NumericalError(reason, failed) from exc
    x = curr.mean[..., ::2]
    u = x + mv(U, mv(J_pred, x - x_pred[..., ::2]))
    return Tracklet(u=u, U=U, pred_cov=P_pred)


def _positions(t: Tracklet) -> Tracklet:
    """The position tracklet of a full-state one."""
    return Tracklet(u=t.u[..., ::2], U=t.U[..., ::2, ::2], pred_cov=t.pred_cov)


def compute_tracklet(
    prev: GaussianEstimate, curr: GaussianEstimate, model: MotionModel
) -> Tracklet:
    """Position tracklet of every element, in the form that element admits.

    An element whose covariance difference passes the condition screen of
    :func:`tracklet_inverse_kf` takes the position block of that form, and
    every other :func:`tracklet_decorrelated`, run on those elements alone.
    A failure of the latter marks its elements on the whole batch.  A batch
    that mixes the two forms is split by a boolean mask, so the snapshots
    and a per-element model carry its batch axes in full.
    """
    try:
        return _positions(tracklet_inverse_kf(prev, curr, model))
    except TrackletSingularError as exc:
        singular = exc.failed
    if singular.all():
        return tracklet_decorrelated(prev, curr, model)
    try:
        marginal = tracklet_decorrelated(prev[singular], curr[singular], model[singular])
    except NumericalError as exc:
        failed = np.zeros_like(singular)
        failed[singular] = exc.failed
        raise type(exc)(exc.reason, failed) from exc
    ok = ~singular
    inverse = _positions(tracklet_inverse_kf(prev[ok], curr[ok], model[ok]))
    n = inverse.pred_cov.shape[-1]
    t = Tracklet(
        u=np.empty(singular.shape + (2,)),
        U=np.empty(singular.shape + (2, 2)),
        pred_cov=np.empty(singular.shape + (n, n)),
    )
    for at, part in ((singular, marginal), (ok, inverse)):
        t.u[at], t.U[at], t.pred_cov[at] = part.u, part.U, part.pred_cov
    return t
