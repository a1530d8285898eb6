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
reason it fails, depend on that element alone: the checks return masks,
``(reason, failed)`` pairs in check order, in place of an error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import inv_spd2_masked, mt, mv, singular, symmetrize
from .dynamics import MotionModel
from .trackers import GaussianEstimate, kf_predict

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


def tracklet_inverse_kf(
    prev: GaussianEstimate, curr: GaussianEstimate, model: MotionModel
) -> Tracklet:
    """Invert the filter update between two snapshots of the same track.

    The snapshots and the model's ``F``/``Q`` may carry leading batch axes;
    one call then builds a tracklet per element.  The form needs a
    well-conditioned covariance difference D = P(k|k') - P(k|k), which
    :func:`compute_tracklet` screens for; a single-step lag with
    position-only updates leaves D singular.
    """
    pred = kf_predict(prev, model)
    return _inverse_kf(pred.mean, pred.cov, curr, symmetrize(pred.cov - curr.cov))


def _inverse_kf(
    x_pred: np.ndarray, P_pred: np.ndarray, curr: GaussianEstimate, D: np.ndarray
) -> Tracklet:
    """:func:`tracklet_inverse_kf` from the prediction and the covariance
    difference ``D``."""
    A = mt(np.linalg.solve(mt(D), mt(P_pred)))
    u = x_pred + mv(A, curr.mean - x_pred)
    return Tracklet(u=u, U=symmetrize(A @ curr.cov), pred_cov=P_pred, A=A)


def tracklet_decorrelated(
    prev: GaussianEstimate, curr: GaussianEstimate, model: MotionModel
) -> tuple[Tracklet, list]:
    """The position tracklet from the information difference of the
    snapshots' position marginals: the position measurement whose Kalman
    update reproduces the position marginal of the track's update between
    them.

    With position blocks p, U^-1 = P(k|k)pp^-1 - P(k|k')pp^-1 and
    u = U (P(k|k)pp^-1 x(k|k)p - P(k|k')pp^-1 x(k|k')p), computed as
    x(k|k)p + U P(k|k')pp^-1 (x(k|k)p - x(k|k')p): 2x2 closed forms over any
    leading batch axes.  At lag 1 it is a Kalman filter's position
    measurement itself.

    Returns the tracklet and its checks, in order: the track and the
    predicted position covariances, then their information difference, each
    not positive definite.  An element that fails one holds a stand-in.
    """
    pred = kf_predict(prev, model)
    t, failed = _decorrelated(pred.mean, pred.cov, curr)
    return t, _decorrelated_faults(curr.cov, pred.cov, failed)


def _decorrelated(x_pred, P_pred, curr: GaussianEstimate) -> tuple[Tracklet, tuple]:
    """:func:`tracklet_decorrelated` from the prediction, with the masks of
    the elements that fail each of its checks."""
    J_curr, ok_curr = inv_spd2_masked(curr.cov[..., ::2, ::2])
    J_pred, ok_pred = inv_spd2_masked(P_pred[..., ::2, ::2])
    U, ok = inv_spd2_masked(J_curr - J_pred)
    x = curr.mean[..., ::2]
    u = x + mv(U, mv(J_pred, x - x_pred[..., ::2]))
    return Tracklet(u=u, U=U, pred_cov=P_pred), (~ok_curr, ~ok_pred, ~ok)


def _decorrelated_faults(cov, P_pred, failed) -> list:
    """The checks of :func:`tracklet_decorrelated` from their masks."""
    bad_curr, bad_pred, bad_difference = failed
    return [
        singular("track position covariance", cov[..., ::2, ::2], bad_curr),
        singular("predicted track position covariance", P_pred[..., ::2, ::2], bad_pred),
        ("position information difference not positive definite", bad_difference),
    ]


def _inverse_form(D: np.ndarray) -> np.ndarray:
    """Mask of the covariance differences ``D`` (..., n, n), symmetric, that
    pass the condition screen of the inverse-filter form: finite, with
    positive eigenvalues and a condition number at most ``COND_LIMIT``.

    For SPD D, cond(D) <= trace(D)^n / det(D), and det(D) is the squared
    product of the diagonal of its Cholesky factor.  An element whose bound
    is at most ``COND_LIMIT / 16`` passes on that alone; ``eigvalsh`` decides
    every other, and the whole batch when its Cholesky factorization fails
    (a single-step pair leaves D singular).  The margin covers the rounding
    of both the bound and the eigenvalues, so the mask equals that of the
    eigenvalue test alone.
    """
    try:
        diag = np.diagonal(np.linalg.cholesky(D), axis1=-2, axis2=-1)
    except np.linalg.LinAlgError:
        inverse = np.zeros(D.shape[:-2], dtype=bool)
    else:
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            bound = np.trace(D, axis1=-2, axis2=-1) ** D.shape[-1] / diag.prod(axis=-1) ** 2
        inverse = np.asarray(bound <= COND_LIMIT / 16)
    undecided = ~inverse
    if undecided.any():
        rest = D[undecided]
        finite = np.isfinite(rest).all(axis=(-2, -1))
        w = np.linalg.eigvalsh(np.where(finite[..., None, None], rest, 0.0))
        lo, hi = w[..., 0], w[..., -1]
        with np.errstate(divide="ignore", invalid="ignore"):
            inverse[undecided] = (lo > 0.0) & (hi / lo <= COND_LIMIT)
    return inverse


def compute_tracklet(
    prev: GaussianEstimate, curr: GaussianEstimate, model: MotionModel
) -> tuple[Tracklet, list]:
    """Position tracklet of every element, in the form that element admits,
    and the checks of :func:`tracklet_decorrelated` over the batch.

    One :func:`~sensorreg.trackers.kf_predict` call serves both forms.  An
    element whose covariance difference passes :func:`_inverse_form` takes
    the position block of :func:`tracklet_inverse_kf`; every other takes
    :func:`tracklet_decorrelated`, whose checks mark those elements alone.
    Each form runs once, on its own elements.
    """
    pred = kf_predict(prev, model)
    x_pred, P_pred = pred.mean, pred.cov
    D = symmetrize(P_pred - curr.cov)
    inverse = _inverse_form(D)
    failed = np.zeros((3,) + inverse.shape, dtype=bool)
    if inverse.all():
        # A batch of one form (every epoch of a lag-10 scenario) needs no gather.
        full = _inverse_kf(x_pred, P_pred, curr, D)
        t = Tracklet(u=full.u[..., ::2], U=full.U[..., ::2, ::2], pred_cov=P_pred)
        return t, _decorrelated_faults(curr.cov, P_pred, failed)
    t = Tracklet(
        u=np.empty(inverse.shape + (2,)), U=np.empty(inverse.shape + (2, 2)), pred_cov=P_pred
    )
    if inverse.any():
        full = _inverse_kf(x_pred[inverse], P_pred[inverse], curr[inverse], D[inverse])
        t.u[inverse], t.U[inverse] = full.u[..., ::2], full.U[..., ::2, ::2]
    marginal = ~inverse
    part, failed[:, marginal] = _decorrelated(x_pred[marginal], P_pred[marginal], curr[marginal])
    t.u[marginal], t.U[marginal] = part.u, part.U
    return t, _decorrelated_faults(curr.cov, P_pred, failed)
