"""Equivalent measurements (tracklets) from pairs of track snapshots.

A tracklet condenses the information a local track accumulated between two
reported frames into a single synthetic measurement ``u`` with covariance
``U``, so a fusion center can treat intermittent track reports as ordinary
measurements.  Every form reads the later snapshot and the L-step
prediction of the earlier one, which the caller makes once with
:func:`~sensorreg.trackers.kf_predict`.  Everything downstream of a tracklet
reads its positions alone, so :func:`compute_tracklet` returns position
tracklets, choosing a form per element: the position block of the
inverse-filter construction (:func:`tracklet_inverse_kf`) where the
covariance difference between prediction and update is safely invertible,
and the information difference of the position marginals
(:func:`tracklet_decorrelated`), which also covers the single-step case,
everywhere else.  Each element's tracklet, and the reason it fails, depend
on that element alone: the checks return masks, ``(reason, failed)`` pairs
in check order, in place of an error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import det_spd2, inv_spd2_masked, mt, mv, singular, symmetrize
from .trackers import GaussianEstimate

__all__ = ["Tracklet", "tracklet_inverse_kf", "tracklet_decorrelated", "compute_tracklet"]

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
    its construction (None otherwise).  The leading batch axes are those of
    the snapshots.
    """

    u: np.ndarray
    U: np.ndarray
    A: np.ndarray | None = None


def tracklet_inverse_kf(pred: GaussianEstimate, curr: GaussianEstimate) -> tuple[Tracklet, list]:
    """Invert the filter update between the L-step prediction ``pred`` of a
    track's earlier snapshot and its later snapshot ``curr``, both with any
    leading batch axes.

    The form needs a well-conditioned covariance difference
    D = P(k|k') - P(k|k); a single-step lag with position-only updates
    leaves D singular.  Returns the tracklet and its one check, D failing
    :func:`_inverse_form`; such an element inverts an identity stand-in.
    """
    D = symmetrize(pred.cov - curr.cov)
    ok = _inverse_form(D)
    return _inverse_kf(pred, curr, D, ok), [
        ("covariance difference fails the inverse-filter condition screen", ~ok)
    ]


def _inverse_kf(pred: GaussianEstimate, curr: GaussianEstimate, D, ok) -> Tracklet:
    """:func:`tracklet_inverse_kf` from the covariance differences ``D`` and
    the mask ``ok`` of those that pass its screen."""
    if not ok.all():
        D = np.where(ok[..., None, None], D, np.eye(D.shape[-1]))
    A = mt(np.linalg.solve(mt(D), mt(pred.cov)))
    u = pred.mean + mv(A, curr.mean - pred.mean)
    return Tracklet(u=u, U=symmetrize(A @ curr.cov), A=A)


def tracklet_decorrelated(pred: GaussianEstimate, curr: GaussianEstimate) -> tuple[Tracklet, list]:
    """The position tracklet from the information difference of the
    position marginals of a track's L-step prediction ``pred`` and its
    snapshot ``curr``: the position measurement whose Kalman update
    reproduces the position marginal of the track's update between them.

    With position blocks p, U^-1 = P(k|k)pp^-1 - P(k|k')pp^-1 and
    u = U (P(k|k)pp^-1 x(k|k)p - P(k|k')pp^-1 x(k|k')p), computed as
    x(k|k)p + U P(k|k')pp^-1 (x(k|k)p - x(k|k')p): 2x2 closed forms over any
    leading batch axes.  At lag 1 it is a Kalman filter's position
    measurement itself.

    Returns the tracklet and its checks, in order: the track and the
    predicted position covariances, then their information difference, each
    not positive definite.  An element that fails one holds a stand-in.
    """
    P_curr, P_pred = curr.cov[..., ::2, ::2], pred.cov[..., ::2, ::2]
    J_curr, ok_curr = inv_spd2_masked(P_curr)
    J_pred, ok_pred = inv_spd2_masked(P_pred)
    U, ok = inv_spd2_masked(J_curr - J_pred)
    x = curr.mean[..., ::2]
    u = x + mv(U, mv(J_pred, x - pred.mean[..., ::2]))
    return Tracklet(u=u, U=U), [
        singular("track position covariance", P_curr, ~ok_curr),
        singular("predicted track position covariance", P_pred, ~ok_pred),
        ("position information difference not positive definite", ~ok),
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


def compute_tracklet(pred: GaussianEstimate, curr: GaussianEstimate) -> tuple[Tracklet, list]:
    """Position tracklet of every element, in the form that element admits,
    and its checks over the batch: the inverse-filter form's position
    covariance not positive definite, then those of :func:`tracklet_decorrelated`.

    An element that passes the check of :func:`tracklet_inverse_kf` takes
    the position block of that form; every other takes the other form.
    Each check marks the elements of its own form alone; each form runs on
    the whole batch, and only if an element needs it.
    """
    D = symmetrize(pred.cov - curr.cov)
    marginal = ~_inverse_form(D)
    reason = "tracklet position covariance not positive definite"
    if marginal.all():
        # A batch of one form (every epoch of a lag-1 scenario).
        part, faults = tracklet_decorrelated(pred, curr)
        return part, [(reason, ~marginal), *faults]
    full = _inverse_kf(pred, curr, D, ~marginal)
    u, U = full.u[..., ::2], full.U[..., ::2, ::2]
    checks = [(reason, ~(marginal | det_spd2(U)[1]))]
    if not marginal.any():
        # A batch of the other form (every epoch of a lag-10 scenario).
        return Tracklet(u=u, U=U), checks
    part, faults = tracklet_decorrelated(pred, curr)
    u = np.where(marginal[..., None], part.u, u)
    U = np.where(marginal[..., None, None], part.U, U)
    return Tracklet(u=u, U=U), checks + [(why, failed & marginal) for why, failed in faults]
