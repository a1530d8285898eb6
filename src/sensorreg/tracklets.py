"""Equivalent measurements (tracklets) from pairs of track snapshots.

A tracklet condenses the information a local track accumulated between two
reported frames into a single synthetic measurement ``u`` with covariance
``U``, so a fusion center can treat intermittent track reports as ordinary
measurements.  Two forms are provided: the inverse-filter construction,
which requires the covariance difference between prediction and update to be
invertible, and the decorrelated (information-difference) construction that
also covers the single-step case.  Where both apply they agree to rounding,
so :func:`compute_tracklet` picks one form for a whole batch: the
inverse-filter form when every element admits it, the decorrelated form
otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import first_index, inv_spd, inv_sym, mt, mv, symmetrize
from .dynamics import MotionModel
from .errors import NumericalError, SingularMatrixError, TrackletSingularError
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

# Relative eigenvalue cutoff separating genuine information from rounding
# noise in the decorrelated form.
INFO_RTOL = 1e-10


@dataclass
class Tracklet:
    """Equivalent measurement ``u`` with covariance ``U`` over (k', k].

    For the decorrelated form ``U`` is the pseudo-inverse of a possibly
    rank-deficient information difference, so only its observable subspace
    (positions, in the single-step case) is meaningful.  ``A`` is the
    weighting matrix of the inverse-filter form (None for the decorrelated
    form).  ``pred_cov`` is the L-step predicted covariance used to build
    the tracklet; gain reconstruction reuses it.  ``u`` has shape (..., n)
    and ``U`` and ``pred_cov`` (..., n, n), with the leading batch axes of
    the snapshots.  ``method`` names the form, one for the whole batch.
    """

    u: np.ndarray
    U: np.ndarray
    pred_cov: np.ndarray
    A: np.ndarray | None = None
    method: str = "inverse_kf"


def _predict(prev: GaussianEstimate, model: MotionModel):
    x_pred = mv(model.F, prev.mean)
    P_pred = model.F @ prev.cov @ mt(model.F) + model.Q
    return x_pred, P_pred


def _pinv_psd(Lam: np.ndarray) -> np.ndarray:
    """Pseudo-inverse of information differences on the last two axes.

    Contributions at rounding-noise level (below ``INFO_RTOL`` of the largest
    one) are zeroed so the observable subspace inverts cleanly.  The common
    case of position-only information (whole velocity rows/columns near
    zero) inverts the 2x2 position block in closed form over the whole
    batch; every other element goes through one batched eigendecomposition.

    Raises :class:`NumericalError` naming the first element that is
    indefinite or carries no information.
    """
    n = Lam.shape[-1]
    U = np.zeros_like(Lam)
    pos = np.zeros(Lam.shape[:-2], dtype=bool)
    if n == 4:
        # Position-only information: both position entries of the diagonal
        # above rounding level, every entry of the velocity columns at it.
        d = np.diagonal(Lam, axis1=-2, axis2=-1)
        tol = INFO_RTOL * d.max(axis=-1, initial=0.0)
        a, b, c = Lam[..., 0, 0], Lam[..., 0, 2], Lam[..., 2, 2]
        det = a * c - b * b
        pos = (
            (np.minimum(a, c) > tol)
            & (np.abs(Lam[..., :, 1::2]).max(axis=(-2, -1)) <= tol)
            & (det > 0.0)
        )
        # Elements outside the mask are overwritten below.
        with np.errstate(divide="ignore", invalid="ignore"):
            U[..., 0, 0], U[..., 2, 2] = c / det, a / det
            U[..., 0, 2] = U[..., 2, 0] = -b / det
    rest = ~pos
    if not rest.any():
        return U
    w, v = np.linalg.eigh(Lam[rest])
    wmax = np.abs(w).max(axis=-1)
    empty = wmax == 0.0
    # Nothing above the cutoff with wmax > 0 implies an eigenvalue of -wmax,
    # so the indefiniteness test also covers it.
    bad = empty | (w[:, 0] < -1e-8 * wmax)
    if bad.any():
        i = np.argmax(bad)
        reason = (
            "track carried no new information over the interval"
            if empty[i]
            else "information difference indefinite; snapshots are inconsistent"
        )
        raise NumericalError(reason, index=tuple(np.argwhere(rest)[i]))
    keep = w > INFO_RTOL * wmax[:, None]
    vw = np.divide(v, w[:, None, :], out=np.zeros_like(v), where=keep[:, None, :])
    U[rest] = symmetrize(vw @ mt(v))
    return U


def tracklet_inverse_kf(
    prev: GaussianEstimate, curr: GaussianEstimate, model: MotionModel
) -> Tracklet:
    """Invert the filter update between two snapshots of the same track.

    The snapshots and the model's ``F``/``Q`` may carry leading batch axes;
    one call then builds a tracklet per element.

    Raises :class:`TrackletSingularError` when any element's covariance
    difference D = P(k|k') - P(k|k) is singular or nearly so (e.g.
    single-step lags with position-only updates), signalling the caller to
    use the decorrelated form.  Raises :class:`SingularMatrixError` when a
    resulting tracklet covariance cannot be inverted.
    """
    x_pred, P_pred = _predict(prev, model)
    D = symmetrize(P_pred - curr.cov)
    w = np.linalg.eigvalsh(D)
    lo, hi = w[..., 0], w[..., -1]
    with np.errstate(divide="ignore", invalid="ignore"):
        failed = (lo <= 0.0) | (hi / lo > COND_LIMIT)
    if failed.any():
        index = first_index(failed)
        at = index or ()
        raise TrackletSingularError(
            f"covariance difference near-singular (eig range [{lo[at]:.3e}, {hi[at]:.3e}])",
            index=index,
        )
    A = mt(np.linalg.solve(mt(D), mt(P_pred)))
    u = x_pred + mv(A, curr.mean - x_pred)
    U = symmetrize(A @ curr.cov)
    # A tracklet whose covariance has no inverse carries no usable weight.
    inv_sym(U, context="tracklet covariance")
    return Tracklet(
        u=u,
        U=U,
        pred_cov=P_pred,
        A=A,
        method="inverse_kf",
    )


def tracklet_decorrelated(
    prev: GaussianEstimate, curr: GaussianEstimate, model: MotionModel
) -> Tracklet:
    """Build the tracklet from the information difference of the snapshots.

    U^-1 = P(k|k)^-1 - P(k|k')^-1 is the information the track gained over
    the interval; it may be rank-deficient (a single position update informs
    only two state directions), in which case the pseudo-inverse restricts
    ``u`` and ``U`` to the observable subspace.  The snapshots may carry
    leading batch axes; one call then builds a tracklet per element.

    Raises :class:`SingularMatrixError` naming the first element whose
    track or predicted covariance is not positive definite, and
    :class:`NumericalError` when any element's difference has a genuinely
    negative eigenvalue or carries no information at all.
    """
    x_pred, P_pred = _predict(prev, model)
    # Both covariances are inverted in one call, on a leading axis of two.
    try:
        J_curr, J_pred = inv_spd(np.stack(np.broadcast_arrays(curr.cov, P_pred)))
    except SingularMatrixError as exc:
        which = ("track covariance", "predicted track covariance")[exc.index[0]]
        raise SingularMatrixError(
            f"{which} is not positive definite", index=exc.index[1:]
        ) from exc
    U = _pinv_psd(symmetrize(J_curr - J_pred))
    u = mv(U, mv(J_curr, curr.mean) - mv(J_pred, x_pred))
    return Tracklet(
        u=u,
        U=U,
        pred_cov=P_pred,
        method="decorrelated",
    )


def compute_tracklet(
    prev: GaussianEstimate, curr: GaussianEstimate, model: MotionModel
) -> Tracklet:
    """Tracklet in the inverse-filter form, or in the decorrelated form for
    the whole batch when any element's covariance difference is
    near-singular.

    The two forms agree to rounding wherever both apply, so the form a batch
    takes moves its full-rank elements only in their last bits.
    """
    try:
        return tracklet_inverse_kf(prev, curr, model)
    except TrackletSingularError:
        return tracklet_decorrelated(prev, curr, model)
