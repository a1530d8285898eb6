"""Equivalent measurements (tracklets) from pairs of track snapshots.

A tracklet condenses the information a local track accumulated between two
reported frames into a single synthetic measurement ``u`` with covariance
``U``, so a fusion center can treat intermittent track reports as ordinary
measurements.  Two variants are provided: the inverse-filter construction,
which requires the covariance difference between prediction and update to be
invertible, and the decorrelated (information-difference) construction that
also covers the single-step case.
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
    the tracklet; gain reconstruction reuses it.  ``u`` has shape (..., n) and ``U`` and ``pred_cov``
    (..., n, n), with the leading batch axes of the snapshots.  ``method``
    names the form, per element (an array) when a batch mixes both.
    """

    u: np.ndarray
    U: np.ndarray
    pred_cov: np.ndarray
    from_frame: int
    to_frame: int
    A: np.ndarray | None = None
    method: str | np.ndarray = "inverse_kf"


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
    batch; every other element goes through :func:`_pinv_psd_one`.

    Raises :class:`NumericalError` when any element is indefinite or empty.
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
    for idx in np.argwhere(~pos).tolist():
        idx = tuple(idx)
        try:
            U[idx] = _pinv_psd_one(Lam[idx])
        except NumericalError as exc:
            raise NumericalError(exc.reason, index=idx) from exc
    return U


def _pinv_psd_one(Lam: np.ndarray) -> np.ndarray:
    """Pseudo-inverse of one information difference without the
    position-only structure.

    An axis-aligned deficiency (rows/columns near zero) short-circuits to a
    block inversion; anything else goes through an eigendecomposition.
    """
    n = Lam.shape[0]
    d = Lam.ravel()[:: n + 1]
    dmax = d.max(initial=0.0)
    if dmax > 0.0 and d.min() >= -1e-8 * dmax:
        tol = INFO_RTOL * dmax
        keep = d > tol
        idx = np.flatnonzero(keep)
        drop = np.flatnonzero(~keep)
        off_small = (
            drop.size == 0
            or np.abs(Lam[idx[:, None], drop]).max(initial=0.0) <= tol
        )
        if off_small:
            sub = Lam[idx[:, None], idx]
            try:
                np.linalg.cholesky(sub)
                sub_inv = np.linalg.inv(sub)
            except np.linalg.LinAlgError:
                sub_inv = None
            if sub_inv is not None:
                U = np.zeros((n, n))
                U[idx[:, None], idx] = sub_inv
                return U
    w, v = np.linalg.eigh(Lam)
    wmax = np.abs(w).max()
    if wmax == 0.0:
        raise NumericalError("track carried no new information over the interval")
    if w.min() < -1e-8 * wmax:
        raise NumericalError(
            "information difference indefinite; snapshots are inconsistent"
        )
    keep = w > INFO_RTOL * wmax
    if not np.any(keep):
        raise NumericalError("track carried no new information over the interval")
    vk = v[:, keep]
    return symmetrize((vk / w[keep]) @ vk.T)


def tracklet_inverse_kf(
    prev: GaussianEstimate, curr: GaussianEstimate, model: MotionModel
) -> Tracklet:
    """Invert the filter update between two snapshots of the same track.

    The snapshots and the model's ``F``/``Q`` may carry leading batch axes;
    one call then builds a tracklet per element.

    Raises :class:`TrackletSingularError` when any element's covariance
    difference D = P(k|k') - P(k|k) is singular or nearly so (e.g.
    single-step lags with position-only updates), signalling the caller to
    use the decorrelated fallback; its ``failed`` mask marks every such
    element.  Raises :class:`SingularMatrixError` when a resulting tracklet
    covariance cannot be inverted.
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
            failed=failed,
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
        from_frame=prev.frame,
        to_frame=curr.frame,
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
        from_frame=prev.frame,
        to_frame=curr.frame,
        method="decorrelated",
    )


def compute_tracklet(
    prev: GaussianEstimate, curr: GaussianEstimate, model: MotionModel
) -> Tracklet:
    """Tracklet in the inverse-filter form, falling back to the decorrelated
    form for the elements whose covariance difference is near-singular.

    A batch that mixes both forms is built from one call of each on its
    elements; its ``method`` then names the form per element and ``A`` is
    None.  An error names its element's index in the full batch.
    The snapshots carry the full batch shape; the model may be shared.
    """
    try:
        return tracklet_inverse_kf(prev, curr, model)
    except TrackletSingularError as exc:
        failed = exc.failed
    if failed.all():
        return tracklet_decorrelated(prev, curr, model)

    def part(build, sel):
        try:
            return build(prev[sel], curr[sel], model[sel])
        except NumericalError as exc:
            if exc.index is None:
                raise
            raise type(exc)(exc.reason, index=tuple(np.argwhere(sel)[exc.index[0]])) from exc

    inv, dec = part(tracklet_inverse_kf, ~failed), part(tracklet_decorrelated, failed)
    u = np.empty(failed.shape + inv.u.shape[-1:])
    U = np.empty(failed.shape + inv.U.shape[-2:])
    pred_cov = np.empty_like(U)
    for t, sel in ((inv, ~failed), (dec, failed)):
        u[sel], U[sel], pred_cov[sel] = t.u, t.U, t.pred_cov
    return Tracklet(
        u=u,
        U=U,
        pred_cov=pred_cov,
        from_frame=prev.frame,
        to_frame=curr.frame,
        method=np.where(failed, "decorrelated", "inverse_kf"),
    )
