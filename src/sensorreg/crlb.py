"""Lower bounds for bias parameters from their Fisher information.

The bias observation is linear-Gaussian, so the information matrix is the
block sum g' R^-1 g over all (target, frame) observation blocks
(:func:`~sensorreg.bias.bias_information`, which the estimators share), and
the bound on any unbiased estimator's variance is the diagonal of its
inverse: :func:`crlb_diag`, on a batch of d x d informations through LAPACK.
"""

from __future__ import annotations

import numpy as np

from ._linalg import fails_alone

__all__ = ["crlb_diag"]

# Smallest eigenvalue of D^-1/2 J D^-1/2 (D = diag J) below which an
# information J counts as rank-deficient: a numerically singular J can invert
# to finite values with a positive diagonal.  On five_sensor_offset_scale with
# one target, such matrices read about 1e-16 and observable ones 1e-9 or more.
RANK_TOL = 1e-12


def crlb_diag(J: np.ndarray) -> np.ndarray:
    """Diagonal of the inverse of every information matrix on the leading
    axes (variance lower bounds).

    An element has some bias component unobservable, and its row is NaN,
    when its information is singular, its inverse is not finite or has a
    non-positive variance (the inversion ran past the numerical rank), or
    its information scaled to unit diagonal has an eigenvalue below
    ``RANK_TOL`` (rank-deficient, whatever the inverse's rounding gives).
    """
    J = np.asarray(J, dtype=float)
    try:
        Jinv = np.linalg.inv(J)
    except np.linalg.LinAlgError:
        # Error path only: LAPACK stops the batch at its first singular element.
        singular = fails_alone(np.linalg.inv, J)
        Jinv = np.full_like(J, np.nan)
        Jinv[~singular] = np.linalg.inv(J[~singular])
    diag = np.diagonal(Jinv, axis1=-2, axis2=-1).copy()
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = 1.0 / np.sqrt(np.diagonal(J, axis1=-2, axis2=-1))
        unit = J * scale[..., :, None] * scale[..., None, :]
        # A zero, negative or non-finite diagonal leaves a non-finite scaled
        # matrix; its zero stand-in fails the rank test.
        unit[~np.isfinite(unit).all(axis=(-2, -1))] = 0.0
        lowest = np.linalg.eigvalsh(unit)[..., 0]
        bad = (
            ~np.isfinite(Jinv).all(axis=(-2, -1))
            | (diag <= 0.0).any(axis=-1)
            | (lowest < RANK_TOL)
        )
    diag[bad] = np.nan
    return diag
