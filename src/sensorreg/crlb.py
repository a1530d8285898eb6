"""Fisher information and lower bounds for bias parameters.

The bias observation is linear-Gaussian, so the information matrix is the
block sum g' R^-1 g over all (target, frame) observation blocks, and the
bound on any unbiased estimator's variance is the diagonal of its inverse.
Every function works on a batch of blocks on the leading axes; a running
sum of the blocks over time gives bound-versus-time curves.
"""

from __future__ import annotations

import numpy as np

from ._linalg import fails_alone, inv_sym, mt, solve_psd, symmetrize

__all__ = ["fisher_information", "combine_sensors", "crlb_diag"]


def fisher_information(jac: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """Information g' R^-1 g of every observation block on the leading axes,
    for Jacobians ``jac`` (..., m, d) and noise covariances ``noise``
    (..., m, m).

    A singular noise covariance raises :class:`SingularMatrixError` naming
    its batch index.
    """
    jac = np.asarray(jac, dtype=float)
    return mt(jac) @ solve_psd(noise, jac, context="noise covariance")


def combine_sensors(noises: np.ndarray, mask: np.ndarray, target_noise: np.ndarray) -> np.ndarray:
    """Noise covariance of the difference between one sensor and the
    equivalent sensor that collapses the others.

    ``noises`` (..., n, m, m) holds n sensors' covariances on axis -3 and
    ``mask`` (..., n) marks the ones to combine.  The equivalent sensor is
    their information-weighted combination, with covariance equal to the
    inverse of their summed informations (added in ascending sensor order);
    the result adds the excluded sensor's ``target_noise`` (..., m, m).
    Every covariance in ``noises`` is inverted, masked or not.
    """
    info = inv_sym(np.asarray(noises, dtype=float), context="sensor noise covariance")
    mask = np.asarray(mask, dtype=bool)[..., None, None]
    Lam = np.zeros(np.broadcast_shapes(info.shape, mask.shape)[:-3] + info.shape[-2:])
    for i in range(info.shape[-3]):
        Lam += np.where(mask[..., i, :, :], info[..., i, :, :], 0.0)
    R_comb = inv_sym(Lam, context="combined information")
    return symmetrize(R_comb + target_noise)


def crlb_diag(J: np.ndarray) -> np.ndarray:
    """Diagonal of the inverse of every information matrix on the leading
    axes (variance lower bounds).

    An element whose information is singular, whose inverse is not finite,
    or whose inverse has a non-positive variance (the inversion ran past the
    numerical rank) has some bias component unobservable; its row is NaN.
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
    with np.errstate(invalid="ignore"):
        bad = ~np.isfinite(Jinv).all(axis=(-2, -1)) | (diag <= 0.0).any(axis=-1)
    diag[bad] = np.nan
    return diag
