"""Fisher information and lower bounds for bias parameters.

The bias observation is linear-Gaussian, so the information matrix is the
block sum g' R^-1 g over all (target, frame) observation blocks, and the
bound on any unbiased estimator's variance is the diagonal of its inverse.
Every function works on a batch of blocks on the leading axes; a running
sum of the blocks over time gives bound-versus-time curves.  The noise of
every block is a 2x2 Cartesian position covariance, inverted in closed form
(:func:`_linalg.inv_spd2`); only the d x d information inverse of
:func:`crlb_diag` goes through LAPACK.
"""

from __future__ import annotations

import numpy as np

from ._linalg import fails_alone, inv_spd2, mt, symmetrize

__all__ = ["fisher_information", "combine_sensors", "crlb_diag"]

# Smallest eigenvalue of D^-1/2 J D^-1/2 (D = diag J) below which an
# information J counts as rank-deficient: a numerically singular J can invert
# to finite values with a positive diagonal.  On five_sensor_offset_scale with
# one target, such matrices read about 1e-16 and observable ones 1e-9 or more.
RANK_TOL = 1e-12


def fisher_information(jac: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """Information g' R^-1 g of every observation block on the leading axes,
    for Jacobians ``jac`` (..., 2, d) and noise covariances ``noise``
    (..., 2, 2).

    A noise covariance that is not positive definite raises
    :class:`SingularMatrixError` naming its batch index.
    """
    jac = np.asarray(jac, dtype=float)
    W, _ = inv_spd2(np.asarray(noise, dtype=float), context="noise covariance")
    return mt(jac) @ (W @ jac)


def combine_sensors(noises: np.ndarray, mask: np.ndarray, target_noise: np.ndarray) -> np.ndarray:
    """Noise covariance of the difference between one sensor and the
    equivalent sensor that collapses the others.

    ``noises`` (..., n, 2, 2) holds n sensors' covariances on axis -3 and
    ``mask`` (..., n) marks the ones to combine.  The equivalent sensor is
    their information-weighted combination, with covariance equal to the
    inverse of their summed informations (added in ascending sensor order);
    the result adds the excluded sensor's ``target_noise`` (..., 2, 2).
    Every covariance in ``noises`` is inverted, masked or not.
    """
    info, _ = inv_spd2(np.asarray(noises, dtype=float), context="sensor noise covariance")
    mask = np.asarray(mask, dtype=bool)[..., None, None]
    Lam = np.zeros(np.broadcast_shapes(info.shape, mask.shape)[:-3] + info.shape[-2:])
    for i in range(info.shape[-3]):
        Lam += np.where(mask[..., i, :, :], info[..., i, :, :], 0.0)
    R_comb, _ = inv_spd2(Lam, context="combined information")
    return symmetrize(R_comb + target_noise)


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
