"""Bias observations and the recursive estimators that consume them.

A bias pseudo-measurement is obtained by deconvolving a track update with the
(reconstructed or true) filter gain, which isolates the bias contribution plus
measurement noise, and differencing the result against a reference that is
free of the bias under estimation.  The recursive least-squares estimator
handles constant biases.  One update folds a whole stack of
pseudo-measurements (a sensor's targets of an epoch, say) as a single stacked
observation, and its covariance step uses the Joseph form, which preserves
positive definiteness under ill-conditioned observation matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import cholesky, inv_spd2, mt, mv, solve_psd, symmetrize
from .coords import BiasJacobians
from .dynamics import MotionModel
from .trackers import GaussianEstimate

__all__ = [
    "PseudoMeasurement",
    "BiasEstimate",
    "sensor_pseudo_obs",
    "difference_pseudo_measurement",
    "rlsb_update",
]


@dataclass
class PseudoMeasurement:
    """Linear position-level observation ``z = H b + w`` of a bias vector,
    cov(w) = R.

    ``z`` has shape (..., 2), ``H`` (..., 2, d) and ``R`` (..., 2, 2);
    leading axes index a batch of observations, the last of which
    :func:`rlsb_update` folds as one stack.
    """

    z: np.ndarray
    H: np.ndarray
    R: np.ndarray

    def __post_init__(self) -> None:
        self.z = np.asarray(self.z, dtype=float)
        self.H = np.asarray(self.H, dtype=float)
        self.R = np.asarray(self.R, dtype=float)


@dataclass
class BiasEstimate:
    """Bias estimate and covariance; 2 parameters for offsets only, 4 with
    scale factors.  ``b`` has shape (..., d) and ``Sigma`` (..., d, d), with
    leading axes for a batch of independent estimates (one per sensor)."""

    b: np.ndarray
    Sigma: np.ndarray

    def __post_init__(self) -> None:
        self.b = np.asarray(self.b, dtype=float)
        d = self.b.shape[-1]
        self.Sigma = np.asarray(self.Sigma, dtype=float).reshape(self.b.shape + (d,))

    @property
    def dim(self) -> int:
        return self.b.shape[-1]

    def __getitem__(self, index) -> BiasEstimate:
        """The estimates at ``index`` of the batch axes."""
        return BiasEstimate(b=self.b[index], Sigma=self.Sigma[index])


def sensor_pseudo_obs(
    curr: GaussianEstimate,
    prev: GaussianEstimate,
    gain: np.ndarray,
    model: MotionModel,
) -> np.ndarray:
    """Deconvolve track updates into measurement space.

    Applies the left pseudo-inverse of the gain to the difference between the
    updated state and its measurement-free propagation, recovering the
    (position-level) equivalent measurement the update responded to:
    ``W^+ [x(k|k) - (I - W H) F_L x(k'|k')]``.  The estimates, the gains
    (..., n, 2) and the model's ``F`` may carry leading batch axes; the
    result has shape (..., 2).

    Raises :class:`SingularMatrixError` naming the first rank-deficient gain.
    """
    W = np.asarray(gain, dtype=float)
    G = mt(W) @ W
    x_pred = mv(model.F, prev.mean)
    # Positions sit at indices 0 and dim/2, so H x is a strided slice.
    resid = curr.mean - x_pred + mv(W, x_pred[..., :: curr.dim // 2])
    G_inv, _ = inv_spd2(G, context="gain Gram matrix")
    return mv(G_inv, mv(mt(W), resid))


def difference_pseudo_measurement(
    z1: np.ndarray,
    z2: np.ndarray,
    jac: BiasJacobians,
    R1: np.ndarray,
    R2: np.ndarray,
    offset_only: bool = True,
) -> PseudoMeasurement:
    """Difference two deconvolved observations into a bias pseudo-measurement.

    ``z1`` comes from the bias-free reference and ``z2`` from the sensor
    under estimation, whose Jacobians evaluate the observation matrix
    ``H = -B C`` (restricted to the offset columns when ``offset_only``).
    The noise covariance is the sum of both sources' covariances.  Every
    argument may carry the same leading batch axes.

    The projection H H^+ through which the differenced term passes is the
    identity for the full-row-rank position-selection matrix H, so the
    result is a plain difference.
    """
    z = np.asarray(z1, dtype=float) - np.asarray(z2, dtype=float)
    cols = 2 if offset_only else 4
    Hcal = -jac.K[..., :cols]
    return PseudoMeasurement(z=z, H=Hcal, R=np.asarray(R1) + np.asarray(R2))


def rlsb_update(est: BiasEstimate, pm: PseudoMeasurement) -> BiasEstimate:
    """Recursive least-squares update that folds a stack of
    pseudo-measurements in one Joseph-form step.

    After the estimate's batch axes, ``pm`` carries an observation axis of
    length m: ``z`` (..., m, 2), ``H`` (..., m, 2, d), ``R`` (..., m, 2, 2);
    a single pseudo-measurement is the stack m = 1.  The m observations of
    an element form one 2m-vector with noise covariance ``blockdiag(R)``,
    so the fold equals m sequential updates up to rounding.  An observation
    with ``H = 0``, ``z = 0`` and ``R = I`` contributes nothing, which pads
    stacks of unequal length.

    Raises :class:`SingularMatrixError` naming the first element whose
    innovation covariance ``H Sigma H' + blockdiag(R)`` is not positive
    definite (NaN entries included).
    """
    m = pm.H.shape[-3]
    rows = pm.H.shape[:-3] + (2 * m,)
    H = pm.H.reshape(rows + (est.dim,))
    z = pm.z.reshape(rows)
    # blockdiag(R): R[..., j, a, c] lands at row 2j + a, column 2j + c.
    R = (pm.R[..., :, :, None, :] * np.eye(m)[:, None, :, None]).reshape(rows + (2 * m,))
    HSigma = H @ est.Sigma
    S = HSigma @ mt(H) + R
    context = "pseudo-measurement innovation covariance"
    # The factor only screens S: LU solves it faster than two triangular
    # solves would.
    cholesky(S, context=context)
    G = mt(solve_psd(S, HSigma, context=context))
    b = est.b + mv(G, z - mv(H, est.b))
    M = np.eye(est.dim) - G @ H
    Sigma = symmetrize(M @ est.Sigma @ mt(M) + G @ R @ mt(G))
    return BiasEstimate(b=b, Sigma=Sigma)
