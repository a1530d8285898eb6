"""Bias observations and the recursive estimators that consume them.

A bias pseudo-measurement is obtained by deconvolving a track update with the
(reconstructed or true) filter gain, which isolates the bias contribution plus
measurement noise, and differencing the result against a reference that is
free of the bias under estimation.  The recursive least-squares estimator
handles constant biases; its covariance update uses the Joseph form, which
preserves positive definiteness under ill-conditioned observation matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import mt, mv, solve_psd, symmetrize
from .coords import BiasJacobians
from .dynamics import MultiStepModel
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
    """Linear observation ``z = H b + w`` of a bias vector, cov(w) = R.

    ``z`` has shape (..., m), ``H`` (..., m, d) and ``R`` (..., m, m);
    leading axes index a batch of observations.
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
    model: MultiStepModel,
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
    return solve_psd(G, mt(W) @ resid[..., None], context="gain Gram matrix")[..., 0]


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
    """Recursive least-squares measurement update with Joseph-form covariance.

    The estimate and the pseudo-measurement may carry the same leading batch
    axes; each element is updated independently.

    Raises :class:`SingularMatrixError` naming the first element whose
    innovation covariance ``H Sigma H' + R`` cannot be inverted.
    """
    H = pm.H
    S = H @ est.Sigma @ mt(H) + pm.R
    SHt = est.Sigma @ mt(H)
    G = mt(solve_psd(mt(S), mt(SHt), context="pseudo-measurement innovation covariance"))
    b = est.b + mv(G, pm.z - mv(H, est.b))
    M = np.eye(est.dim) - G @ H
    Sigma = symmetrize(M @ est.Sigma @ mt(M) + G @ pm.R @ mt(G))
    return BiasEstimate(b=b, Sigma=Sigma)
