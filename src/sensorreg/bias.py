"""Bias observations and the recursive estimators that consume them.

A bias pseudo-measurement is obtained by deconvolving a track update with the
(reconstructed or true) filter gain, which isolates the bias contribution plus
measurement noise, and differencing the result against a reference that is
free of the bias under estimation.  Every estimator takes a stack of them as
its :func:`bias_information`: :func:`rlsb_update` folds it into an estimate
in a Joseph-form step, which stays positive definite under ill-conditioned
observation matrices, and ``ex``/``exl`` sum it over frames.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import cholesky, det_spd2, inv_spd2_masked, mt, mv, singular, solve_psd, symmetrize
from .coords import BiasJacobians
from .trackers import GaussianEstimate

__all__ = [
    "PseudoMeasurement",
    "BiasEstimate",
    "sensor_pseudo_obs",
    "difference_pseudo_measurement",
    "pseudo_measurement_faults",
    "bias_information",
    "rlsb_update",
]


@dataclass
class PseudoMeasurement:
    """Linear position-level observation ``z = H b + w`` of a bias vector,
    cov(w) = R.

    ``z`` has shape (..., 2), ``H`` (..., 2, d) and ``R`` (..., 2, 2);
    leading axes index a batch of observations, the last of which
    :func:`bias_information` sums as one stack.
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
    curr: GaussianEstimate, pred: GaussianEstimate, gain: np.ndarray
) -> tuple[np.ndarray, list]:
    """Deconvolve track updates into measurement space.

    Applies the left pseudo-inverse of the gain to the difference between the
    updated state and its measurement-free propagation, recovering the
    (position-level) equivalent measurement the update responded to:
    ``W^+ [x(k|k) - (I - W H) x(k|k')]``, with ``x(k|k')`` the mean of the
    L-step prediction ``pred``.  The estimates and the gains (..., n, 2) may
    carry leading batch axes; the result has shape (..., 2).

    Returns the observations and their one check: the gain Gram matrix
    ``W'W`` singular, whose element holds a stand-in.
    """
    W = np.asarray(gain, dtype=float)
    G = mt(W) @ W
    # Positions sit at indices 0 and dim/2, so H x is a strided slice.
    resid = curr.mean - pred.mean + mv(W, pred.mean[..., :: curr.dim // 2])
    G_inv, ok = inv_spd2_masked(G)
    return mv(G_inv, mv(mt(W), resid)), [singular("gain Gram matrix", G, ~ok)]


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


def pseudo_measurement_faults(pm: PseudoMeasurement) -> list[tuple[str, np.ndarray]]:
    """The checks that :func:`bias_information` needs its input to pass, in
    order, each as its reason and the mask, over the batch axes of ``pm``,
    of the pseudo-measurements that fail it: ``R`` not positive definite,
    then ``z`` or ``H`` not finite."""
    return [
        ("pseudo-measurement covariance not positive definite", ~det_spd2(pm.R)[1]),
        (
            "pseudo-measurement not finite",
            ~(np.isfinite(pm.z).all(axis=-1) & np.isfinite(pm.H).all(axis=(-2, -1))),
        ),
    ]


def bias_information(pm: PseudoMeasurement) -> tuple[np.ndarray, np.ndarray]:
    """Bias information ``(sum_j H_j' R_j^-1 H_j, sum_j H_j' R_j^-1 z_j)``,
    (..., d, d) and (..., d), of each stack on axis -3 of ``pm``, its 2m
    observations the rows of one matmul.  The pseudo-measurements must pass
    :func:`pseudo_measurement_faults`, which the callers screen."""
    R_inv, _ = inv_spd2_masked(pm.R)
    rows = pm.H.shape[:-3] + (2 * pm.H.shape[-3], pm.H.shape[-1])
    Ht = mt(pm.H.reshape(rows))
    return Ht @ (R_inv @ pm.H).reshape(rows), mv(Ht, mv(R_inv, pm.z).reshape(rows[:-1]))


def rlsb_update(est: BiasEstimate, pm: PseudoMeasurement) -> tuple[BiasEstimate, list]:
    """Recursive least-squares update that folds a stack of
    pseudo-measurements in one Joseph-form step.

    After the estimate's batch axes, ``pm`` carries an observation axis of
    length m (a single pseudo-measurement is the stack m = 1), whose
    pseudo-measurements pass :func:`pseudo_measurement_faults`.  The stack
    enters as the :func:`bias_information` ``(J, j)`` of its innovations
    ``z - H b``, so every matrix the update solves or factors is d x d:
    ``Sigma+ = L (I + L' J L)^-1 L'`` for the Cholesky factor ``L`` of
    ``Sigma``, ``b+ = b + Sigma+ j``, and the Joseph form
    ``M Sigma M' + Sigma+ J Sigma+'`` for ``M = I - Sigma+ J``.  The fold
    equals m sequential updates up to rounding; an observation with
    ``H = 0``, ``z = 0`` and ``R = I`` contributes nothing, which pads
    stacks of unequal length.

    Returns the estimate and its checks, over the estimate's batch axes, in
    order: the incoming, then the updated bias covariance, not positive
    definite.  An estimate that fails the first folds from a stand-in.
    """
    L, ok_in = cholesky(est.Sigma)
    # Innovations in place of z spare b+ the cancellation of j_z - J b.
    innovations = PseudoMeasurement(z=pm.z - mv(pm.H, est.b[..., None, :]), H=pm.H, R=pm.R)
    info, info_z = bias_information(innovations)
    post = L @ solve_psd(np.eye(est.dim) + mt(L) @ info @ L, mt(L))
    M = np.eye(est.dim) - post @ info
    Sigma = symmetrize(M @ est.Sigma @ mt(M) + post @ info @ mt(post))
    _, ok_out = cholesky(Sigma)
    reason = "bias covariance is not positive definite"
    return BiasEstimate(b=est.b + mv(post, info_z), Sigma=Sigma), [
        (reason, ~ok_in),
        (reason, ~ok_out),
    ]
