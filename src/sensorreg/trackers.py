"""Local trackers: linear Kalman filter and a two-model IMM estimator.

Trackers consume converted Cartesian position measurements and are
bias-ignorant: they model the measurement as position plus white noise.  The
Kalman update also exposes its gain and innovation so that an oracle
comparison path can consume the true gains.

Every tracker function accepts leading batch axes on its estimates and
measurements, so one call advances a whole batch of independent tracks; a
single track is the batch-free case of the same code.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from ._linalg import inv_spd2, mt, mv, symmetrize
from .coords import CartesianMeasurement
from .dynamics import MotionModel
from .errors import SingularMatrixError

__all__ = [
    "GaussianEstimate",
    "KfStepRecord",
    "ImmState",
    "kf_predict",
    "kf_update",
    "imm_step",
    "init_track",
]

# Initial track uncertainty used when a track is started from a single
# converted measurement with zero velocity.
INIT_POS_SIGMA = 200.0
INIT_VEL_SIGMA = 20.0

# Variance of the zero-mean accelerations that a mode without them carries
# in an IMM bank that has an accelerating mode.
ACCEL_PRIOR_VAR = 100.0


# Position/velocity indices [x, xdot, y, ydot] of the 6-dim state.
_POS_VEL = np.array([0, 1, 3, 4])


@dataclass
class GaussianEstimate:
    """State mean and covariance at an integer frame index.

    ``mean`` has shape (..., n) and ``cov`` (..., n, n); leading axes index
    a batch of independent estimates.  ``frame`` is shared, or an integer
    array broadcasting against the batch axes.
    """

    mean: np.ndarray
    cov: np.ndarray
    frame: int = 0

    def __post_init__(self) -> None:
        self.mean = np.asarray(self.mean, dtype=float)
        n = self.mean.shape[-1]
        self.cov = np.asarray(self.cov, dtype=float).reshape(self.mean.shape + (n,))

    @property
    def dim(self) -> int:
        return self.mean.shape[-1]

    def __getitem__(self, index) -> GaussianEstimate:
        """The estimates at ``index`` of the batch axes (``frame`` too when
        it is an array broadcasting against them)."""
        frame = self.frame
        if np.ndim(frame):
            frame = np.broadcast_to(frame, self.mean.shape[:-1])[index]
        return GaussianEstimate(mean=self.mean[index], cov=self.cov[index], frame=frame)


@dataclass
class KfStepRecord:
    """Gain, innovation, and the inverse and log-determinant of the
    innovation covariance of one Kalman update, with the batch axes of the
    updated estimate."""

    gain: np.ndarray
    innovation: np.ndarray
    innovation_inv: np.ndarray
    innovation_logdet: np.ndarray


def init_track(z: CartesianMeasurement, frame: int = 0) -> GaussianEstimate:
    """Start a track from a converted measurement with zero velocity (one
    track per measurement of a batch)."""
    mean = np.zeros(z.z.shape[:-1] + (4,))
    mean[..., ::2] = z.z
    cov = np.zeros(mean.shape + (4,))
    cov[...] = np.diag([INIT_POS_SIGMA**2, INIT_VEL_SIGMA**2] * 2)
    return GaussianEstimate(mean=mean, cov=cov, frame=frame)


def kf_predict(est: GaussianEstimate, model: MotionModel) -> GaussianEstimate:
    """Propagate mean and covariance through the model, advancing the frame
    by its ``steps``."""
    mean = mv(model.F, est.mean)
    # Matmul takes its BLAS path only for contiguous operands: on these
    # small stacks a transposed view costs about three times as much.
    cov = symmetrize(model.F @ est.cov @ np.ascontiguousarray(mt(model.F)) + model.Q)
    return GaussianEstimate(mean=mean, cov=cov, frame=est.frame + model.steps)


def kf_update(
    est: GaussianEstimate, z: CartesianMeasurement
) -> tuple[GaussianEstimate, KfStepRecord]:
    """Kalman position update with a Joseph-form covariance step.

    With H the position selector, (I - W H) P (I - W H)' + W R W' is formed
    through the position rows: L = P - W P[pos, :], then
    L - L[:, pos] W' + (W R) W', all from n x 2 products.  L comes first:
    expanded to P - A - A' + W S W', the same step drifts about twice as far
    from one update per measurement (``sfa``'s stated tolerance).  The batch
    axes of ``est`` and ``z`` broadcast against each other.
    """
    n = est.dim
    # Positions sit at indices 0 and n/2, so they are a strided slice.
    pos = slice(None, None, n // 2)
    P = est.cov
    nu = z.z - est.mean[..., pos]
    PHt = P[..., :, pos]
    S = PHt[..., pos, :] + z.R
    S_inv, det = inv_spd2(S, "innovation covariance")
    W = PHt @ S_inv
    mean = est.mean + mv(W, nu)
    # Contiguous, as F' in kf_predict.
    Wt = np.ascontiguousarray(mt(W))
    L = P - W @ P[..., pos, :]
    cov = symmetrize(L - L[..., :, pos] @ Wt + (W @ z.R) @ Wt)
    rec = KfStepRecord(gain=W, innovation=nu, innovation_inv=S_inv, innovation_logdet=np.log(det))
    return GaussianEstimate(mean=mean, cov=cov, frame=est.frame), rec


@dataclass
class ImmState:
    """Bank of mode-matched filters with Markov mode switching.

    ``modes`` holds every mode on its last batch axis: mean (..., n_modes, n)
    and covariance (..., n_modes, n, n), all in the state space of the
    largest model.  ``model`` propagates them with ``F`` and ``Q`` of shape
    (n_modes, n, n); the transition matrix rows are the switching
    probabilities out of each mode.  ``mode_probs`` is (..., n_modes), one
    simplex vector per bank; ``model`` and ``transition`` are shared.
    """

    modes: GaussianEstimate
    model: MotionModel
    mode_probs: np.ndarray
    transition: np.ndarray

    def __post_init__(self) -> None:
        # Copies, so that the state shares no array with its caller.
        self.mode_probs = np.array(self.mode_probs, dtype=float)
        n = self.model.F.shape[0]
        self.transition = np.array(self.transition, dtype=float).reshape(n, n)
        if self.modes.mean.shape[-2] != n or self.mode_probs.shape[-1] != n:
            raise ValueError("modes, models and mode_probs must have equal length")
        # Written so that a NaN fails every test.
        if not (
            np.all(self.mode_probs >= 0)
            and np.all(np.abs(self.mode_probs.sum(axis=-1) - 1.0) <= 1e-9)
        ):
            raise ValueError("mode probabilities must form a simplex vector")
        if not np.all(np.abs(self.transition.sum(axis=1) - 1.0) <= 1e-9):
            raise ValueError("transition matrix rows must sum to 1")

    @classmethod
    def from_track(
        cls,
        est: GaussianEstimate,
        models: list[MotionModel],
        mode_probs: np.ndarray,
        transition: np.ndarray,
    ) -> ImmState:
        """Start every mode from one (batched) track estimate.

        A 4-dim model in a bank with a 6-dim one gets zero acceleration rows
        in ``F`` and :data:`ACCEL_PRIOR_VAR` on the acceleration diagonal of
        ``Q``; its mode then carries zero-mean accelerations of that
        variance, uncorrelated with the rest, through every predict and
        update.  The track is embedded the same way.
        """
        n = max(m.dim for m in models)

        def lift(mat: np.ndarray, accel_var: float) -> np.ndarray:
            if mat.shape[-1] == n:
                return mat
            out = np.zeros(mat.shape[:-2] + (n, n))
            out[..., _POS_VEL[:, None], _POS_VEL] = mat
            out[..., 2, 2] = out[..., 5, 5] = accel_var
            return out

        mean = np.zeros(est.mean.shape[:-1] + (n,))
        mean[..., _POS_VEL if est.dim < n else slice(None)] = est.mean
        cov = lift(est.cov, ACCEL_PRIOR_VAR)
        modes = GaussianEstimate(
            mean=np.repeat(mean[..., None, :], len(models), axis=-2),
            cov=np.repeat(cov[..., None, :, :], len(models), axis=-3),
            frame=est.frame,
        )
        model = MotionModel(
            F=np.stack([lift(m.F, 0.0) for m in models]),
            Q=np.stack([lift(m.Q, ACCEL_PRIOR_VAR) for m in models]),
        )
        return cls(modes=modes, model=model, mode_probs=mode_probs, transition=transition)

    def _advanced(self, modes: GaussianEstimate, mode_probs: np.ndarray) -> ImmState:
        """This bank with new ``modes`` and ``mode_probs`` built by
        :func:`imm_step`, sharing ``model`` and ``transition``.  The checks
        on outside input that construction runs are not repeated."""
        state = copy.copy(self)
        state.modes, state.mode_probs = modes, mode_probs
        return state


def _gauss_loglik(rec: KfStepRecord) -> np.ndarray:
    """Gaussian log-likelihood of each innovation of a Kalman update, from
    the inverse and log-determinant the update already formed."""
    nu, S_inv = rec.innovation, rec.innovation_inv
    # nu' S^-1 as an elementwise sum over the rows of S^-1, then a matmul
    # dot product.  A matmul over the whole product takes a different
    # (fused multiply-add) BLAS path on contiguous operands than on strided
    # ones; this form rounds the same for either layout.
    row = nu[..., :1] * S_inv[..., 0, :] + nu[..., 1:] * S_inv[..., 1, :]
    maha = (row[..., None, :] @ nu[..., None])[..., 0, 0]
    return -0.5 * (maha + rec.innovation_logdet + nu.shape[-1] * math.log(2.0 * math.pi))


def _moments(weights: np.ndarray, est: GaussianEstimate) -> tuple[np.ndarray, np.ndarray]:
    """Moment-matched means and covariances of (batched) Gaussian mixtures
    of the components on the last batch axis of ``est``;
    ``weights[..., k, i]`` weighs component i in mixture k."""
    x = weights @ est.mean
    n = est.dim
    spread = est.mean[..., None, :, :] - x[..., :, None, :]
    P = (weights @ est.cov.reshape(est.cov.shape[:-2] + (n * n,))).reshape(x.shape + (n,))
    P += mt(weights[..., None] * spread) @ spread
    return x, symmetrize(P)


def imm_step(
    state: ImmState, z: CartesianMeasurement
) -> tuple[ImmState, GaussianEstimate]:
    """One IMM cycle: mix, mode-matched predict/update, reweight, combine.

    Returns the new bank state and the moment-matched combined estimate on
    the 4-dim position/velocity interface.  Every bank of a batch and every
    mode advances in the same call; a singular matrix is reported at the
    bank's batch index.
    """
    mu = state.mode_probs
    Pi = state.transition
    c_bar = mu @ Pi
    unreachable = (c_bar <= 0).any(axis=-1)
    if unreachable.any():
        raise SingularMatrixError("unreachable mode in IMM transition matrix", unreachable)

    # Mixed initial conditions; w[..., j, i] weighs source mode i in
    # destination mode j.
    w = Pi.T * mu[..., None, :] / c_bar[..., :, None]
    x0, P0 = _moments(w, state.modes)
    mixed = GaussianEstimate(mean=x0, cov=P0, frame=state.modes.frame)
    # Mode-matched predict and update, the measurement on a unit mode axis.
    z = CartesianMeasurement(z=z.z[..., None, :], R=z.R[..., None, :, :])
    try:
        modes, rec = kf_update(kf_predict(mixed, state.model), z)
    except SingularMatrixError as exc:
        raise SingularMatrixError(exc.reason, exc.failed.any(axis=-1)) from exc

    # Mode probability update (log-domain for underflow safety).
    log_mu = np.log(c_bar) + _gauss_loglik(rec)
    log_mu -= log_mu.max(axis=-1, keepdims=True)
    mu_new = np.exp(log_mu)
    mu_new /= mu_new.sum(axis=-1, keepdims=True)

    new_state = state._advanced(modes, mu_new)

    # Moment-matched combined output on the full mode state, then its
    # position/velocity rows: the 4-dim interface.
    x, P = _moments(mu_new[..., None, :], modes)
    x, P = x[..., 0, :], P[..., 0, :, :]
    if modes.dim == 6:
        x, P = x[..., _POS_VEL], P[..., _POS_VEL[:, None], _POS_VEL]
    combined = GaussianEstimate(mean=x, cov=P, frame=modes.frame)
    return new_state, combined
