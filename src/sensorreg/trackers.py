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

import math
from dataclasses import dataclass

import numpy as np

from ._linalg import first_index, inv_spd2, mt, mv, symmetrize
from .coords import CartesianMeasurement
from .dynamics import MotionModel, MultiStepModel
from .errors import SingularMatrixError

__all__ = [
    "GaussianEstimate",
    "KfStepRecord",
    "ImmState",
    "position_selector",
    "kf_predict",
    "kf_update",
    "imm_step",
    "init_track",
    "marginal_position_velocity",
]

# Initial track uncertainty used when a track is started from a single
# converted measurement with zero velocity.
INIT_POS_SIGMA = 200.0
INIT_VEL_SIGMA = 20.0


def position_selector(dim: int) -> np.ndarray:
    """Measurement matrix selecting (x, y) from a 4- or 6-dim state."""
    if dim == 4:
        idx = (0, 2)
    elif dim == 6:
        idx = (0, 3)
    else:
        raise ValueError(f"unsupported state dimension {dim}")
    H = np.zeros((2, dim))
    H[0, idx[0]] = 1.0
    H[1, idx[1]] = 1.0
    return H


def _position_indices(dim: int) -> tuple[int, int]:
    return (0, 2) if dim == 4 else (0, 3)


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

    def position(self) -> np.ndarray:
        i, j = _position_indices(self.dim)
        return self.mean[..., [i, j]]

    def __getitem__(self, index) -> GaussianEstimate:
        """The estimates at ``index`` of the batch axes (``frame`` too when
        it is an array broadcasting against them)."""
        frame = self.frame
        if np.ndim(frame):
            frame = np.broadcast_to(frame, self.mean.shape[:-1])[index]
        return GaussianEstimate(mean=self.mean[index], cov=self.cov[index], frame=frame)


@dataclass
class KfStepRecord:
    """Gain, innovation, its covariance (with that covariance's inverse and
    log-determinant) and the predicted measurement of one Kalman update,
    with the batch axes of the updated estimate."""

    gain: np.ndarray
    innovation: np.ndarray
    innovation_cov: np.ndarray
    innovation_inv: np.ndarray
    innovation_logdet: np.ndarray
    predicted_meas: np.ndarray


def init_track(
    z: CartesianMeasurement,
    frame: int = 0,
    pos_sigma: float = INIT_POS_SIGMA,
    vel_sigma: float = INIT_VEL_SIGMA,
) -> GaussianEstimate:
    """Start a track from a converted measurement with zero velocity (one
    track per measurement of a batch)."""
    mean = np.zeros(z.z.shape[:-1] + (4,))
    mean[..., ::2] = z.z
    cov = np.zeros(mean.shape + (4,))
    cov[...] = np.diag([pos_sigma**2, vel_sigma**2, pos_sigma**2, vel_sigma**2])
    return GaussianEstimate(mean=mean, cov=cov, frame=frame)


def kf_predict(est: GaussianEstimate, model: MotionModel | MultiStepModel) -> GaussianEstimate:
    """Propagate mean and covariance through the model."""
    steps = model.steps if isinstance(model, MultiStepModel) else 1
    mean = mv(model.F, est.mean)
    cov = symmetrize(model.F @ est.cov @ mt(model.F) + model.Q)
    return GaussianEstimate(mean=mean, cov=cov, frame=est.frame + steps)


def kf_update(
    est: GaussianEstimate, z: CartesianMeasurement
) -> tuple[GaussianEstimate, KfStepRecord]:
    """Kalman position update with a Joseph-form covariance step.

    The batch axes of ``est`` and ``z`` broadcast against each other.
    """
    n = est.dim
    H = position_selector(n)
    pos = list(_position_indices(n))
    z_pred = est.mean[..., pos]
    nu = z.z - z_pred
    PHt = est.cov[..., :, pos]
    S = PHt[..., pos, :] + z.R
    S_inv, logdet = inv_spd2(S, "innovation covariance")
    W = PHt @ S_inv
    mean = est.mean + mv(W, nu)
    M = np.eye(n) - W @ H
    cov = symmetrize(M @ est.cov @ mt(M) + W @ z.R @ mt(W))
    rec = KfStepRecord(
        gain=W,
        innovation=nu,
        innovation_cov=S,
        innovation_inv=S_inv,
        innovation_logdet=logdet,
        predicted_meas=z_pred,
    )
    return GaussianEstimate(mean=mean, cov=cov, frame=est.frame), rec


_POS_VEL = np.array([0, 1, 3, 4])


def marginal_position_velocity(est: GaussianEstimate) -> GaussianEstimate:
    """Marginalize a 6-dim (with accelerations) estimate to [x, xdot, y, ydot]."""
    if est.dim == 4:
        return est
    mean, cov = _embed(est.mean, est.cov, 6, 4, 0.0)
    return GaussianEstimate(mean=mean, cov=cov, frame=est.frame)


def _embed(est_mean, est_cov, from_dim: int, to_dim: int, accel_var: float):
    """Map a (batched) mode estimate between 4- and 6-dim state spaces."""
    if from_dim == to_dim:
        return est_mean, est_cov
    idx = _POS_VEL
    if from_dim == 6 and to_dim == 4:
        return est_mean[..., idx], est_cov[..., idx[:, None], idx]
    if from_dim == 4 and to_dim == 6:
        batch = est_mean.shape[:-1]
        mean = np.zeros(batch + (6,))
        mean[..., idx] = est_mean
        cov = np.zeros(batch + (6, 6))
        cov[..., idx[:, None], idx] = est_cov
        cov[..., 2, 2] = accel_var
        cov[..., 5, 5] = accel_var
        return mean, cov
    raise ValueError(f"cannot map dimension {from_dim} to {to_dim}")


@dataclass
class ImmState:
    """Bank of mode-matched filters with Markov mode switching.

    ``models[i]`` propagates ``modes[i]``; the transition matrix rows are the
    switching probabilities out of each mode.  Modes of different state
    dimension (e.g. an accelerating mode) are mixed by embedding the smaller
    state with ``accel_prior_var`` on the unmodeled acceleration components.

    The modes and ``mode_probs`` (..., n_modes) may carry leading batch axes
    (one bank per element); ``models`` and ``transition`` are shared.
    """

    modes: list[GaussianEstimate]
    models: list[MotionModel]
    mode_probs: np.ndarray
    transition: np.ndarray
    accel_prior_var: float = 100.0

    def __post_init__(self) -> None:
        # Copies, so that no two states share (and can edit) these arrays.
        self.mode_probs = np.array(self.mode_probs, dtype=float)
        n = len(self.modes)
        self.transition = np.array(self.transition, dtype=float).reshape(n, n)
        if len(self.models) != n or self.mode_probs.shape[-1] != n:
            raise ValueError("modes, models and mode_probs must have equal length")
        if np.any(self.mode_probs < 0) or np.any(
            np.abs(self.mode_probs.sum(axis=-1) - 1.0) > 1e-9
        ):
            raise ValueError("mode probabilities must form a simplex vector")
        if not np.allclose(self.transition.sum(axis=1), 1.0, atol=1e-9):
            raise ValueError("transition matrix rows must sum to 1")

    @classmethod
    def from_track(
        cls,
        est: GaussianEstimate,
        models: list[MotionModel],
        mode_probs: np.ndarray,
        transition: np.ndarray,
    ) -> ImmState:
        """Start every mode from one (batched) track estimate, embedded into
        the mode's state space."""
        modes = [
            GaussianEstimate(
                *_embed(est.mean, est.cov, est.dim, m.dim, cls.accel_prior_var),
                frame=est.frame,
            )
            for m in models
        ]
        return cls(modes=modes, models=models, mode_probs=mode_probs, transition=transition)


def _gauss_loglik(rec: KfStepRecord) -> np.ndarray:
    """Gaussian log-likelihood of each innovation of a Kalman update, from
    the inverse and log-determinant the update already formed."""
    nu = rec.innovation
    # matmul, not an elementwise product and sum, for the same reason as in
    # ``mv``: it rounds like the batch-free dot product.
    maha = (nu[..., None, :] @ rec.innovation_inv @ nu[..., None])[..., 0, 0]
    return -0.5 * (maha + rec.innovation_logdet + nu.shape[-1] * math.log(2.0 * math.pi))


def _moments(weights: np.ndarray, means: list, covs: list) -> tuple[np.ndarray, np.ndarray]:
    """Moment-matched mean and covariance of a (batched) Gaussian mixture;
    ``weights[..., i]`` weighs ``means[i]`` and ``covs[i]``."""
    x = sum(weights[..., i, None] * m for i, m in enumerate(means))
    P = sum(
        weights[..., i, None, None] * (P_i + (m - x)[..., :, None] * (m - x)[..., None, :])
        for i, (m, P_i) in enumerate(zip(means, covs))
    )
    return x, symmetrize(P)


def imm_step(
    state: ImmState, z: CartesianMeasurement
) -> tuple[ImmState, GaussianEstimate]:
    """One IMM cycle: mix, mode-matched predict/update, reweight, combine.

    Returns the new bank state and the moment-matched combined estimate on
    the 4-dim position/velocity interface.  Every bank of a batch advances
    in the same call.
    """
    mu = state.mode_probs
    Pi = state.transition
    c_bar = mu @ Pi
    if np.any(c_bar <= 0):
        raise SingularMatrixError(
            "unreachable mode in IMM transition matrix",
            index=first_index(np.any(c_bar <= 0, axis=-1)),
        )

    # Mixed initial conditions per destination mode; w[..., i, j] weighs
    # source mode i in destination mode j.
    w = Pi * mu[..., :, None] / c_bar[..., None, :]
    new_modes: list[GaussianEstimate] = []
    logliks = []
    for j, model in enumerate(state.models):
        means, covs = zip(
            *(_embed(m.mean, m.cov, m.dim, model.dim, state.accel_prior_var) for m in state.modes)
        )
        x0, P0 = _moments(w[..., j], means, covs)
        mixed = GaussianEstimate(mean=x0, cov=P0, frame=state.modes[j].frame)
        # Mode-matched predict and update.
        upd, rec = kf_update(kf_predict(mixed, model), z)
        logliks.append(_gauss_loglik(rec))
        new_modes.append(upd)

    # Mode probability update (log-domain for underflow safety).
    log_mu = np.log(c_bar) + np.stack(logliks, axis=-1)
    log_mu -= log_mu.max(axis=-1, keepdims=True)
    mu_new = np.exp(log_mu)
    mu_new /= mu_new.sum(axis=-1, keepdims=True)

    new_state = ImmState(
        modes=new_modes,
        models=state.models,
        mode_probs=mu_new,
        transition=Pi,
        accel_prior_var=state.accel_prior_var,
    )

    # Moment-matched combined output on the 4-dim interface.
    outs = [marginal_position_velocity(m) for m in new_modes]
    x, P = _moments(mu_new, [o.mean for o in outs], [o.cov for o in outs])
    combined = GaussianEstimate(mean=x, cov=P, frame=outs[0].frame)
    return new_state, combined
