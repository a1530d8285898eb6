"""Local trackers: linear Kalman filter and a two-model IMM estimator.

Trackers consume converted Cartesian position measurements and are
bias-ignorant: they model the measurement as position plus white noise.  The
Kalman update also exposes its gain and innovation so that an oracle
comparison path can consume the true gains.

An IMM cycle (:func:`imm_step`) predicts and updates every mode from the
mixed priors that the bank carries, reweights the modes, then runs one
moment-matching pass over the updated modes: its rows are the next cycle's
mixed priors and the combined output.  Mixing and output combination are
the same operation under different weights, so one pass serves both, and
its spread terms come from the pairwise differences of the mode means,
which no weight enters.

Every tracker function accepts leading batch axes on its estimates and
measurements, so one call advances a whole batch of independent tracks; a
single track is the batch-free case of the same code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._linalg import cofactor_inverse, det_spd2, mt, screen_spd2, singular, symmetrize
from .coords import CartesianMeasurement
from .dynamics import MotionModel
from .errors import SingularMatrixError, raise_first

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


def _wrap(cls, **fields):
    """An instance of the dataclass ``cls`` holding ``fields`` as given, for
    arrays a tracker function has just formed: the conversions and checks
    of construction would only repeat work on them."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


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
    """Gain and innovation of one Kalman update, with the batch axes of the
    updated estimate."""

    gain: np.ndarray
    innovation: np.ndarray


def init_track(z: CartesianMeasurement) -> GaussianEstimate:
    """Start a track at frame 0 from a converted measurement with zero
    velocity (one track per measurement of a batch)."""
    mean = np.zeros(z.z.shape[:-1] + (4,))
    mean[..., ::2] = z.z
    cov = np.zeros(mean.shape + (4,))
    cov[...] = np.diag([INIT_POS_SIGMA**2, INIT_VEL_SIGMA**2] * 2)
    return GaussianEstimate(mean=mean, cov=cov, frame=0)


def kf_predict(est: GaussianEstimate, model: MotionModel) -> GaussianEstimate:
    """Propagate mean and covariance through the model, advancing the frame
    by its ``steps``.

    Two products of rows times F' form it: the rows of P with the mean as
    one more row, then the rows of F P, which are those of P F' transposed
    (P is symmetric).  A transition shared by the batch (``F`` of shape
    (n, n)) takes each as one 2-D BLAS product over the whole batch, the
    means stacked below the covariance rows; per-element transitions, such
    as an IMM bank's per-mode ``F``, take the stacked product.  Every
    predicted entry is thus an entry of a matrix product, which BLAS rounds
    alike in a batch of any size and on either path (a matrix-vector
    product takes a kernel of its own), so an element predicts the same, bit
    for bit, alone or in any batch.  The result is not symmetrized:
    :func:`kf_update` does that once per step.
    """
    F, Ft, n = model.F, model.Ft, model.dim
    if F.ndim == 2:
        rows = est.cov.size // n
        PFt = np.concatenate([est.cov.reshape(-1, n), est.mean.reshape(-1, n)]) @ Ft
        mean = PFt[rows:].reshape(est.mean.shape)
        FP = mt(PFt[:rows].reshape(est.cov.shape))
        cov = (FP.reshape(-1, n) @ Ft).reshape(FP.shape)
        cov += model.Q
    else:
        mean, cov = _predict_rows(np.concatenate([est.cov, est.mean[..., None, :]], axis=-2), model)
    return _wrap(GaussianEstimate, mean=mean, cov=cov, frame=est.frame + model.steps)


def _predict_rows(rows: np.ndarray, model: MotionModel) -> tuple[np.ndarray, np.ndarray]:
    """:func:`kf_predict`'s stacked product on the rows [P; x'] (..., n + 1,
    n) of each estimate: the predicted means and covariances."""
    n, Ft = model.dim, model.Ft
    PFt = rows @ Ft
    cov = mt(PFt[..., :n, :]) @ Ft
    cov += model.Q
    return PFt[..., n, :], cov


def kf_update(
    est: GaussianEstimate, z: CartesianMeasurement
) -> tuple[GaussianEstimate, KfStepRecord]:
    """Kalman position update with a Joseph-form covariance step.

    With H the position selector, (I - W H) P (I - W H)' + W R W' is formed
    through the position rows: L = P - W P[pos, :], then
    L - (L[:, pos] - W R) W', all from n x 2 products.  L comes first:
    expanded to P - A - A' + W S W', the same step drifts about twice as far
    from one update per measurement (``sfa``'s stated tolerance).  The
    result is symmetrized, the one symmetrization of a predict-update step.
    The batch axes of ``est`` and ``z`` broadcast against each other.
    """
    mean, cov, W, nu, _, _ = _update(est.mean, est.cov, z.z, z.R)
    return _wrap(GaussianEstimate, mean=mean, cov=cov, frame=est.frame), KfStepRecord(W, nu)


def _update(x: np.ndarray, P: np.ndarray, z: np.ndarray, R: np.ndarray) -> tuple:
    """:func:`kf_update` on arrays: the updated mean and covariance, then
    the gain, the innovation, and the inverse and determinant of the
    innovation covariance.  The 2x2 test of the innovation covariances
    forms its mask only when a batch fails it."""
    n = P.shape[-1]
    # Positions sit at indices 0 and n/2, so they are a strided slice.
    pos = slice(None, None, n // 2)
    nu = z - x[..., pos]
    PHt = P[..., :, pos]
    S = PHt[..., pos, :] + R
    det, ok = screen_spd2(S)
    if not ok:
        raise_first([singular("innovation covariance", S, ~det_spd2(S)[1])], SingularMatrixError)
    S_inv = cofactor_inverse(S, det)
    W = PHt @ S_inv
    x = x + np.einsum("...ij,...j->...i", W, nu)
    # Contiguous, as F' in kf_predict.
    Wt = np.ascontiguousarray(mt(W))
    L = P - W @ P[..., pos, :]
    L -= (L[..., :, pos] - W @ R) @ Wt
    return x, symmetrize(L), W, nu, S_inv, det


@dataclass
class ImmState:
    """Bank of mode-matched filters with Markov mode switching.

    ``modes`` holds every mode's updated estimate on its last batch axis:
    mean (..., n_modes, n) and covariance (..., n_modes, n, n), all in the
    state space of the largest model.  ``model`` propagates them with ``F``
    and ``Q`` of shape (n_modes, n, n); the transition matrix rows are the
    switching probabilities out of each mode.  ``mode_probs`` is
    (..., n_modes), one simplex vector per bank; ``model`` and
    ``transition`` are shared.

    The bank also carries the next cycle's start: ``mixed_rows``, each
    mode's mixed prior as the rows [P; x'] (..., n_modes, n + 1, n) that
    the prediction multiplies, and ``mixed_probs``, the predicted mode
    probabilities c = mode_probs @ transition.  Construction forms them;
    :func:`imm_step` forms the next ones in the pass that gives its
    combined output.  A mode with c = 0 raises :class:`SingularMatrixError`
    marking its bank.
    """

    modes: GaussianEstimate
    model: MotionModel
    mode_probs: np.ndarray
    transition: np.ndarray
    mixed_rows: np.ndarray = field(init=False)
    mixed_probs: np.ndarray = field(init=False)

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
        self.mixed_probs, rows = _mix(self.modes, self.mode_probs, self.transition)
        self.mixed_rows = rows[..., :n, :, :]

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


def _moments(weights: np.ndarray, est: GaussianEstimate) -> np.ndarray:
    """Moment-matched means and covariances of (batched) Gaussian mixtures
    of the components on the last batch axis of ``est``, as the rows
    [P; x'] (..., mixtures, n + 1, n) of each; ``weights[..., k, i]``
    weighs component i in mixture k, each row summing to one.

    For such weights the spread term sum_i w_i s_i s_i' about the mixture
    mean equals sum_{i<j} w_i w_j d_ij d_ij' over the differences d_ij of
    the component means, which no weight enters: one outer product per
    component pair serves every mixture.  Each mixture is then one weighted
    sum, a row of one matrix product, of the component rows [C_i; m_i'] and
    the pair rows [d_ij d_ij'; 0], and its covariance, a sum of symmetric
    terms, is symmetric as formed.
    """
    mean, n = est.mean, est.dim
    m = mean.shape[-2]
    rows = np.empty(est.cov.shape[:-3] + (m * (m + 1) // 2, n + 1, n))
    rows[..., :m, :n, :] = est.cov
    rows[..., :m, n, :] = mean
    rows[..., m:, n, :] = 0.0
    # Pairs (i, j > i) in row-major order, a slice of j per i.
    pair_w, first = [weights], m
    for i in range(m - 1):
        d = mean[..., i : i + 1, :] - mean[..., i + 1 :, :]
        last = first + m - 1 - i
        np.einsum("...i,...j->...ij", d, d, out=rows[..., first:last, :n, :])
        pair_w.append(weights[..., i : i + 1] * weights[..., i + 1 :])
        first = last
    mixed = np.concatenate(pair_w, axis=-1) @ rows.reshape(rows.shape[:-2] + (-1,))
    return mixed.reshape(mixed.shape[:-1] + (n + 1, n))


def _mix(
    modes: GaussianEstimate, mu: np.ndarray, transition: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """One moment-matching pass over ``modes``: the predicted mode
    probabilities c = mu @ transition of the next cycle, and the rows
    [P; x'] of each destination mode's mixed prior followed by those of the
    mixture under ``mu`` itself (the combined estimate).

    Raises :class:`SingularMatrixError` marking every bank with a mode that
    c leaves unreachable (every bank of ``modes`` when ``mu`` is shared).
    """
    c_bar = mu @ transition
    if (c_bar <= 0).any():
        unreachable = (c_bar <= 0).any(axis=-1) & np.ones(modes.mean.shape[:-2], dtype=bool)
        raise SingularMatrixError("unreachable mode in IMM transition matrix", unreachable)
    # w[..., j, i] weighs source mode i in destination mode j.
    w = transition.T * mu[..., None, :] / c_bar[..., :, None]
    return c_bar, _moments(np.concatenate([w, mu[..., None, :]], axis=-2), modes)


def imm_step(
    state: ImmState, z: CartesianMeasurement
) -> tuple[ImmState, GaussianEstimate]:
    """One IMM cycle: mode-matched predict and update from the mixed priors
    the bank carries, reweight, then one moment-matching pass over the
    updated modes that gives the next cycle's mixed priors and the combined
    output.

    The prediction multiplies the rows that the last pass formed, and each
    mode's likelihood reads the inverse and determinant that its update
    formed.

    Returns the new bank state and the combined estimate on the 4-dim
    position/velocity interface.  Every bank of a batch and every mode
    advances in the same call; a singular matrix, or a mode that the new
    mode probabilities leave unreachable in the next cycle, is reported at
    the bank's batch index.
    """
    model = state.model
    # Mode-matched predict and update, the measurement on a unit mode axis.
    try:
        mean, cov, _, nu, S_inv, det = _update(
            *_predict_rows(state.mixed_rows, model), z.z[..., None, :], z.R[..., None, :, :]
        )
    except SingularMatrixError as exc:
        raise SingularMatrixError(exc.reason, exc.failed.any(axis=-1)) from exc
    modes = _wrap(GaussianEstimate, mean=mean, cov=cov, frame=state.modes.frame + model.steps)

    # Mode probability update (log-domain for underflow safety), with each
    # mode's Gaussian log-likelihood of its innovation.  The quadratic form
    # is nu' S^-1 as a sum over the rows of S^-1, then a matmul dot
    # product: a matmul over the whole product takes a different (fused
    # multiply-add) BLAS path on contiguous operands than on strided ones,
    # and any other rounding of the form moves the mode probabilities by
    # about |nu' S^-1 nu| units in the last place.
    row = np.einsum("...i,...ij->...j", nu, S_inv)
    maha = (row[..., None, :] @ nu[..., None])[..., 0, 0]
    loglik = -0.5 * (maha + np.log(det) + nu.shape[-1] * math.log(2.0 * math.pi))
    log_mu = np.log(state.mixed_probs) + loglik
    # The mode axis is short: an elementwise maximum per mode finds each
    # bank's largest term faster than a reduction along it.
    m = log_mu.shape[-1]
    top = log_mu[..., 0]
    for i in range(1, m):
        top = np.maximum(top, log_mu[..., i])
    mu = np.exp(log_mu - top[..., None])
    mu /= mu.sum(axis=-1, keepdims=True)

    c_bar, rows = _mix(modes, mu, state.transition)
    n = modes.dim
    new_state = _wrap(
        ImmState,
        modes=modes,
        model=model,
        mode_probs=mu,
        transition=state.transition,
        mixed_rows=rows[..., :m, :, :],
        mixed_probs=c_bar,
    )
    # The combined output on the full mode state, then its position/velocity
    # rows: the 4-dim interface.
    x, P = rows[..., m, n, :], rows[..., m, :n, :]
    if n == 6:
        x, P = x[..., _POS_VEL], P[..., _POS_VEL[:, None], _POS_VEL]
    return new_state, _wrap(GaussianEstimate, mean=x, cov=P, frame=modes.frame)
