"""Fusion-center pipeline: gain reconstruction, bias correction, sequential
fusion, and the per-frame fused bias estimation step.

The fusion center receives only state estimates and covariances at
(possibly sparse) reporting epochs.  From each report pair it forms a
tracklet, reconstructs the equivalent measurement noise and filter gain,
and deconvolves the update into a bias observation.  Each sensor's bias is
estimated against a leave-one-out fused reference built from all other
sensors' bias-corrected tracklets, which reduces the multisensor problem to
a sequence of two-sensor problems with a single biased side.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass, field

import numpy as np

from ._linalg import first_index, inv_sym, mt, solve_psd, symmetrize
from .bias import (
    BiasEstimate,
    PseudoMeasurement,
    difference_pseudo_measurement,
    rlsb_update,
    sensor_pseudo_obs,
)
from .coords import (
    CartesianMeasurement,
    cart_to_polar,
    jacobians_at,
    polar_to_cart,
    wrap_angle,
)
from .dynamics import MotionModel, MultiStepModel, compose_lags, compose_steps
from .errors import NumericalError, SingularMatrixError, at_index
from .trackers import GaussianEstimate, kf_predict, kf_update
from .tracklets import Tracklet, compute_tracklet

__all__ = [
    "ReconstructedGain",
    "CorrectedMeasurement",
    "FusedTrack",
    "SensorModel",
    "FbeResult",
    "reconstruct_local_gain",
    "bias_correct",
    "sfa",
    "fbe_step",
]

log = logging.getLogger(__name__)


@dataclass
class ReconstructedGain:
    """Equivalent measurement noise, filter gain and (for local tracks) the
    position-level equivalent measurement recovered from a tracklet."""

    W: np.ndarray
    R: np.ndarray
    y: np.ndarray | None = None


@dataclass
class CorrectedMeasurement:
    """Bias-corrected position measurements ``y`` (..., 2) with inflated
    covariances ``R`` (..., 2, 2)."""

    y: np.ndarray
    R: np.ndarray


@dataclass
class FusedTrack:
    """Fused state estimates plus the measurements that contributed to them.

    ``sensors`` is a boolean mask (..., m) over the m measurement slots of
    the :func:`sfa` call that produced the track; callers that give one slot
    per sensor read it as a sensor mask.
    """

    state: GaussianEstimate
    sensors: np.ndarray | tuple = ()


@dataclass
class SensorModel:
    """Geometry and noise levels of reporting sensors: ``position``
    (..., 2), ``sigma_r`` and ``sigma_theta`` (...), with one element per
    sensor of a batch."""

    position: np.ndarray
    sigma_r: float | np.ndarray
    sigma_theta: float | np.ndarray

    def __post_init__(self) -> None:
        self.position = np.asarray(self.position, dtype=float)
        self.sigma_r = np.asarray(self.sigma_r, dtype=float)
        self.sigma_theta = np.asarray(self.sigma_theta, dtype=float)

    def __getitem__(self, index) -> SensorModel:
        """The sensors at ``index`` of the batch axes."""
        return SensorModel(
            position=self.position[index],
            sigma_r=self.sigma_r[index],
            sigma_theta=self.sigma_theta[index],
        )


def _position_block(M: np.ndarray) -> np.ndarray:
    # Positions sit at indices 0 and 2 of the 4-dim state, so the block is a
    # strided view.
    return M[..., ::2, ::2]


def reconstruct_local_gain(t: Tracklet, pred_cov: np.ndarray) -> ReconstructedGain:
    """Recover the equivalent measurement triple (y, R, W) of a local track.

    The equivalent measurement model is linear in position, so the noise is
    the position block of the tracklet covariance and the gain follows from
    the predicted covariance exactly as in a position-updating filter.
    Leading batch axes of the tracklet carry through to ``W`` (..., 4, 2),
    ``R`` (..., 2, 2) and ``y`` (..., 2).
    """
    R = symmetrize(_position_block(t.U))
    det = R[..., 0, 0] * R[..., 1, 1] - R[..., 0, 1] * R[..., 1, 0]
    bad = ~((R[..., 0, 0] > 0.0) & (det > 0.0))
    if bad.any():
        raise NumericalError(
            "tracklet position covariance not positive definite", index=first_index(bad)
        )
    S = _position_block(pred_cov) + R
    det = S[..., 0, 0] * S[..., 1, 1] - S[..., 0, 1] * S[..., 1, 0]
    bad = (det <= 0.0) | (S[..., 0, 0] <= 0.0)
    if bad.any():
        raise SingularMatrixError(
            "gain innovation covariance not positive definite", index=first_index(bad)
        )
    S_inv = np.empty_like(S)
    S_inv[..., 0, 0], S_inv[..., 1, 1] = S[..., 1, 1], S[..., 0, 0]
    S_inv[..., 0, 1], S_inv[..., 1, 0] = -S[..., 0, 1], -S[..., 1, 0]
    S_inv /= det[..., None, None]
    W = pred_cov[..., :, ::2] @ S_inv
    y = t.u[..., ::2].copy()
    return ReconstructedGain(W=W, R=R, y=y)


def _noise_cov(B: np.ndarray, sigma_r, sigma_theta) -> np.ndarray:
    """Polar measurement noise diag(sigma_r^2, sigma_theta^2) mapped through
    the conversion Jacobians ``B`` (..., 2, 2)."""
    N = np.zeros(B.shape)
    N[..., 0, 0] = np.asarray(sigma_r) ** 2
    N[..., 1, 1] = np.asarray(sigma_theta) ** 2
    return B @ N @ mt(B)


def _gain_from_information(info: np.ndarray, pred_cov: np.ndarray) -> ReconstructedGain:
    """Gain of a batch update equivalent to sequential position updates
    whose noise informations sum to ``info`` (..., 2, 2)."""
    R = solve_psd(info, np.eye(2), context="combined measurement information")
    S = _position_block(pred_cov) + R
    W = mt(solve_psd(mt(S), mt(pred_cov[..., :, ::2]), context="fused innovation covariance"))
    return ReconstructedGain(W=W, R=symmetrize(R), y=None)


def bias_correct(
    t: Tracklet,
    bias: BiasEstimate,
    noise: tuple,
    origin=(0.0, 0.0),
) -> CorrectedMeasurement:
    """Remove the current bias estimate from tracklets in polar coordinates.

    Each tracklet position is mapped to range/azimuth relative to the
    reporting sensor, the estimated offsets and scale factors are inverted,
    and the point is mapped back with the conversion compensation factor.
    The returned covariance adds the sensor noise mapped through the
    conversion Jacobian and the bias-estimate uncertainty mapped through the
    bias Jacobian on top of the tracklet's own position covariance.

    ``noise`` is the (sigma_r, sigma_theta) pair of the reporting sensor.
    The tracklet, the bias estimate, the noise levels and ``origin`` (..., 2)
    may carry the same leading batch axes (one reporting sensor per element).

    Raises :class:`NumericalError` naming the first element that cannot be
    corrected.
    """
    sigma_r, sigma_theta = noise
    r_raw, theta_raw = (np.asarray(v) for v in cart_to_polar(t.u[..., ::2], origin))
    batch = r_raw.shape
    if (r_raw == 0.0).any():
        raise NumericalError(
            "tracklet position coincides with the sensor", index=first_index(r_raw == 0.0)
        )

    b = bias.b
    b_r, b_theta = b[..., 0], b[..., 1]
    eps_r = eps_theta = 0.0
    if bias.dim >= 4:
        eps_r, eps_theta = b[..., 2], b[..., 3]
    bad = np.broadcast_to((1.0 + eps_r <= 0.0) | (1.0 + eps_theta <= 0.0), batch)
    if bad.any():
        raise NumericalError(
            "estimated scale bias leaves non-positive scale factor", index=first_index(bad)
        )
    theta_bc = wrap_angle((theta_raw - b_theta) / (1.0 + eps_theta))
    r_bc = (r_raw - b_r) / (1.0 + eps_r)
    if (r_bc <= 0.0).any():
        index = first_index(r_bc <= 0.0)
        raise NumericalError(
            f"corrected range non-positive ({r_bc[index or ()]:.3f} m)", index=index
        )

    y = polar_to_cart(r_bc, theta_bc, sigma_theta, origin)
    jac = jacobians_at(r_bc, theta_bc)
    K = jac.K[..., : bias.dim]
    R = _position_block(t.U) + _noise_cov(jac.B, sigma_r, sigma_theta) + K @ bias.Sigma @ mt(K)
    return CorrectedMeasurement(y=y, R=symmetrize(R))


def _without_failures(run, keep: np.ndarray, record):
    """Return ``(keep, run(keep))`` for the elements ``keep`` of a flat
    batch (an index array).

    An element that fails a numerical check is dropped: ``run`` raised a
    :class:`NumericalError` naming its position in ``keep``, which goes to
    ``record(element, error)``, and the remaining elements run again.  The
    result is None when every element failed.
    """
    while keep.size:
        try:
            return keep, run(keep)
        except NumericalError as exc:
            if exc.index is None:
                raise
            record(keep[exc.index[0]], exc)
            keep = np.delete(keep, exc.index[0])
    return keep, None


def sfa(
    fused_prev: FusedTrack,
    model: MultiStepModel,
    measurements: list[tuple[np.ndarray, np.ndarray]],
    present: np.ndarray | None = None,
) -> FusedTrack:
    """Sequential fusion: predict the fused tracks, then fold in each
    position measurement with a Kalman update.

    The fused state, the model and each measurement's ``y`` (..., 2) and
    ``R`` (..., 2, 2) may carry the same leading batch axes.  Measurement j
    is folded into the elements where ``present[..., j]`` is True (every
    element when ``present`` is None), in list order.  A measurement whose
    innovation covariance is singular for an element is skipped for that
    element alone, with one logged warning.  The result's ``sensors`` marks
    the measurements folded into each element.
    """
    pred = kf_predict(fused_prev.state, model)
    shape = pred.mean.shape[:-1]
    x, P = pred.mean.reshape(-1, 4), pred.cov.reshape(-1, 4, 4)
    m = len(measurements)
    if present is None:
        present = True
    present = np.broadcast_to(present, shape + (m,)).reshape(x.shape[0], m)
    used = np.zeros(present.shape, dtype=bool)

    for j, (y, R) in enumerate(measurements):
        y = np.broadcast_to(y, shape + (2,)).reshape(-1, 2)
        R = np.broadcast_to(R, shape + (2, 2)).reshape(-1, 2, 2)

        def skip(i, exc, j=j):
            where = at_index(np.unravel_index(i, shape))
            log.warning("skipping measurement %d%s: singular innovation", j, where)

        def update(k, y=y, R=R):
            est, _ = kf_update(GaussianEstimate(x[k], P[k]), CartesianMeasurement(y[k], R[k]))
            return est

        keep, est = _without_failures(update, np.flatnonzero(present[:, j]), skip)
        if est is not None:
            x[keep], P[keep] = est.mean, est.cov
            used[keep, j] = True
    pred.mean, pred.cov = x.reshape(pred.mean.shape), P.reshape(pred.cov.shape)
    return FusedTrack(state=pred, sensors=used.reshape(shape + (m,)))


@dataclass
class FbeResult:
    """Outputs of one fused-bias-estimation frame over S sensors and T
    targets.

    ``bias_states`` holds every sensor's estimate (``b`` (S, d)) and
    ``fused`` every leave-one-out reference (mean (S, T, n), frames (S, T)).
    ``used`` (S, T, S) marks the sensors fused into each reference updated
    this frame.  ``live`` (S, T) marks the pairs whose tracklet, gain and
    bias correction succeeded, and ``tracklets`` holds their tracklets on
    one leading axis, in row-major (sensor, target) order (None when no pair
    is live).  ``skipped`` lists a ``(sensor, target, reason)`` tuple per
    pair or bias update (target None) that failed a numerical check.
    """

    bias_states: BiasEstimate
    fused: GaussianEstimate
    used: np.ndarray
    live: np.ndarray
    tracklets: Tracklet | None = None
    skipped: list = field(default_factory=list)


def fbe_step(
    prev: GaussianEstimate,
    curr: GaussianEstimate,
    reported: np.ndarray,
    bias_states: BiasEstimate,
    fused_prev: GaussianEstimate,
    model: MotionModel,
    sensors: SensorModel,
) -> FbeResult:
    """One frame of fused bias estimation across all reporting sensors.

    Args:
        prev, curr: report pairs of every (sensor, target) pair, means
            (S, T, n) and covariances (S, T, n, n); frames broadcast to
            (S, T), e.g. (S, 1) for one report frame per sensor.
        reported: (S, T) boolean mask of the pairs reported this frame.
        bias_states: latest estimates of every sensor (``b`` (S, d));
            sensors without a usable pair carry theirs forward.
        fused_prev: leave-one-out fused references, element (s, t) excluding
            sensor s: means (S, T, n), frames broadcast to (S, T).
        model: fusion-center motion model (single-step); multi-step
            transitions are composed once per report lag.
        sensors: geometry and noise levels of every sensor (S elements).

    Returns a :class:`FbeResult`.  Each stage runs as one batched call over
    the pairs; a pair that fails a numerical check is skipped as a whole.

    Corrections use the bias estimates as they stood at the start of the
    frame, so per-sensor updates are order-independent within the frame;
    pseudo-measurements within one sensor are folded in ascending target
    order.
    """
    n_s, n_t = reported.shape
    fused = GaussianEstimate(
        mean=fused_prev.mean.copy(),
        cov=fused_prev.cov.copy(),
        frame=np.array(np.broadcast_to(fused_prev.frame, (n_s, n_t))),
    )
    res = FbeResult(
        bias_states=BiasEstimate(b=bias_states.b.copy(), Sigma=bias_states.Sigma.copy()),
        fused=fused,
        used=np.zeros((n_s, n_t, n_s), dtype=bool),
        live=np.zeros((n_s, n_t), dtype=bool),
    )
    if np.count_nonzero(reported.any(axis=1)) < 2:
        return res

    # Tracklets, gain data, and frame-start corrections of every reported
    # pair (a sensor's corrected measurement is the same in every
    # leave-one-out set it belongs to).
    steps = functools.cache(functools.partial(compose_steps, model))
    pairs = np.nonzero(reported)
    prev, curr = prev[pairs], curr[pairs]
    lagged = compose_lags(steps, curr.frame - prev.frame)

    def local(k):
        t = compute_tracklet(prev[k], curr[k], lagged[k])
        gain = reconstruct_local_gain(t, t.pred_cov)
        geo = sensors[pairs[0][k]]
        corrected = bias_correct(
            t, bias_states[pairs[0][k]], (geo.sigma_r, geo.sigma_theta), origin=geo.position
        )
        info = inv_sym(corrected.R, context="corrected measurement covariance")
        return t, gain, corrected, info

    def skip_pair(i, exc):
        res.skipped.append((int(pairs[0][i]), int(pairs[1][i]), exc.reason))

    keep, local_out = _without_failures(local, np.arange(pairs[0].size), skip_pair)
    if local_out is None:
        return res
    tl, g_s, corrected, info_live = local_out
    res.tracklets = tl
    ls, lt = pairs[0][keep], pairs[1][keep]
    res.live[ls, lt] = True
    y = np.zeros((n_s, n_t, 2))
    R = np.zeros((n_s, n_t, 2, 2))
    info = np.zeros((n_s, n_t, 2, 2))
    y[ls, lt], R[ls, lt], info[ls, lt] = corrected.y, corrected.R, info_live

    # Leave-one-out fused reference of every live pair from the other
    # sensors' bias-corrected tracklets of its target.
    e = np.flatnonzero(res.live.sum(axis=0)[lt] >= 2)
    if not e.size:
        return res
    es, et, k = ls[e], lt[e], keep[e]
    present = res.live[:, et].T.copy()
    present[np.arange(e.size), es] = False
    fp = res.fused[es, et]
    msf = compose_lags(steps, curr[k].frame - fp.frame)
    meas = [(y[r, et], R[r, et]) for r in range(n_s)]
    try:
        fused_new = sfa(FusedTrack(state=fp), msf, meas, present)
        # The fused gain describes the update the reference actually
        # received: its equivalent noise combines the corrected measurement
        # covariances (bias-uncertainty inflation included), the
        # deconvolution below recovers their information-weighted mean
        # exactly, and the noise model stays honest while the other sensors'
        # estimates settle.  Informations add in ascending sensor order.
        info_f = np.zeros((e.size, 2, 2))
        for r in range(n_s):
            info_f = info_f + np.where(present[:, r, None, None], info[r, et], 0.0)
        g_f = _gain_from_information(info_f, kf_predict(fp, msf).cov)
        zb_f = sensor_pseudo_obs(fused_new.state, fp, g_f.W, msf)
        zb_s = sensor_pseudo_obs(curr[k], prev[k], g_s.W[e], lagged[k])
    except NumericalError as exc:
        # Name the pair rather than its position among the references.
        if exc.index is None:
            raise
        i = exc.index[0]
        frame = np.broadcast_to(curr[k].frame, e.shape)[i]
        raise type(exc)(f"frame {frame}, sensor {es[i]}, target {et[i]}: {exc.reason}") from exc

    # Observation matrix of each sensor at its tracklet's own polar
    # coordinates (the fusion center has no raw measurements).  Every
    # equivalent measurement handled at the fusion center carries the
    # radar-model uncertainty on top of its tracklet covariance; the
    # corrected reference side already has it, and the sensor side gets the
    # same treatment here.
    geo = sensors[es]
    jac = jacobians_at(*cart_to_polar(tl.u[e][..., ::2], geo.position))
    R_s = g_s.R[e] + _noise_cov(jac.B, geo.sigma_r, geo.sigma_theta)
    pm = difference_pseudo_measurement(
        zb_f, zb_s, jac, g_f.R, R_s, offset_only=(bias_states.dim == 2)
    )
    res.fused.mean[es, et] = fused_new.state.mean
    res.fused.cov[es, et] = fused_new.state.cov
    res.fused.frame[es, et] = fused_new.state.frame
    res.used[es, et] = fused_new.sensors

    # Each sensor folds its pseudo-measurements in ascending target order;
    # one batched update per target covers every sensor.

    def update(rows):
        pm_rows = PseudoMeasurement(z=pm.z[rows], H=pm.H[rows], R=pm.R[rows])
        return rlsb_update(res.bias_states[es[rows]], pm_rows)

    def skip_update(i, exc):
        res.skipped.append((int(es[i]), None, exc.reason))

    for tgt in np.unique(et):
        rows, est = _without_failures(update, np.flatnonzero(et == tgt), skip_update)
        if est is not None:
            res.bias_states.b[es[rows]], res.bias_states.Sigma[es[rows]] = est.b, est.Sigma
    return res
