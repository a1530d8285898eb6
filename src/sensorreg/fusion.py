"""Fusion-center pipeline: gain reconstruction, bias correction, measurement
fusion, and the per-frame fused bias estimation step.

The fusion center receives only state estimates and covariances at
(possibly sparse) reporting epochs.  From each report pair it forms a
tracklet, reconstructs the equivalent measurement noise and filter gain,
and deconvolves the update into a bias observation.  Each sensor's bias is
estimated against a leave-one-out fused reference, one update with all
other sensors' bias-corrected tracklets, which reduces the multisensor
problem to a sequence of two-sensor problems with a single biased side.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass, field

import numpy as np

from ._linalg import det_spd2, inv_spd2, mt, mv, symmetrize
from .bias import (
    BiasEstimate,
    PseudoMeasurement,
    bias_information,
    difference_pseudo_measurement,
    rlsb_update,
    sensor_pseudo_obs,
)
from .coords import (
    CartesianMeasurement,
    cart_to_polar,
    converted_covariance,
    jacobians_at,
    polar_to_cart,
    wrap_angle,
)
from .dynamics import MotionModel, compose_lags, compose_steps
from .errors import NumericalError, at_index, located, quote_first
from .trackers import GaussianEstimate, kf_predict, kf_update
from .tracklets import Tracklet, compute_tracklet

__all__ = [
    "ReconstructedGain",
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
    """Filter gain and equivalent measurement noise recovered from a
    tracklet."""

    W: np.ndarray
    R: np.ndarray


@dataclass
class FusedTrack:
    """Fused state estimates of :func:`sfa` plus the measurements that
    contributed to them.

    ``sensors`` is a boolean mask (..., m) over the m measurement slots of
    the call; callers that give one slot per sensor read it as a sensor
    mask.  ``measurement`` holds the equivalent measurement ``(y_eq, R_eq)``
    that each element folded in (NaN for none).
    """

    state: GaussianEstimate
    sensors: np.ndarray
    measurement: CartesianMeasurement


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


def reconstruct_local_gain(R: np.ndarray, pred_cov: np.ndarray) -> ReconstructedGain:
    """Recover the equivalent measurement noise and gain (R, W) of a local
    track.

    The equivalent measurement model is linear in position, so the noise is
    the tracklet's position covariance ``R`` (the position block of a
    full-state tracklet's ``U``, or the whole ``U`` of a position-marginal
    one), and the gain follows from the predicted covariance ``pred_cov``
    exactly as in a position-updating filter.  Leading batch axes carry
    through to ``W`` (..., 4, 2) and ``R`` (..., 2, 2).
    """
    R = symmetrize(R)
    _, ok = det_spd2(R)
    if not ok.all():
        raise NumericalError("tracklet position covariance not positive definite", ~ok)
    S_inv, _ = inv_spd2(_position_block(pred_cov) + R, context="gain innovation covariance")
    return ReconstructedGain(W=pred_cov[..., :, ::2] @ S_inv, R=R)


def bias_correct(
    t: Tracklet,
    bias: BiasEstimate,
    noise: tuple,
    origin=(0.0, 0.0),
) -> CartesianMeasurement:
    """Remove the current bias estimate from tracklets in polar coordinates.

    Each tracklet position is mapped to range/azimuth relative to the
    reporting sensor, the estimated offsets and scale factors are inverted,
    and the point is mapped back with the conversion compensation factor.
    The returned measurement's covariance adds the sensor noise mapped
    through the conversion Jacobian and the bias-estimate uncertainty mapped
    through the bias Jacobian on top of the tracklet's own position
    covariance.

    ``noise`` is the (sigma_r, sigma_theta) pair of the reporting sensor.
    The tracklet, the bias estimate, the noise levels and ``origin`` (..., 2)
    may carry the same leading batch axes (one reporting sensor per element).

    Raises :class:`NumericalError` marking the elements that fail the first
    failing check.
    """
    sigma_r, sigma_theta = noise
    r_raw, theta_raw = (np.asarray(v) for v in cart_to_polar(t.u[..., ::2], origin))
    batch = r_raw.shape
    if (r_raw == 0.0).any():
        raise NumericalError("tracklet position coincides with the sensor", r_raw == 0.0)

    b = bias.b
    b_r, b_theta = b[..., 0], b[..., 1]
    eps_r = eps_theta = 0.0
    if bias.dim >= 4:
        eps_r, eps_theta = b[..., 2], b[..., 3]
    bad = np.broadcast_to((1.0 + eps_r <= 0.0) | (1.0 + eps_theta <= 0.0), batch)
    if bad.any():
        raise NumericalError("estimated scale bias leaves non-positive scale factor", bad)
    theta_bc = wrap_angle((theta_raw - b_theta) / (1.0 + eps_theta))
    r_bc = (r_raw - b_r) / (1.0 + eps_r)
    bad = r_bc <= 0.0
    if bad.any():
        r_text, failed = quote_first("%.3f", bad, r_bc[bad])
        raise NumericalError(f"corrected range non-positive ({r_text} m)", failed)

    y = polar_to_cart(r_bc, theta_bc, sigma_theta, origin)
    K = jacobians_at(r_bc, theta_bc).K[..., : bias.dim]
    noise_cov = converted_covariance(r_bc, theta_bc, sigma_r, sigma_theta)
    R = _position_block(t.U) + noise_cov + K @ bias.Sigma @ mt(K)
    return CartesianMeasurement(z=y, R=symmetrize(R))


def _without_failures(run, keep: np.ndarray, record):
    """Return ``(keep, run(keep))`` for the elements ``keep`` of a flat
    batch (an index array).

    Elements that fail a numerical check are dropped together: ``run``
    raised a :class:`NumericalError` whose ``failed`` marks them on the
    axis of ``keep``, each goes to ``record(element, error)``, and the
    remaining elements run again, so a batch runs once per distinct
    failure, with the records and survivors of dropping one failed element
    at a time.  The result is None when every element failed.
    """
    while keep.size:
        try:
            return keep, run(keep)
        except NumericalError as exc:
            if exc.failed.shape != keep.shape or not exc.failed.any():
                raise
            for element in keep[exc.failed]:
                record(element, exc)
            keep = keep[~exc.failed]
    return keep, None


def sfa(
    state: GaussianEstimate,
    model: MotionModel,
    z: CartesianMeasurement,
    present: np.ndarray | None = None,
) -> FusedTrack:
    """Predict the fused tracks, then fold in position measurements with
    one Kalman update per element.

    ``z`` holds m measurement slots on its last batch axis, ``z.z``
    (..., m, 2) and ``z.R`` (..., m, 2, 2); the state, the model and the
    measurements may carry the same leading batch axes.  The slots j with
    ``present[..., j]`` (all when it is None) combine, in slot order, into
    ``R_eq = (sum R_j^-1)^-1``, ``y_eq = R_eq sum R_j^-1 y_j``, whose update
    equals the sequential updates in exact arithmetic.  A measurement whose
    ``R`` is not positive definite is dropped for its element alone, and an
    element whose update fails keeps its prediction, each with one logged
    warning.  The result's ``sensors`` marks the slots folded into each
    element and ``measurement`` holds their ``(y_eq, R_eq)`` (NaN where
    there were none).
    """
    pred = kf_predict(state, model)
    shape = pred.mean.shape[:-1]
    m = z.z.shape[-2]
    # Copies: unused slots are overwritten below.
    y, R = np.empty(shape + (m, 2)), np.empty(shape + (m, 2, 2))
    y[...], R[...] = z.z, z.R
    present = np.broadcast_to(True if present is None else present, shape + (m,))
    _, ok = det_spd2(R)
    for *index, j in np.argwhere(present & ~ok):
        log.warning(
            "skipping measurement %d%s: covariance not positive definite", j, at_index(index)
        )
    used = ok & present
    # Unused slots become y = 0, R = I, whose information is then zeroed.
    y[~used], R[~used] = 0.0, np.eye(2)
    info = inv_spd2(R)[0] * used[..., None, None]
    info_sum = info.sum(axis=-3).reshape(-1, 2, 2)
    info_y = mv(info, y).sum(axis=-2).reshape(-1, 2)

    x, P = pred.mean.reshape(-1, 4), pred.cov.reshape(-1, 4, 4)
    y_eq, R_eq = np.full(shape + (2,), np.nan), np.full(shape + (2, 2), np.nan)
    flat_used = used.reshape(x.shape[0], m)

    def update(k):
        R_k, _ = inv_spd2(info_sum[k], context="combined measurement information")
        eq = CartesianMeasurement(mv(R_k, info_y[k]), symmetrize(R_k))
        return eq, kf_update(GaussianEstimate(x[k], P[k]), eq)[0]

    def skip(i, exc):
        where = at_index(np.unravel_index(i, shape))
        log.warning("skipping the fused update%s: %s", where, exc.reason)
        flat_used[i] = False

    keep, out = _without_failures(update, np.flatnonzero(flat_used.any(axis=1)), skip)
    if out is not None:
        eq, est = out
        y_eq.reshape(-1, 2)[keep], R_eq.reshape(-1, 2, 2)[keep] = eq.z, eq.R
        x[keep], P[keep] = est.mean, est.cov
    pred.mean, pred.cov = x.reshape(pred.mean.shape), P.reshape(pred.cov.shape)
    return FusedTrack(state=pred, sensors=used, measurement=CartesianMeasurement(y_eq, R_eq))


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
    pair, or per bias pseudo-measurement, that failed a numerical check, and
    a ``(sensor, None, reason)`` tuple per sensor whose stacked bias update
    failed (that sensor keeps its estimate).
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
    the pairs.  The pairs whose tracklet, gain or bias correction fails a
    numerical check are skipped as a whole, every pair failing the same check
    in one pass, and so is a pseudo-measurement that fails a check of
    :func:`bias_information`; a sensor whose stacked fold fails keeps its
    estimate.  A rank-deficient gain of a live pair with a reference is not
    skipped: it raises the :class:`NumericalError` of
    :func:`sensor_pseudo_obs` as ``sensor s, target t, frame k: <reason>``,
    its ``failed`` over (S, T).

    Corrections use the bias estimates as they stood at the start of the
    frame, so per-sensor updates are order-independent within the frame;
    each sensor folds all of its pseudo-measurements of the frame in one
    stacked update.
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
        gain = reconstruct_local_gain(_position_block(t.U), t.pred_cov)
        geo = sensors[pairs[0][k]]
        corrected = bias_correct(
            t, bias_states[pairs[0][k]], (geo.sigma_r, geo.sigma_theta), origin=geo.position
        )
        return t, gain, corrected

    def skip_pair(i, exc):
        res.skipped.append((int(pairs[0][i]), int(pairs[1][i]), exc.reason))

    keep, local_out = _without_failures(local, np.arange(pairs[0].size), skip_pair)
    if local_out is None:
        return res
    tl, g_s, corrected = local_out
    res.tracklets = tl
    ls, lt = pairs[0][keep], pairs[1][keep]
    res.live[ls, lt] = True
    # Target-major, so that each target's row holds one slot per sensor.
    y = np.zeros((n_t, n_s, 2))
    R = np.zeros((n_t, n_s, 2, 2))
    y[lt, ls], R[lt, ls] = corrected.z, corrected.R

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
    # The reference side of each pseudo-measurement is the equivalent
    # measurement of its update (what deconvolving the update would
    # recover), whose noise combines the corrected measurement covariances,
    # bias-uncertainty inflation included.
    fused_new = sfa(fp, msf, CartesianMeasurement(y[et], R[et]), present)

    # A failure names the pair rather than its position among the references.
    def where(i):
        frame = np.broadcast_to(curr[k].frame, e.shape)[i]
        return f"sensor {es[i]}, target {et[i]}, frame {frame}"

    def on_pairs(failed):
        out = np.zeros((n_s, n_t), dtype=bool)
        out[es[failed], et[failed]] = True
        return out

    with located(where, on_pairs):
        zb_s = sensor_pseudo_obs(curr[k], prev[k], g_s.W[e], lagged[k])

    # Observation matrix of each sensor at its tracklet's own polar
    # coordinates (the fusion center has no raw measurements).  Every
    # equivalent measurement handled at the fusion center carries the
    # radar-model uncertainty on top of its tracklet covariance; the
    # corrected reference side already has it, and the sensor side gets the
    # same treatment here.
    geo = sensors[es]
    r, theta = cart_to_polar(tl.u[e][..., ::2], geo.position)
    jac = jacobians_at(r, theta)
    R_s = g_s.R[e] + converted_covariance(r, theta, geo.sigma_r, geo.sigma_theta)
    f = fused_new.measurement
    pm = difference_pseudo_measurement(
        f.z, zb_s, jac, f.R, R_s, offset_only=(bias_states.dim == 2)
    )
    res.fused.mean[es, et] = fused_new.state.mean
    res.fused.cov[es, et] = fused_new.state.cov
    res.fused.frame[es, et] = fused_new.state.frame
    res.used[es, et] = fused_new.sensors

    # One stacked fold per sensor over its targets.  A pseudo-measurement
    # that fails a check of bias_information is dropped; it and every pair
    # without one are padded with H = 0, z = 0, R = I, which contribute
    # nothing.  A sensor whose fold fails keeps its estimate.
    ok, _ = _without_failures(
        lambda i: bias_information(PseudoMeasurement(pm.z[i], pm.H[i], pm.R[i])),
        np.arange(e.size),
        lambda i, exc: res.skipped.append((int(es[i]), int(et[i]), exc.reason)),
    )
    z = np.zeros((n_s, n_t, 2))
    H = np.zeros((n_s, n_t, 2, bias_states.dim))
    R = np.broadcast_to(np.eye(2), (n_s, n_t, 2, 2)).copy()
    z[es[ok], et[ok]], H[es[ok], et[ok]], R[es[ok], et[ok]] = pm.z[ok], pm.H[ok], pm.R[ok]

    def fold(rows):
        return rlsb_update(res.bias_states[rows], PseudoMeasurement(z[rows], H[rows], R[rows]))

    def skip_fold(s, exc):
        res.skipped.append((int(s), None, exc.reason))

    rows, est = _without_failures(fold, np.unique(es[ok]), skip_fold)
    if est is not None:
        res.bias_states.b[rows], res.bias_states.Sigma[rows] = est.b, est.Sigma
    return res
