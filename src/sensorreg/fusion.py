"""Fusion-center pipeline: gain reconstruction, bias correction, measurement
fusion, and the per-frame fused bias estimation step.

The fusion center receives only state estimates and covariances at
(possibly sparse) reporting epochs.  From each report pair it forms a
tracklet, reconstructs the equivalent measurement noise and filter gain,
and deconvolves the update into a bias observation.  Each sensor's bias is
estimated against a leave-one-out fused reference, one update with all
other sensors' bias-corrected tracklets, which reduces the multisensor
problem to a sequence of two-sensor problems with a single biased side.

Each stage of an epoch is one batched call on position tracklets, made
once whatever fails.  No check raises for a skip: each stage returns its
checks as ``(reason, failed)`` masks over its batch, in check order
(:func:`reconstruct_local_gain`, :func:`bias_correct`, like
:func:`~sensorreg.tracklets.compute_tracklet`,
:func:`~sensorreg.bias.rlsb_update` and
:func:`~sensorreg.bias.pseudo_measurement_faults`), and an element that
fails one holds a stand-in.  :func:`fbe_step` skips each element with the
first check it fails and records it; a caller that must stop raises the
first fault through :func:`~sensorreg.errors.raise_first`.  The local stage
(tracklet, gain, frame-start bias correction) runs on the reported pairs,
and every later stage works on the (sensor, target) grid with a mask,
giving an element off the mask a stand-in whose result is discarded.
:func:`sfa` logs its failures from the same masks.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from ._linalg import det_spd2, inv_spd2_masked, mt, mv, singular, symmetrize
from .bias import (
    BiasEstimate,
    PseudoMeasurement,
    difference_pseudo_measurement,
    pseudo_measurement_faults,
    rlsb_update,
    sensor_pseudo_obs,
)
from .coords import (
    CartesianMeasurement,
    cart_to_polar,
    converted_covariance,
    converted_measurement,
    jacobians_at,
    wrap_angle,
)
from .dynamics import LagModels, MotionModel
from .errors import at_index, first_faults, quoted
from .trackers import GaussianEstimate, kf_predict, kf_update
from .tracklets import Tracklet, compute_tracklet

__all__ = [
    "ReconstructedGain",
    "FusedTrack",
    "SensorModel",
    "FbeResult",
    "reconstruct_local_gain",
    "bias_correct",
    "slot_information",
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


# Stand-in gain of a pair off the reference mask: W'W = I.
_SELECT_POSITIONS = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0], [0.0, 0.0]])


def reconstruct_local_gain(
    R: np.ndarray, pred_cov: np.ndarray
) -> tuple[ReconstructedGain, list]:
    """Recover the equivalent measurement noise and gain (R, W) of a local
    track.

    The equivalent measurement model is linear in position, so the noise is
    the position tracklet's covariance ``R`` (its ``U``), and the gain
    follows from the predicted covariance ``pred_cov`` exactly as in a
    position-updating filter.  Leading batch axes carry through to ``W``
    (..., 4, 2) and ``R`` (..., 2, 2).

    Returns the gain and its checks, in order: ``R``, then the innovation
    covariance, not positive definite.
    """
    R = symmetrize(R)
    _, ok = det_spd2(R)
    # Positions sit at indices 0 and 2 of the 4-dim state.
    S = pred_cov[..., ::2, ::2] + R
    S_inv, invertible = inv_spd2_masked(S)
    return ReconstructedGain(W=pred_cov[..., :, ::2] @ S_inv, R=R), [
        ("tracklet position covariance not positive definite", ~ok),
        singular("gain innovation covariance", S, ~invertible),
    ]


def bias_correct(
    t: Tracklet,
    bias: BiasEstimate,
    noise: tuple,
    origin=(0.0, 0.0),
) -> tuple[CartesianMeasurement, list]:
    """Remove the current bias estimate from position tracklets in polar
    coordinates.

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

    Returns the measurement and its checks, in order: a tracklet position
    at the sensor, an estimated scale factor that is not positive, and a
    corrected range that is not positive (each reason quoting its range).
    An element that fails one holds a stand-in.
    """
    sigma_r, sigma_theta = noise
    r_raw, theta_raw = (np.asarray(v) for v in cart_to_polar(t.u, origin))
    batch = r_raw.shape

    b = bias.b
    b_r, b_theta = b[..., 0], b[..., 1]
    scale_r = scale_theta = 1.0
    if bias.dim >= 4:
        scale_r, scale_theta = 1.0 + b[..., 2], 1.0 + b[..., 3]
    unscaled = np.broadcast_to((scale_r <= 0.0) | (scale_theta <= 0.0), batch)
    # A failed scale factor divides by a stand-in of 1.
    scale_r, scale_theta = np.where(unscaled, 1.0, scale_r), np.where(unscaled, 1.0, scale_theta)
    theta_bc = wrap_angle((theta_raw - b_theta) / scale_theta)
    r_bc = (r_raw - b_r) / scale_r
    bad = r_bc <= 0.0
    faults = [
        ("tracklet position coincides with the sensor", r_raw == 0.0),
        ("estimated scale bias leaves non-positive scale factor", unscaled),
        (quoted("corrected range non-positive (%.3f m)", bad, lambda: r_bc[bad]), bad),
    ]

    y, noise_cov, K = converted_measurement(r_bc, theta_bc, sigma_r, sigma_theta, origin, bias.dim)
    # A contiguous K' keeps matmul on its BLAS path, as MotionModel.Ft does.
    R = t.U + noise_cov + K @ bias.Sigma @ np.ascontiguousarray(mt(K))
    return CartesianMeasurement(z=y, R=symmetrize(R)), faults


def slot_information(R: np.ndarray, present=True) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Informations ``R_j^-1`` of m measurement slots, ``R`` (..., m, 2, 2),
    zero for a slot that ``present`` (..., m) does not mark or whose
    covariance fails the 2x2 test; their sum over the slots, added in slot
    order; and the mask of the used slots, on the batch axes of ``R`` and
    ``present`` broadcast together."""
    info, ok = inv_spd2_masked(R)
    used = ok & present
    info = info * used[..., None, None]
    return info, info.sum(axis=-3), used


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
    measurements may carry the same leading batch axes, or axes that
    broadcast against the state's.  The slots j with
    ``present[..., j]`` (all when it is None) combine, in slot order
    (:func:`slot_information`), into
    ``R_eq = (sum R_j^-1)^-1``, ``y_eq = R_eq sum R_j^-1 y_j``, whose update
    equals the sequential updates in exact arithmetic.

    Each step runs once on the whole batch, and failures are masks, not
    retries.  A measurement whose ``R`` is not positive definite is dropped
    for its element alone.  An element with no measurement left, or whose
    combined information or innovation covariance fails the 2x2 test,
    updates a stand-in (y = 0, R = I; x = 0, P = I for a failed innovation)
    and keeps its prediction.  Each dropped measurement, then each failed
    combined information, then each failed innovation covariance logs one
    warning, in index order.  The result's ``sensors`` marks the slots
    folded into each element and ``measurement`` holds their
    ``(y_eq, R_eq)`` (NaN where there were none).
    """
    pred = kf_predict(state, model)
    shape = pred.mean.shape[:-1]
    m = z.z.shape[-2]
    present = np.broadcast_to(True if present is None else present, shape + (m,))
    # Slot informations inverted on the measurements' own batch axes; an
    # unused slot folds zero information and y = 0.
    info, info_sum, used = slot_information(z.R, present)
    dropped = present & ~used
    if dropped.any():
        for *index, j in np.argwhere(dropped):
            log.warning(
                "skipping measurement %d%s: covariance not positive definite", j, at_index(index)
            )
    y = np.where(used[..., None], z.z, 0.0)
    info_y = mv(info, y).sum(axis=-2)

    live = used.any(axis=-1)
    R_eq, combined = inv_spd2_masked(info_sum, live)
    info_y[live & ~combined] = 0.0
    eq = CartesianMeasurement(mv(R_eq, info_y), symmetrize(R_eq))
    # The innovation covariance that kf_update inverts.
    S = pred.cov[..., ::2, ::2] + eq.R
    _, ok = det_spd2(S)
    found, live = first_faults(
        [
            singular("combined measurement information", info_sum, live & ~combined),
            singular("innovation covariance", S, live & ~ok),
        ],
        live,
    )
    for index, reason in found:
        log.warning("skipping the fused update%s: %s", at_index(index), reason)
    prior = pred
    if not ok.all():
        prior = GaussianEstimate(
            np.where(ok[..., None], pred.mean, 0.0),
            np.where(ok[..., None, None], pred.cov, np.eye(pred.dim)),
        )
    est, _ = kf_update(prior, eq)
    # Elements off the mask keep the prediction and fold no measurement.
    off = ~live
    if off.any():
        est.mean[off], est.cov[off] = pred.mean[off], pred.cov[off]
        eq.z[off], eq.R[off] = np.nan, np.nan
    est.frame = pred.frame
    return FusedTrack(state=est, sensors=used & live[..., None], measurement=eq)


@dataclass
class FbeResult:
    """Outputs of one fused-bias-estimation frame over S sensors and T
    targets.

    ``bias_states`` holds every sensor's estimate (``b`` (S, d)) and
    ``fused`` every leave-one-out reference (mean (S, T, n), frames (S, T)).
    ``used`` (S, T, S) marks the sensors fused into each reference updated
    this frame.  ``live`` (S, T) marks the pairs whose tracklet, gain and
    bias correction succeeded, and ``tracklets`` holds their tracklets on
    one leading axis, in row-major (sensor, target) order (None when fewer
    than two sensors reported).  ``skipped`` lists a ``(sensor, target,
    reason)`` tuple per pair, or per bias pseudo-measurement, that failed a
    numerical check, and a ``(sensor, None, reason)`` tuple per sensor whose
    stacked bias update failed (that sensor keeps its estimate).
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
    lag_models: LagModels,
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
        lag_models: the fusion-center motion model of each report lag; one
            instance per run composes each lag once.
        sensors: geometry and noise levels of every sensor (S elements).

    Returns a :class:`FbeResult`.  Each stage is one batched call, whatever
    fails, and every check is a mask, not an error to retry around.

    The local stage (tracklet, gain reconstruction, frame-start bias
    correction) runs on the reported pairs gathered flat.  Its checks come
    back as ``(reason, failed)`` masks in stage and check order, and a pair
    that fails one is skipped with the first it fails, the records in
    (check, pair) order.  Each pair's tracklet form and checks depend on
    that pair alone, so the skipped pairs do not depend on their order.

    Every later stage runs on the (S, T) grid under the mask of the live
    pairs whose target has another live sensor: the leave-one-out
    :func:`sfa`, :func:`sensor_pseudo_obs`, the difference
    pseudo-measurements, their screen and the fold.  Elements outside the
    mask carry stand-ins (a position-selecting gain, zero positions) whose
    results are discarded.  A pseudo-measurement whose gain fails the check
    of :func:`sensor_pseudo_obs`, or that fails one of
    :func:`pseudo_measurement_faults`, is dropped and recorded.  Each sensor
    folds its pseudo-measurements in one stacked :func:`rlsb_update` over
    every sensor; a sensor whose fold fails a check keeps its estimate and
    is recorded.

    Corrections use the bias estimates as they stood at the start of the
    frame, so per-sensor updates are order-independent within the frame.
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

    # Local stage: tracklets, gain data, and frame-start corrections of
    # every reported pair (a sensor's corrected measurement is the same in
    # every leave-one-out set it belongs to).
    lagged = lag_models(np.broadcast_to(curr.frame - prev.frame, (n_s, n_t)))
    ps, pt = np.nonzero(reported)
    tl, faults = compute_tracklet(prev[ps, pt], curr[ps, pt], lagged[ps, pt])
    g_s, gain_faults = reconstruct_local_gain(tl.U, tl.pred_cov)
    geo = sensors[ps]
    corrected, bias_faults = bias_correct(
        tl, bias_states[ps], (geo.sigma_r, geo.sigma_theta), origin=geo.position
    )
    found, ok = first_faults(faults + gain_faults + bias_faults, np.ones(ps.size, dtype=bool))
    res.skipped += [(int(ps[i]), int(pt[i]), reason) for (i,), reason in found]
    res.tracklets = Tracklet(u=tl.u[ok], U=tl.U[ok], pred_cov=tl.pred_cov[ok])
    ls, lt = ps[ok], pt[ok]
    res.live[ls, lt] = True
    # The references: live pairs whose target has another live sensor.
    ref = res.live & (res.live.sum(axis=0) >= 2)

    # Local outputs on the grid: corrected measurements target-major, so
    # that each target's row holds one slot per sensor; gains, their noise
    # and tracklet positions sensor-major, with stand-ins off the mask.
    y = np.zeros((n_t, n_s, 2))
    R = np.zeros((n_t, n_s, 2, 2))
    y[lt, ls], R[lt, ls] = corrected.z[ok], corrected.R[ok]
    W = np.zeros((n_s, n_t, 4, 2))
    W[ls, lt] = g_s.W[ok]
    W[~ref] = _SELECT_POSITIONS
    R_g = np.zeros((n_s, n_t, 2, 2))
    u = np.zeros((n_s, n_t, 2))
    R_g[ls, lt], u[ls, lt] = g_s.R[ok], res.tracklets.u

    # Leave-one-out fused reference of every pair on the mask from the
    # other sensors' bias-corrected tracklets of its target.  The reference
    # side of each pseudo-measurement is the equivalent measurement of its
    # update (what deconvolving the update would recover), whose noise
    # combines the corrected measurement covariances, bias-uncertainty
    # inflation included.
    present = ref[:, :, None] & res.live.T[None] & ~np.eye(n_s, dtype=bool)[:, None]
    fused_new = sfa(
        fused,
        lag_models(np.where(ref, curr.frame - fused.frame, 1)),
        CartesianMeasurement(y[None], R[None]),
        present,
    )

    zb_s, gram_faults = sensor_pseudo_obs(curr, prev, W, lagged)

    # Observation matrix of each sensor at its tracklet's own polar
    # coordinates (the fusion center has no raw measurements).  Every
    # equivalent measurement handled at the fusion center carries the
    # radar-model uncertainty on top of its tracklet covariance; the
    # corrected reference side already has it, and the sensor side gets the
    # same treatment here.
    geo = sensors[:, None]
    r, theta = cart_to_polar(u, geo.position)
    jac = jacobians_at(r, theta)
    R_s = R_g + converted_covariance(r, theta, geo.sigma_r, geo.sigma_theta)
    f = fused_new.measurement
    pm = difference_pseudo_measurement(
        f.z, zb_s, jac, f.R, R_s, offset_only=(bias_states.dim == 2)
    )
    new = fused_new.state
    res.fused = GaussianEstimate(
        np.where(ref[..., None], new.mean, fused.mean),
        np.where(ref[..., None, None], new.cov, fused.cov),
        frame=np.where(ref, new.frame, fused.frame),
    )
    res.used = fused_new.sensors

    # A pseudo-measurement that fails a check is dropped; it and every pair
    # without one are padded with H = 0, z = 0, R = I, which contribute
    # nothing to the stacked fold of each sensor over its targets.
    found, usable = first_faults(gram_faults + pseudo_measurement_faults(pm), ref)
    res.skipped += [(int(s), int(t), reason) for (s, t), reason in found]
    z = np.where(usable[..., None], pm.z, 0.0)
    H = np.where(usable[..., None, None], pm.H, 0.0)
    R = np.where(usable[..., None, None], pm.R, np.eye(2))
    est, fold_faults = rlsb_update(res.bias_states, PseudoMeasurement(z, H, R))
    found, folded = first_faults(fold_faults, usable.any(axis=1))
    res.skipped += [(int(s), None, reason) for (s,), reason in found]
    res.bias_states.b[folded], res.bias_states.Sigma[folded] = est.b[folded], est.Sigma[folded]
    return res
