"""Fusion-center pipeline: gain reconstruction, bias correction, measurement
fusion, and the per-frame fused bias estimation step.

The fusion center receives only state estimates and covariances at
(possibly sparse) reporting epochs.  From each report pair and its one
L-step prediction it forms a tracklet, reconstructs the equivalent
measurement noise and filter gain, and deconvolves the update into a bias
observation: no bias estimate enters these, so :func:`local_stage` runs
them once on report pairs with any leading axes (every epoch of a run).
Each sensor's bias is estimated against a leave-one-out reference, the
combined equivalent measurement of all other sensors' bias-corrected
tracklets of the target (what a fused update with them would fold; no
fused track enters), which reduces the multisensor problem to a sequence
of two-sensor problems with a single biased side: :func:`fbe_step`, once
per epoch on its slice of the local stage.

Each stage is one batched call on position tracklets, made once whatever
fails.  No check raises for a skip: each stage returns its
checks as ``(reason, failed)`` masks over its batch, in check order
(:func:`reconstruct_local_gain`, :func:`bias_correct`, like
:func:`~sensorreg.tracklets.compute_tracklet`,
:func:`~sensorreg.bias.rlsb_update` and
:func:`~sensorreg.bias.pseudo_measurement_faults`), and an element that
fails one holds a stand-in.  :func:`fbe_step` skips each element with the
first check it fails and records it; a caller that must stop raises the
first fault through :func:`~sensorreg.errors.raise_first`.  Every stage
works on the (sensor, target) grid with a mask, the frame-start bias
correction with that of the reported pairs, and an element off the mask
holds a stand-in whose result is discarded.
:func:`sfa` logs its failures from the same masks.  It is the composition
of :func:`combine_slots`, which reads no fused state and so may combine
every epoch's measurements at once, or each pair's leave-one-out slots,
and :func:`fused_update`.
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
    BiasJacobians,
    CartesianMeasurement,
    cart_to_polar,
    converted_covariance,
    converted_measurement,
    jacobians_at,
    wrap_angle,
)
from .dynamics import MotionModel
from .errors import at_index, faults_at, first_faults, quoted
from .trackers import GaussianEstimate, kf_predict, kf_update
from .tracklets import Tracklet, compute_tracklet

__all__ = [
    "ReconstructedGain",
    "SensorModel",
    "LocalStage",
    "FbeResult",
    "reconstruct_local_gain",
    "bias_correct",
    "slot_information",
    "SlotCombination",
    "combine_slots",
    "fused_update",
    "sfa",
    "local_stage",
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


# Stand-in gain of a pair that fails the local checks: W'W = I.
_SELECT_POSITIONS = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0], [0.0, 0.0]])


def reconstruct_local_gain(
    R: np.ndarray, pred_cov: np.ndarray
) -> tuple[ReconstructedGain, list]:
    """Recover the equivalent measurement noise and gain (R, W) of a local
    track.

    The equivalent measurement model is linear in position, so the noise is
    the position tracklet's covariance ``R`` (its ``U``), and the gain
    follows from the covariance ``pred_cov`` of the tracklet's L-step
    prediction exactly as in a position-updating filter; the ``ex`` oracle
    passes the true noise and the local filter's own prediction, which give
    that filter's gain.  Leading batch axes carry through to ``W``
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
        ("measurement noise covariance not positive definite", ~ok),
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
    and the point is mapped back with the range scaled by the conversion
    factor (:func:`~sensorreg.coords.conversion_gain`).
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
    on the batch axes of ``R`` alone (the identity for a slot whose
    covariance fails the 2x2 test); the sum over the used slots, added in
    slot order; and the mask of the used slots, those that ``present``
    (..., m) marks and that pass the test, on the batch axes of ``R`` and
    ``present`` broadcast together."""
    info, ok = inv_spd2_masked(R)
    used = ok & present
    return info, (info * used[..., None, None]).sum(axis=-3), used


@dataclass
class SlotCombination:
    """Measurement slots combined into one equivalent measurement per
    element (:func:`combine_slots`): ``measurement`` holds
    ``(y_eq, R_eq)``, ``used`` (..., m) marks the slots that went in,
    ``live`` the elements with one, and ``faults`` holds the check of the
    combined informations.  Indexing the batch axes gives their elements'
    combination."""

    measurement: CartesianMeasurement
    used: np.ndarray
    live: np.ndarray
    faults: list

    def __getitem__(self, index) -> SlotCombination:
        m = self.measurement
        return SlotCombination(
            CartesianMeasurement(m.z[index], m.R[index]),
            self.used[index],
            self.live[index],
            faults_at(self.faults, index),
        )


def combine_slots(z: CartesianMeasurement, present=True) -> SlotCombination:
    """Combine the m measurement slots of each element, ``z.z`` (..., m, 2)
    and ``z.R`` (..., m, 2, 2), on the batch axes of ``z`` and ``present``
    (..., m) broadcast together: the slots j that ``present`` marks
    combine, in slot order (:func:`slot_information`), into
    ``R_eq = (sum R_j^-1)^-1``, ``y_eq = R_eq sum R_j^-1 y_j``.  No state
    enters, so one call may serve every epoch of a run.

    A present slot whose ``R`` fails the 2x2 test is dropped for its
    element alone, and each logs one warning, in index order.  An element
    with no slot used, or whose combined information fails that test,
    holds the stand-in y = 0, R = I.
    """
    # An unused slot folds zero information and y = 0.
    info, info_sum, used = slot_information(z.R, present)
    dropped = present & ~used
    if dropped.any():
        for *index, j in np.argwhere(dropped):
            log.warning(
                "skipping measurement %d%s: covariance not positive definite", j, at_index(index)
            )
    # Each slot's R^-1 y once, on the batch axes of z; a stand-in slot may
    # hold NaN, so the mask selects rather than multiplies.
    info_y = np.where(used[..., None], mv(info, z.z), 0.0).sum(axis=-2)
    live = used.any(axis=-1)
    R_eq, combined = inv_spd2_masked(info_sum, live)
    failed = live & ~combined
    info_y[failed] = 0.0
    return SlotCombination(
        CartesianMeasurement(mv(R_eq, info_y), symmetrize(R_eq)),
        used,
        live,
        [singular("combined measurement information", info_sum, failed)],
    )


def fused_update(
    state: GaussianEstimate, model: MotionModel, slots: SlotCombination
) -> GaussianEstimate:
    """Predict the fused tracks, then fold in each element's combined
    measurement (:func:`combine_slots`, on the batch axes of the
    prediction) with one Kalman update on the whole batch.

    An element off ``slots.live``, or whose combined information or
    innovation covariance fails the 2x2 test, updates a stand-in (x = 0,
    P = I for a failed innovation) and keeps its prediction.  Each failed
    combined information, then each failed innovation covariance, logs one
    warning, in index order.
    """
    pred = kf_predict(state, model)
    eq = slots.measurement
    # The innovation covariance that kf_update inverts.
    S = pred.cov[..., ::2, ::2] + eq.R
    _, ok = det_spd2(S)
    found, live = first_faults(
        slots.faults + [singular("innovation covariance", S, slots.live & ~ok)], slots.live
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
    # Elements off the mask keep the prediction.
    off = ~live
    if off.any():
        est.mean[off], est.cov[off] = pred.mean[off], pred.cov[off]
    est.frame = pred.frame
    return est


def sfa(
    state: GaussianEstimate,
    model: MotionModel,
    z: CartesianMeasurement,
    present: np.ndarray | None = None,
) -> GaussianEstimate:
    """Predict the fused tracks, then fold in position measurements with
    one Kalman update per element: :func:`combine_slots` on the batch axes
    of the state, then :func:`fused_update`.

    ``z`` holds m measurement slots on its last batch axis, ``z.z``
    (..., m, 2) and ``z.R`` (..., m, 2, 2); the state, the model and the
    measurements may carry the same leading batch axes, or axes that
    broadcast against the state's.  The slots j with ``present[..., j]``
    (all when it is None) combine into one measurement whose update equals
    the sequential updates in exact arithmetic.  Each dropped measurement,
    then each failed combined information, then each failed innovation
    covariance logs one warning, in index order.  :func:`combine_slots`
    alone gives the slots folded into each element and their
    ``(y_eq, R_eq)``.
    """
    shape = state.mean.shape[:-1] + z.z.shape[-2:-1]
    present = np.broadcast_to(True if present is None else present, shape)
    return fused_update(state, model, combine_slots(z, present))


@dataclass
class LocalStage:
    """The part of fused bias estimation that no bias estimate enters, for
    report pairs on a (..., S, T) grid: their position ``tracklets``; the
    checks of the tracklets and of their gains (``faults``, in that order);
    each pair's deconvolved observation ``z`` (..., 2) and the check of its
    gain (``gram_faults``); and the bias Jacobians ``jac`` and noise ``R``
    (..., 2, 2) of its sensor side at the tracklet's own polar coordinates.
    Indexing the leading axes gives their pairs' stage."""

    tracklets: Tracklet
    faults: list
    z: np.ndarray
    gram_faults: list
    jac: BiasJacobians
    R: np.ndarray

    def __getitem__(self, index) -> LocalStage:
        return LocalStage(
            tracklets=Tracklet(u=self.tracklets.u[index], U=self.tracklets.U[index]),
            faults=faults_at(self.faults, index),
            z=self.z[index],
            gram_faults=faults_at(self.gram_faults, index),
            jac=BiasJacobians(B=self.jac.B[index], K=self.jac.K[index]),
            R=self.R[index],
        )


def local_stage(
    pred: GaussianEstimate, curr: GaussianEstimate, sensors: SensorModel
) -> LocalStage:
    """The :class:`LocalStage` of report pairs from their later reports
    ``curr`` and the L-step predictions ``pred`` of their earlier ones, on
    a grid whose last two axes are (sensor, target); ``sensors`` holds the
    S sensors.  Every pair runs, each to its own result: one that fails the
    tracklet or gain checks holds stand-ins (a position-selecting gain, a
    zero position) for the rest of the stage."""
    tracklets, faults = compute_tracklet(pred, curr)
    gain, gain_faults = reconstruct_local_gain(tracklets.U, pred.cov)
    faults += gain_faults
    ok = ~np.any([failed for _, failed in faults], axis=0)
    z, gram_faults = sensor_pseudo_obs(
        curr, pred, np.where(ok[..., None, None], gain.W, _SELECT_POSITIONS)
    )
    # Observation matrix of each sensor at its tracklet's own polar
    # coordinates (the fusion center has no raw measurements).  Every
    # equivalent measurement handled at the fusion center carries the
    # radar-model uncertainty on top of its tracklet covariance; the
    # corrected reference side of fbe_step has it, and the sensor side gets
    # the same treatment here.
    geo = sensors[:, None]
    r, theta = cart_to_polar(np.where(ok[..., None], tracklets.u, 0.0), geo.position)
    R = np.where(ok[..., None, None], gain.R, 0.0)
    R += converted_covariance(r, theta, geo.sigma_r, geo.sigma_theta)
    return LocalStage(tracklets, faults, z, gram_faults, jacobians_at(r, theta), R)


@dataclass
class FbeResult:
    """Outputs of one fused-bias-estimation frame over S sensors and T
    targets.

    ``bias_states`` holds every sensor's estimate (``b`` (S, d)).  ``used``
    (S, T, S) marks the sensors whose corrected measurements went into each
    pair's reference this frame.  ``live`` (S, T) marks the reported pairs
    whose tracklet, gain and bias correction succeeded.  ``skipped`` lists a
    ``(sensor, target, reason)`` tuple per pair, or per bias
    pseudo-measurement, that failed a numerical check, and a ``(sensor,
    None, reason)`` tuple per sensor whose stacked bias update failed (that
    sensor keeps its estimate).
    """

    bias_states: BiasEstimate
    used: np.ndarray
    live: np.ndarray
    skipped: list = field(default_factory=list)


def fbe_step(
    reported: np.ndarray,
    local: LocalStage,
    bias_states: BiasEstimate,
    sensors: SensorModel,
) -> FbeResult:
    """One frame of fused bias estimation across all reporting sensors.

    Args:
        reported: (S, T) boolean mask of the pairs reported this frame.
        local: the :class:`LocalStage` of every (sensor, target) pair at
            this frame, reported or not (:func:`local_stage`).
        bias_states: latest estimates of every sensor (``b`` (S, d));
            sensors without a usable pair carry theirs forward.
        sensors: geometry and noise levels of every sensor (S elements).

    Returns a :class:`FbeResult`.  Each stage is one batched call, whatever
    fails, and every check is a mask, not an error to retry around.

    The frame-start bias correction runs on every pair of the grid.  The
    local stage's checks and its own come back as ``(reason, failed)``
    masks in stage and check order, and a reported pair that fails one is
    skipped with the first it fails, the records in (check, sensor, target)
    order.  Each pair's checks depend on that pair alone, so a pair that is
    not reported changes no result.

    Every later stage runs on the (S, T) grid under the mask of the live
    pairs whose target has another live sensor: the leave-one-out
    :func:`combine_slots`, the difference pseudo-measurements, their screen
    and the fold.  Elements outside the mask carry stand-ins whose results
    are discarded.  A pair whose reference combines no slot or fails the
    combination's check, whose gain fails the check of
    :func:`sensor_pseudo_obs`, or whose pseudo-measurement fails one of
    :func:`pseudo_measurement_faults`, is dropped and recorded.  Each sensor
    folds its pseudo-measurements in one stacked :func:`rlsb_update` over
    every sensor; a sensor whose fold fails a check keeps its estimate and
    is recorded.

    Corrections use the bias estimates as they stood at the start of the
    frame, so per-sensor updates are order-independent within the frame.
    """
    n_s, n_t = reported.shape
    res = FbeResult(
        bias_states=BiasEstimate(b=bias_states.b.copy(), Sigma=bias_states.Sigma.copy()),
        used=np.zeros((n_s, n_t, n_s), dtype=bool),
        live=np.zeros((n_s, n_t), dtype=bool),
    )
    if np.count_nonzero(reported.any(axis=1)) < 2:
        return res

    # Frame-start corrections of every pair, kept where reported (a
    # sensor's corrected measurement is the same in every leave-one-out set
    # it belongs to).
    geo = sensors[:, None]
    corrected, bias_faults = bias_correct(
        local.tracklets, bias_states[:, None], (geo.sigma_r, geo.sigma_theta), origin=geo.position
    )
    # A copy of the mask: res.live is no view of the caller's array.
    found, res.live = first_faults(local.faults + bias_faults, np.array(reported))
    res.skipped += [(int(s), int(t), reason) for (s, t), reason in found]
    # The references: live pairs whose target has another live sensor.
    ref = res.live & (res.live.sum(axis=0) >= 2)

    # The reference side of each pair's pseudo-measurement on the mask is
    # the equivalent measurement of the other sensors' bias-corrected
    # tracklets of its target, whose noise combines their corrected
    # covariances, bias-uncertainty inflation included.  The corrected
    # measurements go in target-major, so that each target's row holds one
    # slot per sensor, and only the slots on the mask combine.
    present = ref[:, :, None] & res.live.T[None] & ~np.eye(n_s, dtype=bool)[:, None]
    slots = combine_slots(
        CartesianMeasurement(corrected.z.swapaxes(0, 1)[None], corrected.R.swapaxes(0, 1)[None]),
        present,
    )
    res.used = slots.used
    f = slots.measurement
    pm = difference_pseudo_measurement(
        f.z, local.z, local.jac, f.R, local.R, offset_only=(bias_states.dim == 2)
    )

    # A pseudo-measurement that fails a check, or whose reference holds a
    # stand-in, is dropped; it and every pair without one are padded with
    # H = 0, z = 0, R = I, which contribute nothing to the stacked fold of
    # each sensor over its targets.
    found, usable = first_faults(
        slots.faults
        + [("no usable reference slot", ref & ~slots.live)]
        + local.gram_faults
        + pseudo_measurement_faults(pm),
        ref,
    )
    res.skipped += [(int(s), int(t), reason) for (s, t), reason in found]
    z = np.where(usable[..., None], pm.z, 0.0)
    H = np.where(usable[..., None, None], pm.H, 0.0)
    R = np.where(usable[..., None, None], pm.R, np.eye(2))
    est, fold_faults = rlsb_update(res.bias_states, PseudoMeasurement(z, H, R))
    found, folded = first_faults(fold_faults, usable.any(axis=1))
    res.skipped += [(int(s), None, reason) for (s,), reason in found]
    res.bias_states.b[folded], res.bias_states.Sigma[folded] = est.b[folded], est.Sigma[folded]
    return res
