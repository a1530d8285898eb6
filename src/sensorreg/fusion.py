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
import math
from dataclasses import dataclass, field

import numpy as np

from ._linalg import at_index, first_index, solve_psd, symmetrize
from .bias import (
    BiasEstimate,
    difference_pseudo_measurement,
    rlsb_update,
    sensor_pseudo_obs,
)
from .coords import conversion_gain, jacobians_at, wrap_angle
from .dynamics import MotionModel, MultiStepModel, compose_steps
from .errors import NumericalError, SingularMatrixError
from .trackers import GaussianEstimate, position_selector
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

_POS4 = (0, 2)


@dataclass
class ReconstructedGain:
    """Equivalent measurement noise, filter gain and (for local tracks) the
    position-level equivalent measurement recovered from a tracklet."""

    W: np.ndarray
    R: np.ndarray
    y: np.ndarray | None = None


@dataclass
class CorrectedMeasurement:
    """Bias-corrected position measurement with inflated covariance."""

    y: np.ndarray
    R: np.ndarray
    lambda_theta: float


@dataclass
class FusedTrack:
    """Fused state estimate plus the sensors that contributed to it."""

    state: GaussianEstimate
    sensors: tuple = ()


@dataclass
class SensorModel:
    """Geometry and noise levels of one reporting sensor."""

    sensor_id: int
    position: np.ndarray
    sigma_r: float
    sigma_theta: float

    def __post_init__(self) -> None:
        self.position = np.asarray(self.position, dtype=float).reshape(2)


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
            f"tracklet position covariance not positive definite{at_index(first_index(bad))}"
        )
    S = _position_block(pred_cov) + R
    det = S[..., 0, 0] * S[..., 1, 1] - S[..., 0, 1] * S[..., 1, 0]
    bad = (det <= 0.0) | (S[..., 0, 0] <= 0.0)
    if bad.any():
        index = first_index(bad)
        raise SingularMatrixError(
            f"gain innovation covariance not positive definite{at_index(index)}",
            index=index or None,
        )
    S_inv = np.empty_like(S)
    S_inv[..., 0, 0], S_inv[..., 1, 1] = S[..., 1, 1], S[..., 0, 0]
    S_inv[..., 0, 1], S_inv[..., 1, 0] = -S[..., 0, 1], -S[..., 1, 0]
    S_inv /= det[..., None, None]
    W = pred_cov[..., :, ::2] @ S_inv
    y = t.u[..., ::2].copy()
    return ReconstructedGain(W=W, R=R, y=y)


def _gain_from_measurement_noises(
    noises: list[np.ndarray], pred_cov: np.ndarray
) -> ReconstructedGain:
    """Gain of a batch update equivalent to sequential position updates with
    the given noise covariances."""
    Lam = sum(np.linalg.inv(R) for R in noises)
    R = solve_psd(Lam, np.eye(2), context="combined measurement information")
    S = _position_block(pred_cov) + R
    W = solve_psd(S.T, pred_cov[:, ::2].T, context="fused innovation covariance").T
    return ReconstructedGain(W=W, R=symmetrize(R), y=None)


def bias_correct(
    t: Tracklet,
    bias: BiasEstimate,
    noise: tuple[float, float],
    origin=(0.0, 0.0),
) -> CorrectedMeasurement:
    """Remove the current bias estimate from a tracklet in polar coordinates.

    The tracklet position is mapped to range/azimuth relative to the
    reporting sensor, the estimated offsets and scale factors are inverted,
    and the point is mapped back with the conversion compensation factor.
    The returned covariance adds the sensor noise mapped through the
    conversion Jacobian and the bias-estimate uncertainty mapped through the
    bias Jacobian on top of the tracklet's own position covariance.

    ``noise`` is the (sigma_r, sigma_theta) pair of the reporting sensor.
    """
    sigma_r, sigma_theta = noise
    ux = float(t.u[_POS4[0]]) - origin[0]
    uy = float(t.u[_POS4[1]]) - origin[1]
    r_raw = math.hypot(ux, uy)
    if r_raw == 0.0:
        raise NumericalError("tracklet position coincides with the sensor")
    theta_raw = math.atan2(uy, ux)

    b = bias.b
    if bias.dim >= 4:
        b_r, b_theta, eps_r, eps_theta = b[0], b[1], b[2], b[3]
    else:
        b_r, b_theta = b[0], b[1]
        eps_r = eps_theta = 0.0
    if 1.0 + eps_r <= 0.0 or 1.0 + eps_theta <= 0.0:
        raise NumericalError("estimated scale bias leaves non-positive scale factor")
    theta_bc = wrap_angle((theta_raw - b_theta) / (1.0 + eps_theta))
    r_bc = (r_raw - b_r) / (1.0 + eps_r)
    if r_bc <= 0.0:
        raise NumericalError(f"corrected range non-positive ({r_bc:.3f} m)")

    lam = conversion_gain(sigma_theta)
    y = np.array(
        [
            origin[0] + lam * r_bc * math.cos(theta_bc),
            origin[1] + lam * r_bc * math.sin(theta_bc),
        ]
    )
    jac = jacobians_at(r_bc, theta_bc)
    K = jac.K[:, : bias.dim]
    R = (
        _position_block(t.U)
        + jac.B @ np.diag([sigma_r**2, sigma_theta**2]) @ jac.B.T
        + K @ bias.Sigma @ K.T
    )
    return CorrectedMeasurement(y=y, R=symmetrize(R), lambda_theta=lam)


def sfa(
    fused_prev: FusedTrack,
    model: MultiStepModel,
    measurements: list[tuple[np.ndarray, np.ndarray]],
    sensor_ids: tuple | None = None,
) -> FusedTrack:
    """Sequential fusion: predict the fused track, then fold in each
    position measurement with a Kalman update.

    A measurement whose innovation covariance is singular is skipped with a
    logged diagnostic rather than failing the whole frame.
    """
    x = model.F @ fused_prev.state.mean
    P = symmetrize(model.F @ fused_prev.state.cov @ model.F.T + model.Q)
    frame = fused_prev.state.frame + model.steps
    ids = sensor_ids if sensor_ids is not None else tuple(range(len(measurements)))
    used = []
    H = position_selector(4)
    for sid, (y, R) in zip(ids, measurements):
        S = _position_block(P) + R
        try:
            W = np.linalg.solve(S.T, P[:, ::2].T).T
        except np.linalg.LinAlgError:
            log.warning("skipping measurement from sensor %s: singular innovation", sid)
            continue
        x = x + W @ (np.asarray(y) - x[::2])
        M = np.eye(4) - W @ H
        P = symmetrize(M @ P @ M.T + W @ R @ W.T)
        used.append(sid)
    return FusedTrack(
        state=GaussianEstimate(mean=x, cov=P, frame=frame), sensors=tuple(used)
    )


@dataclass
class FbeResult:
    """Outputs of one fused-bias-estimation frame."""

    bias_states: dict
    fused: dict
    used: dict = field(default_factory=dict)
    skipped: list = field(default_factory=list)
    tracklets: dict = field(default_factory=dict)


def fbe_step(
    tracks: dict,
    bias_states: dict,
    fused_prev: dict,
    model: MotionModel,
    sensors: dict,
) -> FbeResult:
    """One frame of fused bias estimation across all reporting sensors.

    Args:
        tracks: ``{sensor_id: {target_id: (prev, curr)}}`` report pairs for
            the sensors reporting this frame.
        bias_states: ``{sensor_id: BiasEstimate}`` latest estimates for all
            sensors (reporting or not); non-reporting sensors carry forward.
        fused_prev: ``{sensor_id: {target_id: FusedTrack}}`` leave-one-out
            fused references keyed by the excluded sensor.
        model: fusion-center motion model (single-step); multi-step
            transitions are composed per report lag.
        sensors: ``{sensor_id: SensorModel}`` geometry and noise levels.

    Returns a :class:`FbeResult` with updated bias states, updated
    leave-one-out fused tracks, the sensors actually fused per reference,
    and any (sensor, target, reason) tuples that were skipped.

    Corrections use the bias estimates as they stood at the start of the
    frame, so per-sensor updates are order-independent within the frame;
    pseudo-measurements within one sensor are folded in ascending target
    order.
    """
    reporters = sorted(tracks)
    new_bias = dict(bias_states)
    new_fused = {s: dict(fused_prev.get(s, {})) for s in fused_prev}
    used: dict = {s: {} for s in reporters}
    skipped: list = []
    tl: dict = {}
    if len(reporters) < 2:
        return FbeResult(
            bias_states=new_bias, fused=new_fused, used=used, skipped=skipped, tracklets=tl
        )

    bias_ref = dict(bias_states)

    # Tracklets, gain data, and frame-start corrections, shared across the
    # sensor loop (a sensor's corrected measurement is the same in every
    # leave-one-out set it belongs to).  Multi-step models are composed once
    # per lag.
    local_gain: dict = {}
    corrected: dict = {}
    steps = functools.cache(functools.partial(compose_steps, model))
    for s in reporters:
        tl[s] = {}
        local_gain[s] = {}
        corrected[s] = {}
        for tgt in sorted(tracks[s]):
            prev, curr = tracks[s][tgt]
            try:
                t = compute_tracklet(prev, curr, steps(curr.frame - prev.frame))
                tl[s][tgt] = t
                local_gain[s][tgt] = reconstruct_local_gain(t, t.pred_cov)
                corrected[s][tgt] = bias_correct(
                    t,
                    bias_ref[s],
                    (sensors[s].sigma_r, sensors[s].sigma_theta),
                    origin=sensors[s].position,
                )
            except NumericalError as exc:
                skipped.append((s, tgt, str(exc)))

    for s in reporters:
        geo = sensors[s]
        pms = []
        for tgt in sorted(tl[s]):
            others = [r for r in reporters if r != s and tgt in corrected.get(r, {})]
            if not others:
                continue
            prev, curr = tracks[s][tgt]
            g_s = local_gain[s][tgt]
            zb_s = sensor_pseudo_obs(curr, prev, g_s.W, steps(curr.frame - prev.frame))

            # Leave-one-out fused reference from bias-corrected tracklets.
            ref_meas = [corrected[r][tgt] for r in others]
            fp = fused_prev[s][tgt]
            msf = steps(curr.frame - fp.state.frame)
            fused_new = sfa(
                fp, msf, [(c.y, c.R) for c in ref_meas], sensor_ids=tuple(others)
            )
            pred_cov_f = symmetrize(msf.F @ fp.state.cov @ msf.F.T + msf.Q)
            # The fused gain describes the update the reference actually
            # received: its equivalent noise combines the corrected
            # measurement covariances (bias-uncertainty inflation included),
            # the deconvolution below recovers their information-weighted
            # mean exactly, and the noise model stays honest while the other
            # sensors' estimates settle.
            g_f = _gain_from_measurement_noises([c.R for c in ref_meas], pred_cov_f)
            zb_f = sensor_pseudo_obs(fused_new.state, fp.state, g_f.W, msf)

            # Observation matrix of sensor s at the tracklet's own polar
            # coordinates (the fusion center has no raw measurements).
            ux = float(tl[s][tgt].u[_POS4[0]]) - geo.position[0]
            uy = float(tl[s][tgt].u[_POS4[1]]) - geo.position[1]
            jac = jacobians_at(math.hypot(ux, uy), math.atan2(uy, ux))
            # Every equivalent measurement handled at the fusion center
            # carries the radar-model uncertainty on top of its tracklet
            # covariance; the corrected reference side already has it, and
            # the sensor side gets the same treatment here.
            R_s = g_s.R + jac.B @ np.diag([geo.sigma_r**2, geo.sigma_theta**2]) @ jac.B.T
            pm = difference_pseudo_measurement(
                zb_f,
                zb_s,
                jac,
                g_f.R,
                R_s,
                offset_only=(bias_ref[s].dim == 2),
            )
            pms.append(pm)
            new_fused[s][tgt] = fused_new
            used[s][tgt] = fused_new.sensors

        est = new_bias[s]
        for pm in pms:
            try:
                est = rlsb_update(est, pm)
            except SingularMatrixError as exc:
                skipped.append((s, None, str(exc)))
        new_bias[s] = est

    return FbeResult(
        bias_states=new_bias, fused=new_fused, used=used, skipped=skipped, tracklets=tl
    )
