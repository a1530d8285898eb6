"""Ground-truth simulation, local tracking, and Monte Carlo estimation runs.

Four estimation methods are supported:

* ``fbe``     -- per-sensor bias estimation against leave-one-out fused
                 references built from reconstructed gains (any sensor count).
* ``ex``      -- stacked two-sensor estimator fed with the local trackers'
                 true gains (oracle path).
* ``exl``     -- the same stacked estimator with gains reconstructed from
                 single-step tracklets.
* ``baseline``-- no biases injected and no estimation; plain tracklet fusion
                 (best-case reference for track accuracy).

All randomness derives from counter-based streams keyed by
(seed, purpose, run, sensor, target), so runs are reproducible and
independent of execution order.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from .._linalg import mv
from ..bias import BiasEstimate, PseudoMeasurement, rlsb_update, sensor_pseudo_obs
from ..coords import (
    CONVERSION_VALIDITY_LIMIT,
    BiasVector,
    CartesianMeasurement,
    apply_bias,
    cart_to_polar,
    converted_covariance,
    jacobians_at,
    polar_to_cart,
    wrap_angle,
)
from ..dynamics import (
    MotionModel,
    compose_lags,
    compose_steps,
    ncv_model,
    nca_model,
    turn_model,
)
from ..errors import NumericalError, ScenarioError, SingularMatrixError
from ..fusion import (
    SensorModel,
    bias_correct,
    fbe_step,
    reconstruct_local_gain,
    sfa,
)
from ..trackers import (
    GaussianEstimate,
    ImmState,
    imm_step,
    init_track,
    kf_predict,
    kf_update,
)
from ..tracklets import compute_tracklet, tracklet_decorrelated
from .metrics import RunMetrics, aggregate_runs
from .scenario import Scenario

__all__ = [
    "TruthData",
    "LocalTracks",
    "SingleRun",
    "simulate_truth",
    "nominal_geometry",
    "run_local_tracks",
    "run_single",
    "run_monte_carlo",
]

# Default IMM switching prior: sticky diagonal with equal initial weights.
IMM_TRANSITION = np.array([[0.95, 0.05], [0.05, 0.95]])
IMM_INITIAL_PROBS = np.array([0.5, 0.5])

METHODS = ("fbe", "ex", "exl", "baseline")


def _stream(seed: int, *key: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))


@dataclass
class TruthData:
    """Trajectories and measurements of one Monte Carlo run."""

    states: np.ndarray      # (n_targets, K+1, 4)
    polar_true: np.ndarray  # (n_sensors, n_targets, K+1, 2)
    polar_meas: np.ndarray  # (n_sensors, n_targets, K+1, 2)
    cart_z: np.ndarray      # (n_sensors, n_targets, K+1, 2) in the common frame
    cart_R: np.ndarray      # (n_sensors, n_targets, K+1, 2, 2)


@dataclass
class LocalTracks:
    """Per-(sensor, target, frame) local estimates; gains only for the
    plain Kalman tracker."""

    mean: np.ndarray            # (n_sensors, n_targets, K+1, 4)
    cov: np.ndarray             # (n_sensors, n_targets, K+1, 4, 4)
    gain: np.ndarray | None     # (n_sensors, n_targets, K+1, 4, 2)

    def estimate(self, s, t, k: int) -> GaussianEstimate:
        """Estimate of sensor ``s``, target ``t`` at frame ``k``; ``s`` and
        ``t`` may be slices or index arrays, which give a batched estimate."""
        return GaussianEstimate(mean=self.mean[s, t, k], cov=self.cov[s, t, k], frame=k)

    def reports(self, frames: np.ndarray) -> GaussianEstimate:
        """Estimates of every (sensor, target) pair, each sensor's at its own
        frame ``frames[sensor]``; the batch axes are (sensor, target)."""
        s = np.arange(len(frames))
        return GaussianEstimate(
            mean=self.mean[s, :, frames], cov=self.cov[s, :, frames], frame=frames[:, None]
        )


@dataclass
class SingleRun:
    """Per-run estimation outputs prior to Monte Carlo aggregation."""

    b_series: np.ndarray | None        # (K+1, n_groups, d)
    sigma_series: np.ndarray | None    # (K+1, n_groups, d, d)
    local_sqerr: np.ndarray            # (K+1,) mean over targets, first sensor
    fused_sqerr: np.ndarray | None     # (K+1,) NaN between fusion epochs


def _segment_sequence(scenario: Scenario, target_idx: int) -> list[MotionModel]:
    """Single-step truth models for frames 0..K-1; the last segment extends."""
    spec = scenario.targets[target_idx]
    q = scenario.process_noise_q
    out: list[MotionModel] = []
    for seg in spec.segments:
        if seg.model == "ncv":
            m = ncv_model(scenario.dt, q)
        else:
            m = turn_model(scenario.dt, seg.omega, q)
        out.extend([m] * seg.frames)
    if len(out) < scenario.frames:
        out.extend([out[-1]] * (scenario.frames - len(out)))
    return out[: scenario.frames]


def _propagate_targets(scenario: Scenario, noise: np.ndarray) -> np.ndarray:
    """Trajectories (n_targets, K+1, 4) driven by the white process noise
    ``noise`` (n_targets, K, 4), scaled by each segment model's Cholesky
    factor; all targets advance in lockstep."""
    models = [_segment_sequence(scenario, t) for t in range(len(scenario.targets))]
    distinct = {id(m): m for seq in models for m in seq}
    chols = {
        key: np.linalg.cholesky(m.Q) if np.any(m.Q) else np.zeros_like(m.Q)
        for key, m in distinct.items()
    }
    F = np.array([[m.F for m in seq] for seq in models])
    w = mv(np.array([[chols[id(m)] for m in seq] for seq in models]), noise)
    states = np.empty((len(models), scenario.frames + 1, 4))
    x = states[:, 0] = np.array([target.initial_state for target in scenario.targets])
    for k in range(scenario.frames):
        x = states[:, k + 1] = mv(F[:, k], x) + w[:, k]
    return states


def simulate_truth(scenario: Scenario, run_index: int, zero_bias: bool = False) -> TruthData:
    """Generate target trajectories and per-sensor measurements for one run.

    Deterministic in (rng_seed, run_index); ``zero_bias`` replaces every
    sensor's bias with zero while keeping the same noise draws, which gives
    paired biased/unbiased comparisons.
    """
    K = scenario.frames
    n_t = len(scenario.targets)
    n_s = len(scenario.sensors)
    noise = np.stack(
        [_stream(scenario.rng_seed, 0, run_index, t).standard_normal((K, 4)) for t in range(n_t)]
    )
    states = _propagate_targets(scenario, noise)

    polar_true = np.empty((n_s, n_t, K + 1, 2))
    polar_meas = np.empty_like(polar_true)
    cart_z = np.empty((n_s, n_t, K + 1, 2))
    cart_R = np.empty((n_s, n_t, K + 1, 2, 2))
    for s, sensor in enumerate(scenario.sensors):
        r, theta = cart_to_polar(states[..., ::2], sensor.position)
        polar_true[s, :, :, 0] = r
        polar_true[s, :, :, 1] = theta
        bias = BiasVector() if zero_bias else sensor.bias
        ratio = float(r.max()) * sensor.sigma_theta**2 / sensor.sigma_r
        if ratio >= CONVERSION_VALIDITY_LIMIT:
            warnings.warn(
                f"sensor {s}: conversion validity ratio {ratio:.3g} exceeds "
                f"{CONVERSION_VALIDITY_LIMIT}",
                RuntimeWarning,
                stacklevel=2,
            )
        # One noise stream per (sensor, target), stacked over targets.
        wn = np.stack(
            [
                _stream(scenario.rng_seed, 1, run_index, s, t).standard_normal((K + 1, 2))
                for t in range(n_t)
            ]
        )
        try:
            r_m, t_m = apply_bias(
                r, theta, bias, sensor.sigma_r * wn[..., 0], sensor.sigma_theta * wn[..., 1]
            )
        except NumericalError as exc:
            t, k = exc.index
            raise NumericalError(
                f"run {run_index}: sensor {s}, target {t}, frame {k}: {exc.reason}"
            ) from exc
        t_m = wrap_angle(t_m)
        polar_meas[s, :, :, 0] = r_m
        polar_meas[s, :, :, 1] = t_m
        cart_z[s] = polar_to_cart(r_m, t_m, sensor.sigma_theta, sensor.position)
        cart_R[s] = converted_covariance(r_m, t_m, sensor.sigma_r, sensor.sigma_theta)
    return TruthData(
        states=states,
        polar_true=polar_true,
        polar_meas=polar_meas,
        cart_z=cart_z,
        cart_R=cart_R,
    )


def nominal_geometry(scenario: Scenario) -> np.ndarray:
    """Noise-free trajectories (n_targets, K+1, 4) used by the bound path."""
    return _propagate_targets(scenario, np.zeros((len(scenario.targets), scenario.frames, 4)))


def _local_model(scenario: Scenario):
    lf = scenario.local_filter
    if lf.type == "kf":
        return ncv_model(scenario.dt, lf.q)
    if lf.type == "imm_ncv_ncv":
        return [ncv_model(scenario.dt, lf.q1), ncv_model(scenario.dt, lf.q2)]
    return [nca_model(scenario.dt, lf.q1), ncv_model(scenario.dt, lf.q2)]


def run_local_tracks(scenario: Scenario, truth: TruthData) -> LocalTracks:
    """Run the configured local tracker on every (sensor, target) stream.

    All streams advance in lockstep: each frame is one batched tracker call
    over the (sensor, target) axes.  A singular matrix is reported with the
    sensor, target and frame of the stream it occurred in.
    """
    K = scenario.frames
    n_s = len(scenario.sensors)
    n_t = len(scenario.targets)
    mean = np.empty((n_s, n_t, K + 1, 4))
    cov = np.empty((n_s, n_t, K + 1, 4, 4))
    is_kf = scenario.local_filter.type == "kf"
    gain = np.full((n_s, n_t, K + 1, 4, 2), np.nan) if is_kf else None
    models = _local_model(scenario)

    est = init_track(CartesianMeasurement(z=truth.cart_z[:, :, 0], R=truth.cart_R[:, :, 0]))
    mean[:, :, 0] = est.mean
    cov[:, :, 0] = est.cov
    if not is_kf:
        state = ImmState.from_track(est, models, IMM_INITIAL_PROBS, IMM_TRANSITION)
    for k in range(1, K + 1):
        meas = CartesianMeasurement(z=truth.cart_z[:, :, k], R=truth.cart_R[:, :, k])
        try:
            if is_kf:
                est, rec = kf_update(kf_predict(est, models), meas)
                gain[:, :, k] = rec.gain
            else:
                state, est = imm_step(state, meas)
        except SingularMatrixError as exc:
            where = f"frame {k}"
            if exc.index is not None:
                s, t = exc.index
                where = f"sensor {s}, target {t}, {where}"
            raise SingularMatrixError(f"{where}: {exc.reason}", index=exc.index) from exc
        mean[:, :, k] = est.mean
        cov[:, :, k] = est.cov
    return LocalTracks(mean=mean, cov=cov, gain=gain)


def _sensor_models(scenario: Scenario) -> SensorModel:
    return SensorModel(
        position=np.stack([s.position for s in scenario.sensors]),
        sigma_r=[s.sigma_r for s in scenario.sensors],
        sigma_theta=[s.sigma_theta for s in scenario.sensors],
    )


def _initial_bias_states(scenario: Scenario) -> BiasEstimate:
    n_s = len(scenario.sensors)
    prior = np.diag(scenario.bias_prior_sigma() ** 2)
    return BiasEstimate(
        b=np.zeros((n_s, scenario.bias_dim)), Sigma=np.broadcast_to(prior, (n_s,) + prior.shape)
    )


def _position_sqerr(mean: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Mean over targets of the squared position error of (n_targets, ..., 4)
    estimates against true states of the same shape, one per index of the
    axes after the target axis."""
    dx = mean[..., 0] - states[..., 0]
    dy = mean[..., 2] - states[..., 2]
    # Targets on a contiguous last axis, so each mean sums them in the same
    # order as the mean of a single 1-d array.
    return np.ascontiguousarray(np.moveaxis(dx**2 + dy**2, 0, -1)).mean(axis=-1)


def _fuse_all_sensors(
    scenario: Scenario, truth: TruthData, tracks: LocalTracks, epoch_measurements
) -> np.ndarray:
    """Fuse every reporting sensor into one track per target.

    Each fused track starts from sensor 0's frame-0 estimate.  At each fusion
    epoch k, ``epoch_measurements(k, last, reporting)`` receives the frame
    each sensor last reported at (``last``, one per sensor) and the mask of
    the sensors reporting at k.  It returns position measurements with one
    slot per sensor, a :class:`CartesianMeasurement` of batch shape
    (n_targets, n_sensors), and the mask of the slots that hold one; one
    :func:`sfa` call combines each target's measurements, in ascending
    sensor order, into one update.

    Returns the fused squared position error (mean over targets) per frame,
    NaN between epochs.
    """
    fusion_model = ncv_model(scenario.dt, scenario.fusion_q)
    steps = functools.cache(functools.partial(compose_steps, fusion_model))
    n_s = len(scenario.sensors)
    fused = tracks.estimate(0, slice(None), 0)
    last = np.zeros(n_s, dtype=int)
    sqerr = np.full(scenario.frames + 1, np.nan)
    for k in [0] + scenario.update_epochs():
        if k > 0:
            reporting = np.isin(np.arange(n_s), scenario.reporters_at(k))
            z, present = epoch_measurements(k, last, reporting)
            fused = sfa(fused, steps(k - fused.frame), z, present).state
            last[reporting] = k
        sqerr[k] = _position_sqerr(fused.mean, truth.states[:, k])
    return sqerr


def _run_fbe(scenario: Scenario, truth: TruthData, tracks: LocalTracks):
    """Fused bias estimation per sensor, then all-sensor fusion with the
    freshly corrected tracklets."""
    K = scenario.frames
    n_s = len(scenario.sensors)
    n_t = len(scenario.targets)
    d = scenario.bias_dim
    fusion_model = ncv_model(scenario.dt, scenario.fusion_q)
    sensors = _sensor_models(scenario)
    bias = _initial_bias_states(scenario)
    # Each leave-one-out reference starts from the frame-0 estimate of the
    # lowest-numbered other sensor.
    ref = [min(i for i in range(n_s) if i != s) for s in range(n_s)]
    fused = GaussianEstimate(mean=tracks.mean[ref, :, 0], cov=tracks.cov[ref, :, 0], frame=0)

    b_series = np.empty((K + 1, n_s, d))
    sigma_series = np.empty((K + 1, n_s, d, d))

    def record(k: int) -> None:
        # Estimates hold until the next epoch overwrites the later frames.
        b_series[k:] = bias.b
        sigma_series[k:] = bias.Sigma

    def epoch(k: int, last: np.ndarray, reporting: np.ndarray):
        nonlocal bias, fused
        all_pairs = slice(None)
        res = fbe_step(
            tracks.reports(last),
            tracks.estimate(all_pairs, all_pairs, k),
            np.broadcast_to(reporting[:, None], (n_s, n_t)),
            bias,
            fused,
            fusion_model,
            sensors,
        )
        bias, fused = res.bias_states, res.fused
        record(k)
        y = np.zeros((n_t, n_s, 2))
        R = np.zeros((n_t, n_s, 2, 2))
        if res.tracklets is not None:
            ls, lt = np.nonzero(res.live)
            geo = sensors[ls]
            c = bias_correct(
                res.tracklets, bias[ls], (geo.sigma_r, geo.sigma_theta), origin=geo.position
            )
            y[lt, ls], R[lt, ls] = c.z, c.R
        return CartesianMeasurement(y, R), res.live.T

    record(0)
    fused_sqerr = _fuse_all_sensors(scenario, truth, tracks, epoch)
    return b_series, sigma_series, fused_sqerr


def _run_stacked(
    scenario: Scenario, truth: TruthData, tracks: LocalTracks, reconstructed: bool
):
    """Two-sensor stacked-bias estimator with true or reconstructed gains."""
    if len(scenario.sensors) != 2:
        raise ScenarioError("the stacked estimator is defined for two sensors")
    if scenario.estimate_scale_bias:
        raise ScenarioError("the stacked estimator estimates offsets only")
    if any(s.lag != 1 for s in scenario.sensors):
        raise ScenarioError("the stacked estimator expects per-frame reporting")
    if not reconstructed and tracks.gain is None:
        raise ScenarioError("true-gain path requires the plain Kalman local tracker")

    K = scenario.frames
    ms1 = ncv_model(scenario.dt, scenario.fusion_q)
    sig = scenario.bias_prior_sigma()
    prior = np.diag(np.concatenate([sig**2, sig**2]))
    est = BiasEstimate(b=np.zeros(4), Sigma=prior)
    positions = np.stack([s.position for s in scenario.sensors])[:, None, None]

    # No frame's pseudo-measurements depend on the bias estimate, so every
    # (sensor, target, frame) of frames 1..K is built in one batched pass;
    # only the fold runs frame by frame.
    frames = np.arange(1, K + 1)
    prev = GaussianEstimate(tracks.mean[:, :, :-1], tracks.cov[:, :, :-1], frame=frames - 1)
    curr = GaussianEstimate(tracks.mean[:, :, 1:], tracks.cov[:, :, 1:], frame=frames)
    try:
        if reconstructed:
            trk = tracklet_decorrelated(prev, curr, ms1)
            gain = reconstruct_local_gain(trk)
            W, R = gain.W, gain.R
            r_m, t_m = cart_to_polar(trk.u[..., ::2], positions)
        else:
            W, R = tracks.gain[:, :, 1:], truth.cart_R[:, :, 1:]
            r_m, t_m = truth.polar_meas[:, :, 1:, 0], truth.polar_meas[:, :, 1:, 1]
        zb = sensor_pseudo_obs(curr, prev, W, ms1)
        B = jacobians_at(r_m, t_m).B
    except NumericalError as exc:
        if exc.index is None:
            raise
        s, t, j = exc.index
        where = f"sensor {s}, target {t}, frame {j + 1}"
        raise type(exc)(f"{where}: {exc.reason}", index=exc.index) from exc
    # One stacked pseudo-measurement per frame, its targets on the
    # observation axis: (K, n_targets, ...).
    pm = PseudoMeasurement(
        z=(zb[0] - zb[1]).swapaxes(0, 1),
        H=np.concatenate([B[0], -B[1]], axis=-1).swapaxes(0, 1),
        R=(R[0] + R[1]).swapaxes(0, 1),
    )

    b_series = np.empty((K + 1, 1, 4))
    sigma_series = np.empty((K + 1, 1, 4, 4))
    b_series[0, 0] = est.b
    sigma_series[0, 0] = est.Sigma
    for k in frames:
        try:
            est = rlsb_update(est, pm[k - 1])
        except NumericalError as exc:
            raise type(exc)(f"frame {k}: {exc.reason}", index=exc.index) from exc
        b_series[k, 0] = est.b
        sigma_series[k, 0] = est.Sigma
    return b_series, sigma_series, None


def _run_baseline(scenario: Scenario, truth: TruthData, tracks: LocalTracks):
    """Plain tracklet fusion on an unbiased world; no bias estimation."""
    steps = functools.cache(
        functools.partial(compose_steps, ncv_model(scenario.dt, scenario.fusion_q))
    )
    n_s = len(scenario.sensors)
    n_t = len(scenario.targets)

    def epoch(k: int, last: np.ndarray, reporting: np.ndarray):
        sel = np.flatnonzero(reporting)
        lags = np.broadcast_to((k - last[sel])[:, None], (sel.size, n_t))
        try:
            trk = compute_tracklet(
                tracks.reports(last)[sel],
                tracks.estimate(sel, slice(None), k),
                compose_lags(steps, lags),
            )
            g = reconstruct_local_gain(trk)
        except NumericalError as exc:
            if exc.index is None:
                raise
            i, t = exc.index
            where = f"sensor {sel[i]}, target {t}, frame {k}"
            raise type(exc)(f"{where}: {exc.reason}", index=exc.index) from exc
        y = np.zeros((n_t, n_s, 2))
        R = np.zeros((n_t, n_s, 2, 2))
        y[:, sel], R[:, sel] = trk.u[..., ::2].swapaxes(0, 1), g.R.swapaxes(0, 1)
        return CartesianMeasurement(y, R), np.broadcast_to(reporting, (n_t, n_s))

    return None, None, _fuse_all_sensors(scenario, truth, tracks, epoch)


def run_single(scenario: Scenario, run_index: int, method: str) -> SingleRun:
    """Simulate and estimate one Monte Carlo run."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    truth = simulate_truth(scenario, run_index, zero_bias=(method == "baseline"))
    try:
        tracks = run_local_tracks(scenario, truth)
        # Each method returns (b_series, sigma_series, fused_sqerr), with
        # None for the outputs it does not produce.
        if method == "fbe":
            b_series, sigma_series, fused_sqerr = _run_fbe(scenario, truth, tracks)
        elif method in ("ex", "exl"):
            b_series, sigma_series, fused_sqerr = _run_stacked(
                scenario, truth, tracks, reconstructed=(method == "exl")
            )
        else:
            b_series, sigma_series, fused_sqerr = _run_baseline(scenario, truth, tracks)
    except NumericalError as exc:
        # Keep the error type and the failing batch index.
        raise type(exc)(f"run {run_index}: {exc.reason}", index=exc.index) from exc
    out = SingleRun(
        b_series=b_series,
        sigma_series=sigma_series,
        local_sqerr=_position_sqerr(tracks.mean[0], truth.states),
        fused_sqerr=fused_sqerr,
    )
    _check_finite(scenario, out, tracks, run_index)
    return out


def _check_finite(
    scenario: Scenario, run: SingleRun, tracks: LocalTracks, run_index: int
) -> None:
    """Raise :class:`NumericalError` naming the first non-finite entry of any
    run output or local track.  ``fused_sqerr`` is NaN between fusion epochs
    by design and is checked only at frame 0 and the epochs."""
    # fbe estimates one bias group per sensor, ex/exl one for the pair.
    group = "sensor pair" if run.b_series is not None and run.b_series.shape[1] == 1 else "sensor"
    checks = [
        ("bias estimate", run.b_series, ("frame", group)),
        ("bias covariance", run.sigma_series, ("frame", group)),
        ("local track error", run.local_sqerr, ("frame",)),
        ("local track mean", tracks.mean, ("sensor", "target", "frame")),
        ("local track covariance", tracks.cov, ("sensor", "target", "frame")),
    ]
    if run.fused_sqerr is not None:
        fused = np.zeros_like(run.fused_sqerr)
        epochs = [0] + scenario.update_epochs()
        fused[epochs] = run.fused_sqerr[epochs]
        checks.append(("fused track error", fused, ("frame",)))
    for what, arr, axes in checks:
        if arr is None:
            continue
        bad = ~np.isfinite(arr)
        if bad.any():
            idx = np.argwhere(bad)[0]
            where = ", ".join(f"{a} {i}" for a, i in zip(axes, idx))
            raise NumericalError(f"run {run_index}: non-finite {what} at {where}")


def _run_task(args):
    scenario, run_index, method = args
    return run_single(scenario, run_index, method)


def run_monte_carlo(
    scenario: Scenario,
    method: str = "fbe",
    mc_runs: int | None = None,
    workers: int = 1,
) -> RunMetrics:
    """Execute the scenario's Monte Carlo runs and aggregate metrics.

    ``workers`` > 1 distributes runs over processes; per-run noise streams
    make the aggregate independent of scheduling.
    """
    runs = scenario.mc_runs if mc_runs is None else int(mc_runs)
    if runs < 1:
        raise ScenarioError("mc_runs must be at least 1")
    tasks = [(scenario, i, method) for i in range(runs)]
    if workers > 1:
        # Imported here: a serial run, the common case, never loads it.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            outs = list(pool.map(_run_task, tasks))
    else:
        outs = [run_single(scenario, i, method) for i in range(runs)]
    return aggregate_runs(scenario, method, outs)

