"""Ground-truth simulation, local tracking, and Monte Carlo estimation runs.

Four estimation methods are supported:

* ``fbe``     -- per-sensor bias estimation against a leave-one-out
                 reference, the other sensors' combined equivalent
                 measurement, with gains reconstructed from tracklets (any
                 sensor count), the bias-free local stage once over all
                 epochs.
* ``ex``      -- stacked two-sensor estimator, one cumulative information
                 sum over frames, fed with track updates deconvolved through
                 the local trackers' true gains (oracle path).
* ``exl``     -- the same stacked estimator fed with the single-step
                 position-marginal tracklets, which need no gain.
* ``baseline``-- no biases injected and no estimation; plain tracklet fusion
                 (best-case reference for track accuracy).

All randomness derives from counter-based Philox streams keyed by
(seed, purpose, run[, sensor], target), purpose 0 for target motion and 1
for measurement noise: each target's stream draws what the matching child
of ``SeedSequence(seed, spawn_key=(purpose, run[, sensor])).spawn(n_targets)``
would.  The children are never built: their Philox keys come from the
parents' pools in one vectorized step, and one Philox generator, re-keyed
per stream, draws them all.  Runs are therefore reproducible and
independent of execution order.  The truth layer builds one motion model
per distinct segment kind and gathers each (target, frame) transition from
a table of them; every sensor is measured in one batched pass over
(sensor, target, frame).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .._linalg import mv, solve_psd, symmetrize
from ..bias import (
    BiasEstimate,
    PseudoMeasurement,
    bias_information,
    pseudo_measurement_faults,
    sensor_pseudo_obs,
)
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
from ..dynamics import LagModels, ncv_model, nca_model, turn_model
from ..errors import NumericalError, ScenarioError, faults_at, located, raise_first
from ..fusion import (
    bias_correct,
    combine_slots,
    fbe_step,
    fused_update,
    local_stage,
    reconstruct_local_gain,
)
from ..trackers import (
    GaussianEstimate,
    ImmState,
    _wrap,
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


@dataclass
class TruthData:
    """Trajectories and measurements of one Monte Carlo run."""

    states: np.ndarray      # (n_targets, K+1, 4)
    polar_true: np.ndarray  # (n_sensors, n_targets, K+1, 2)
    polar_meas: np.ndarray  # (n_sensors, n_targets, K+1, 2)
    cart_z: np.ndarray      # (n_sensors, n_targets, K+1, 2) in the common frame
    cart_R: np.ndarray      # (n_sensors, n_targets, K+1, 2, 2)


@dataclass
class SingleRun:
    """Per-run estimation outputs prior to Monte Carlo aggregation."""

    b_series: np.ndarray | None        # (K+1, n_groups, d)
    sigma_series: np.ndarray | None    # (K+1, n_groups, d, d)
    local_sqerr: np.ndarray            # (K+1,) mean over targets, first sensor
    fused_sqerr: np.ndarray | None     # (K+1,) held between fusion epochs


def _motion_tables(scenario: Scenario) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Single-step truth transitions and process-noise Cholesky factors, each
    (n_kinds, 4, 4), and the (n_targets, K) table of the kind in force at
    each target and frame 0..K-1.

    One model is built per distinct segment kind; each target's last segment
    extends to the final frame.
    """
    K = scenario.frames
    kinds: dict[tuple[str, float], int] = {}
    seg_kinds = []
    # 1 + the number of the segment starting at each (target, frame), 0
    # elsewhere; segments are numbered in order, so a running maximum along
    # the frames gives the segment in force.
    starts = np.zeros((len(scenario.targets), K), dtype=np.intp)
    for t, target in enumerate(scenario.targets):
        k = 0
        for seg in target.segments:
            if k < K:
                key = (seg.model, seg.omega if seg.model == "turn" else 0.0)
                seg_kinds.append(kinds.setdefault(key, len(kinds)))
                starts[t, k] = len(seg_kinds)
            k += seg.frames
    table = np.array(seg_kinds)[np.maximum.accumulate(starts, axis=1) - 1]
    q = scenario.process_noise_q
    models = [
        ncv_model(scenario.dt, q) if model == "ncv" else turn_model(scenario.dt, omega, q)
        for model, omega in kinds
    ]
    Q = np.stack([m.Q for m in models])
    # A noise-free model (q = 0) has no Cholesky factor and adds no noise.
    chol = np.zeros_like(Q)
    noisy = Q.any(axis=(-2, -1))
    chol[noisy] = np.linalg.cholesky(Q[noisy])
    return np.stack([m.F for m in models]), chol, table


def _propagate_targets(scenario: Scenario, noise: np.ndarray | None) -> np.ndarray:
    """Trajectories (n_targets, K+1, 4) driven by the white process noise
    ``noise`` (n_targets, K, 4), scaled by each segment model's Cholesky
    factor, or noise-free when ``noise`` is None; all targets advance in
    lockstep."""
    F, chol, table = _motion_tables(scenario)
    w = None if noise is None else mv(chol[table], noise)
    F = F[table]
    states = np.empty((len(scenario.targets), scenario.frames + 1, 4))
    x = states[:, 0] = np.array([target.initial_state for target in scenario.targets])
    for k in range(scenario.frames):
        x = mv(F[:, k], x)
        if w is not None:
            x += w[:, k]
        states[:, k + 1] = x
    return states


# numpy's SeedSequence mixing constants (numpy/random/bit_generator.pyx).
# _POW_A[i] is MULT_A**i and _HASH_B[i] generate_state's hash constant after
# i words, each modulo 2**32, for the four steps over a four-word pool.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_POW_A = np.array([pow(_MULT_A, i, 1 << 32) for i in range(5)], dtype=np.uint32)[:, None, None]
_HASH_B = np.array(
    [_INIT_B * pow(_MULT_B, i, 1 << 32) & 0xFFFFFFFF for i in range(5)], dtype=np.uint32
)[:, None, None]


def _n_words(value: int) -> int:
    """Number of 32-bit words SeedSequence splits a non-negative int into."""
    return max(1, -(-value.bit_length() // 32))


def _child_keys(parents: list[np.random.SeedSequence], n: int) -> np.ndarray:
    """Philox keys (len(parents), n, 2), uint64, of the children that each
    parent's ``spawn(n)`` gives, derived without building them.

    A child's entropy is its parent's with the child index appended as one
    more word, so its pool continues the parent's ``pool``: pool word i is
    mixed with the i-th hashmix of the index.  The hash constant continues
    where the parent's mixing left it, at ``INIT_A * MULT_A**(4 * words)``
    after ``words`` entropy words (at least four, the pool size).  The key
    is the four-word ``generate_state`` of that pool.  Each step runs on
    every (pool word, parent, child) at once; uint32 arithmetic wraps
    modulo 2**32 as numpy's C code does.
    """
    words = [max(_n_words(p.entropy), 4) + sum(map(_n_words, p.spawn_key)) for p in parents]
    h = np.array([_INIT_A * pow(_MULT_A, 4 * w, 1 << 32) & 0xFFFFFFFF for w in words], np.uint32)
    # Hash constants (5, parent, 1): hashmix i starts at h[i], ends at h[i + 1].
    h = _POW_A * h[:, None]
    v = (np.arange(n, dtype=np.uint32) ^ h[:4]) * h[1:]
    v ^= v >> 16
    v = _MIX_MULT_L * np.array([p.pool for p in parents]).T[..., None] - _MIX_MULT_R * v
    v ^= v >> 16
    v = (v ^ _HASH_B[:4]) * _HASH_B[1:]
    v ^= v >> 16
    # Little-endian word pairs make the two 64-bit key words.
    return np.ascontiguousarray(np.moveaxis(v, 0, -1), dtype="<u4").view("<u8").astype(np.uint64)


def _standard_normal(
    generator: np.random.Generator, fresh: dict, keys: np.ndarray, shape: tuple
) -> np.ndarray:
    """Draws (*keys.shape[:-1], *shape), one block per Philox key, each as
    a new ``Philox`` under that key would draw it.

    ``generator`` draws every block; the ``state`` setter re-keys its bit
    generator per block with ``fresh``, the state of a new Philox (zero
    counter, empty buffer), under the block's key.
    """
    out = np.empty(keys.shape[:-1] + shape)
    for key, block in zip(keys.reshape(-1, 2).tolist(), out.reshape((-1,) + shape)):
        fresh["state"]["key"] = key
        generator.bit_generator.state = fresh
        generator.standard_normal(out=block)
    return out


def simulate_truth(scenario: Scenario, run_index: int, zero_bias: bool = False) -> TruthData:
    """Generate target trajectories and per-sensor measurements for one run.

    Deterministic in (rng_seed, run_index); ``zero_bias`` replaces every
    sensor's bias with zero while keeping the same noise draws, which gives
    paired biased/unbiased comparisons.  Every sensor is measured in one
    batched pass over (sensor, target, frame).
    """
    K = scenario.frames
    n_t = len(scenario.targets)
    seed, run = int(scenario.rng_seed), int(run_index)
    # One stream per target (purpose 0) and per (sensor, target) (purpose
    # 1): the children that ``spawn`` would append to these keys.
    spawn_keys = [(0, run)] + [(1, run, s) for s in range(len(scenario.sensors))]
    parents = [np.random.SeedSequence(seed, spawn_key=key) for key in spawn_keys]
    keys = _child_keys(parents, n_t)
    bit_generator = np.random.Philox(parents[0])
    fresh = bit_generator.state
    generator = np.random.Generator(bit_generator)
    states = _propagate_targets(scenario, _standard_normal(generator, fresh, keys[0], (K, 4)))
    wn = _standard_normal(generator, fresh, keys[1:], (K + 1, 2))

    # Per-sensor geometry, noise and bias on the leading axis, broadcast
    # over (target, frame).
    sensors = scenario.sensor_models()[:, None, None]
    r, theta = cart_to_polar(states[..., ::2], sensors.position)
    r_max = r.max(axis=(1, 2))
    for s, sensor in enumerate(scenario.sensors):
        ratio = float(r_max[s]) * sensor.sigma_theta**2 / sensor.sigma_r
        if ratio >= CONVERSION_VALIDITY_LIMIT:
            warnings.warn(
                f"sensor {s}: conversion validity ratio {ratio:.3g} exceeds "
                f"{CONVERSION_VALIDITY_LIMIT}",
                RuntimeWarning,
                stacklevel=2,
            )
    bias = BiasVector()
    if not zero_bias:
        fields = np.array([sensor.bias.as_array() for sensor in scenario.sensors]).T
        bias = BiasVector(*fields[..., None, None])
    with located(lambda s, t, k: f"run {run_index}: sensor {s}, target {t}, frame {k}"):
        r_m, t_m = apply_bias(
            r, theta, bias, sensors.sigma_r * wn[..., 0], sensors.sigma_theta * wn[..., 1]
        )
    t_m = wrap_angle(t_m)
    return TruthData(
        states=states,
        polar_true=np.stack([r, theta], axis=-1),
        polar_meas=np.stack([r_m, t_m], axis=-1),
        cart_z=polar_to_cart(r_m, t_m, sensors.sigma_theta, sensors.position),
        cart_R=converted_covariance(r_m, t_m, sensors.sigma_r, sensors.sigma_theta),
    )


def nominal_geometry(scenario: Scenario) -> np.ndarray:
    """Noise-free trajectories (n_targets, K+1, 4) used by the bound path."""
    return _propagate_targets(scenario, None)


def _local_model(scenario: Scenario):
    lf = scenario.local_filter
    if lf.type == "kf":
        return ncv_model(scenario.dt, lf.q)
    if lf.type == "imm_ncv_ncv":
        return [ncv_model(scenario.dt, lf.q1), ncv_model(scenario.dt, lf.q2)]
    return [nca_model(scenario.dt, lf.q1), ncv_model(scenario.dt, lf.q2)]


def run_local_tracks(scenario: Scenario, truth: TruthData) -> GaussianEstimate:
    """Run the configured local tracker on every (sensor, target) stream.

    All streams advance in lockstep: each frame is one batched tracker call
    over the (sensor, target) axes, which reads that frame's measurements
    as views and writes its estimates as one contiguous block of
    frame-major buffers.  The returned estimate views those buffers, batch
    (sensor, target, frame) and ``frame`` the frame axis: what a sensor
    reports, so no filter gain.  A singular matrix is reported with the
    sensor, target and frame of the stream it occurred in.  An IMM mode
    left unreachable is reported at the frame whose update left it so
    (frame 0 for the initial mode probabilities), one frame before the
    mixing it would stop.
    """
    K = scenario.frames
    shape = (K + 1, len(scenario.sensors), len(scenario.targets))
    mean = np.empty(shape + (4,))
    cov = np.empty(shape + (4, 4))
    is_kf = scenario.local_filter.type == "kf"
    models = _local_model(scenario)
    z, R = np.moveaxis(truth.cart_z, 2, 0), np.moveaxis(truth.cart_R, 2, 0)

    est = init_track(CartesianMeasurement(z=z[0], R=R[0]))
    mean[0], cov[0] = est.mean, est.cov
    k = 0
    with located(lambda s, t: f"sensor {s}, target {t}, frame {k}"):
        if not is_kf:
            state = ImmState.from_track(est, models, IMM_INITIAL_PROBS, IMM_TRANSITION)
        for k in range(1, K + 1):
            meas = _wrap(CartesianMeasurement, z=z[k], R=R[k])
            if is_kf:
                est, _ = kf_update(kf_predict(est, models), meas)
            else:
                state, est = imm_step(state, meas)
            mean[k], cov[k] = est.mean, est.cov
    return GaussianEstimate(np.moveaxis(mean, 0, 2), np.moveaxis(cov, 0, 2), np.arange(K + 1))


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


def _epoch_pairs(scenario: Scenario, tracks: GaussianEstimate, lag_models: LagModels):
    """Every update epoch's report pairs, a row of targets per reporting
    (epoch, sensor): the epochs, the (epoch, sensor) mask of the reporting
    sensors, each row's sensor, the row of each (epoch, sensor) (a silent
    sensor's is its epoch's last reporting row, a stand-in), then the
    L-step predictions of each row's earlier reports (at the last epoch,
    or frame 0, its sensor reported at) and its reports, batch (row,
    target)."""
    epochs = np.array(scenario.update_epochs(), dtype=int)
    frames = np.concatenate([[0], epochs])
    reporting = scenario.reporting_schedule()[frames]
    # Row of ``frames`` at which each sensor last reported, up to each row.
    last = np.maximum.accumulate(np.where(reporting, np.arange(len(frames))[:, None], 0))
    reporting = reporting[1:]
    e, sensor = np.nonzero(reporting)
    row = np.cumsum(reporting).reshape(reporting.shape) - 1
    rows = np.where(reporting, row, row[:, -1:])
    s, t = sensor[:, None], np.arange(len(scenario.targets))
    prev = tracks[s, t, frames[last[:-1]][e, sensor, None]]
    curr = tracks[s, t, epochs[e, None]]
    pred = kf_predict(prev, lag_models(curr.frame - prev.frame))
    return epochs, reporting, sensor, rows, pred, curr


def _raise_first_epoch(faults, epochs: np.ndarray) -> None:
    """Raise the first of ``faults``, masks over (epoch, sensor, target),
    that the earliest failing epoch fails, named by sensor, target and
    frame: what a loop raising each epoch's first fault would raise."""
    failing = np.any([failed.any(axis=(1, 2)) for _, failed in faults], axis=0)
    if failing.any():
        e = failing.argmax()
        with located(lambda s, t: f"sensor {s}, target {t}, frame {epochs[e]}"):
            raise_first(faults_at(faults, e))


def _fuse_all_sensors(
    scenario: Scenario,
    truth: TruthData,
    tracks: GaussianEstimate,
    lag_models: LagModels,
    z: CartesianMeasurement,
    present: np.ndarray,
) -> np.ndarray:
    """Fuse every reporting sensor into one track per target.

    Each fused track starts from sensor 0's frame-0 estimate and is
    predicted with the run's fusion-center ``lag_models``.  ``z`` holds the
    position measurements of every update epoch with one slot per sensor,
    batch shape (epochs, n_targets, n_sensors), and ``present`` the mask of
    the slots that hold one, which broadcasts against that shape.  No
    fused state enters the slots' combination, so one :func:`combine_slots`
    call combines each (epoch, target)'s measurements on the mask, in
    ascending sensor order, reading no slot off it; each epoch then makes
    one :func:`fused_update`.

    Returns the fused squared position error (mean over targets) per frame:
    each frame holds that of the last update at or before it, frame 0's
    before the first epoch.
    """
    epochs = scenario.update_epochs()
    fused = tracks[0, :, 0]
    means = np.empty((len(scenario.targets), len(epochs) + 1, 4))
    means[:, 0] = fused.mean
    slots = combine_slots(z, present)
    for e, k in enumerate(epochs):
        fused = fused_update(fused, lag_models(k - fused.frame), slots[e])
        means[:, e + 1] = fused.mean
    frames = [0] + epochs
    sqerr = _position_sqerr(means, truth.states[:, frames])
    return np.repeat(sqerr, np.diff(frames + [scenario.frames + 1]))


def _run_fbe(scenario: Scenario, truth: TruthData, tracks: GaussianEstimate):
    """Fused bias estimation per sensor, then all-sensor fusion with the
    corrected tracklets; one fusion-center lag cache serves the local
    stage's predictions and the fusion.

    No bias estimate enters the local stage, so it runs once over every
    epoch's reporting (sensor, target) pairs, in O(epochs x sensors x
    targets) memory, and each epoch's bias step reads its slice.  That
    step carries only the bias estimates from epoch to epoch: each
    sensor's reference is the other sensors' combined measurement of the
    epoch, and no track enters it.  The all-sensor fusion reads the bias
    estimates but never feeds them: it runs after the last epoch, on
    every epoch's tracklets corrected in one call with that epoch's
    updated estimates.
    """
    K = scenario.frames
    n_s = len(scenario.sensors)
    n_t = len(scenario.targets)
    d = scenario.bias_dim
    lag_models = LagModels(ncv_model(scenario.dt, scenario.fusion_q))
    sensors = scenario.sensor_models()
    epochs, reporting, sensor, rows, *pairs = _epoch_pairs(scenario, tracks, lag_models)
    # The stage of the reporting rows on the (epoch, sensor, target) grid;
    # the predictions and reports are dropped once it is built.  The rows'
    # own tracklets are kept for the bias correction.
    row_sensors = sensors[sensor]
    stage = local_stage(*pairs, row_sensors)
    tracklets, local = stage.tracklets, stage[rows]
    del pairs, stage
    bias = _initial_bias_states(scenario)

    b_series = np.empty((K + 1, n_s, d))
    sigma_series = np.empty((K + 1, n_s, d, d))
    b_series[:], sigma_series[:] = bias.b, bias.Sigma
    live = np.zeros((len(epochs), n_s, n_t), dtype=bool)
    for e, k in enumerate(epochs.tolist()):
        res = fbe_step(np.broadcast_to(reporting[e, :, None], (n_s, n_t)), local[e], bias, sensors)
        bias, live[e] = res.bias_states, res.live
        # Estimates hold until the next epoch overwrites the later frames.
        b_series[k:], sigma_series[k:] = bias.b, bias.Sigma

    # Each reporting row is corrected with its epoch's updated estimate of
    # its sensor, then gathered onto the grid as the stage was.
    del local
    geo = row_sensors[:, None]
    c, faults = bias_correct(
        tracklets,
        BiasEstimate(b_series[epochs][reporting], sigma_series[epochs][reporting])[:, None],
        (geo.sigma_r, geo.sigma_theta),
        origin=geo.position,
    )
    faults = faults_at(faults, rows)
    _raise_first_epoch([(reason, failed & live) for reason, failed in faults], epochs)
    z = CartesianMeasurement(c.z[rows].swapaxes(1, 2), c.R[rows].swapaxes(1, 2))
    fused_sqerr = _fuse_all_sensors(scenario, truth, tracks, lag_models, z, live.swapaxes(1, 2))
    return b_series, sigma_series, fused_sqerr


def _run_stacked(
    scenario: Scenario, truth: TruthData, tracks: GaussianEstimate, reconstructed: bool
):
    """Two-sensor stacked-bias estimator.  ``ex`` deconvolves each track
    update through the local filter's true gain, formed from its own
    prediction and the true noise; ``exl`` (``reconstructed``) folds the
    single-step tracklet, which that deconvolution returns at lag 1."""
    if len(scenario.sensors) != 2:
        raise ScenarioError("the stacked estimator is defined for two sensors")
    if scenario.estimate_scale_bias:
        raise ScenarioError("the stacked estimator estimates offsets only")
    if any(s.lag != 1 for s in scenario.sensors):
        raise ScenarioError("the stacked estimator expects per-frame reporting")
    if not reconstructed and scenario.local_filter.type != "kf":
        raise ScenarioError("true-gain path requires the plain Kalman local tracker")

    K = scenario.frames
    positions = scenario.sensor_models().position[:, None, None]

    # No frame's pseudo-measurements depend on the bias estimate, so every
    # (sensor, target, frame) of frames 1..K is built in one batched pass,
    # and the recursive least-squares estimate is a cumulative sum below.
    prev, curr = tracks[:, :, :-1], tracks[:, :, 1:]
    pred = kf_predict(prev, ncv_model(scenario.dt, scenario.fusion_q))
    with located(lambda s, t, j: f"sensor {s}, target {t}, frame {j + 1}"):
        if reconstructed:
            trk, faults = tracklet_decorrelated(pred, curr)
            zb, R = trk.u, symmetrize(trk.U)
            r_m, t_m = cart_to_polar(trk.u, positions)
        else:
            R = truth.cart_R[:, :, 1:]
            gain, faults = reconstruct_local_gain(R, kf_predict(prev, _local_model(scenario)).cov)
            zb, gram_faults = sensor_pseudo_obs(curr, pred, gain.W)
            faults += gram_faults
            r_m, t_m = truth.polar_meas[:, :, 1:, 0], truth.polar_meas[:, :, 1:, 1]
        raise_first(faults)
        B = jacobians_at(r_m, t_m).B
    # One stacked pseudo-measurement per (frame, target).
    pm = PseudoMeasurement(
        z=(zb[0] - zb[1]).swapaxes(0, 1),
        H=np.concatenate([B[0], -B[1]], axis=-1).swapaxes(0, 1),
        R=(R[0] + R[1]).swapaxes(0, 1),
    )
    # Sigma_k = (Sigma_0^-1 + sum_j<=k H'R^-1H)^-1 and b_k = Sigma_k sum_j<=k
    # H'R^-1z (zero prior mean), each frame's targets one stack.
    info = np.empty((K + 1, 4, 4))
    info[0] = np.diag(np.tile(scenario.bias_prior_sigma(), 2) ** -2)
    info_z = np.zeros((K + 1, 4))
    with located(lambda j, t: f"frame {j + 1}, target {t}"):
        raise_first(pseudo_measurement_faults(pm))
    info[1:], info_z[1:] = bias_information(pm)
    sigma = symmetrize(solve_psd(np.cumsum(info, axis=0), np.eye(4), context="bias information"))
    return mv(sigma, np.cumsum(info_z, axis=0))[:, None], sigma[:, None], None


def _run_baseline(scenario: Scenario, truth: TruthData, tracks: GaussianEstimate):
    """Plain tracklet fusion on an unbiased world; no bias estimation.  The
    tracklets of every epoch's reporting pairs come from one batched pass."""
    lag_models = LagModels(ncv_model(scenario.dt, scenario.fusion_q))
    epochs, reporting, _, rows, pred, curr = _epoch_pairs(scenario, tracks, lag_models)
    trk, faults = compute_tracklet(pred, curr)
    reporting = reporting[..., None]
    faults = faults_at(faults, rows)
    _raise_first_epoch([(why, failed & reporting) for why, failed in faults], epochs)
    z = CartesianMeasurement(trk.u[rows].swapaxes(1, 2), symmetrize(trk.U)[rows].swapaxes(1, 2))
    present = reporting.swapaxes(1, 2)
    return None, None, _fuse_all_sensors(scenario, truth, tracks, lag_models, z, present)


def run_single(scenario: Scenario, run_index: int, method: str) -> SingleRun:
    """Simulate and estimate one Monte Carlo run."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    truth = simulate_truth(scenario, run_index, zero_bias=(method == "baseline"))
    with located(f"run {run_index}"):
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
    out = SingleRun(
        b_series=b_series,
        sigma_series=sigma_series,
        local_sqerr=_position_sqerr(tracks.mean[0], truth.states),
        fused_sqerr=fused_sqerr,
    )
    _check_finite(out, tracks, run_index)
    return out


def _check_finite(run: SingleRun, tracks: GaussianEstimate, run_index: int) -> None:
    """Raise :class:`NumericalError` naming the first non-finite entry of any
    run output or local track and quoting its value, with ``failed`` over
    the named axes."""
    # fbe estimates one bias group per sensor, ex/exl one for the pair.
    group = "sensor pair" if run.b_series is not None and run.b_series.shape[1] == 1 else "sensor"
    checks = [
        ("bias estimate", run.b_series, ("frame", group)),
        ("bias covariance", run.sigma_series, ("frame", group)),
        ("local track error", run.local_sqerr, ("frame",)),
        ("local track mean", tracks.mean, ("sensor", "target", "frame")),
        ("local track covariance", tracks.cov, ("sensor", "target", "frame")),
        ("fused track error", run.fused_sqerr, ("frame",)),
    ]
    for what, arr, axes in checks:
        if arr is None:
            continue
        bad = ~np.isfinite(arr)
        if bad.any():
            with located(
                lambda *index: f"run {run_index}: non-finite {what} at "
                + ", ".join(f"{a} {i}" for a, i in zip(axes, index))
            ):
                raise NumericalError(
                    f"{arr[bad][0]:g}", bad.reshape(bad.shape[: len(axes)] + (-1,)).any(-1)
                )


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

    ``workers`` > 1 distributes runs over at most that many processes, and
    never more than there are runs; per-run noise streams make the
    aggregate independent of scheduling.
    """
    runs = scenario.mc_runs if mc_runs is None else int(mc_runs)
    if runs < 1:
        raise ScenarioError("mc_runs must be at least 1")
    if workers < 1:
        raise ScenarioError("workers must be at least 1")
    # A fork-based pool starts all its processes at once.
    workers = min(workers, runs)
    tasks = [(scenario, i, method) for i in range(runs)]
    if workers > 1:
        # Imported here: a serial run, the common case, never loads it.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            outs = list(pool.map(_run_task, tasks))
    else:
        outs = [run_single(scenario, i, method) for i in range(runs)]
    return aggregate_runs(scenario, method, outs)

