"""Symmetries every correct estimator keeps: relabelling the targets or the
sensors of a scenario relabels its estimates and nothing else, and rotating
the whole scene changes neither.

Noise streams are keyed by sensor and target index, so each permutation test
permutes the truth of one run together with the scenario: the permuted run
sees the same trajectories and measurements under new labels.  Only the
summation order of the batched fusion-center sums changes, which moves the
bias estimates by rounding.  The rotation test runs without process noise,
so the trajectories rotate exactly and the polar noise draws are unchanged.
"""

import math

import dataclasses

import numpy as np
import pytest

import sensorreg.fusion as fusion
import sensorreg.harness.simulate as sim
from sensorreg.dynamics import compose_steps, ncv_model
from sensorreg.harness import load_scenario, run_local_tracks

# Largest change of b_series under a target permutation, relative to its
# largest entry: 2.3e-13 over runs 0-2 of the cases below.
TARGET_PERMUTATION_RTOL = 1e-12
# The same under a sensor permutation (b_series permuted with the sensors):
# 1.8e-12 over runs 0-2 and random orders on five_sensor_offset; the
# two-sensor swap is exact.
SENSOR_PERMUTATION_RTOL = 1e-11
# Largest change of b_series and fused_sqerr under a rotation of every sensor
# position and target state by 0.3 or 2.0 rad, relative to each array's
# largest entry: b_series 2.9e-13 (two_sensor) and 1.7e-12
# (five_sensor_offset), fused_sqerr 8.7e-13, over runs 0-2.
ROTATION_RTOL = 1e-11


def _permuted(sc, truth, targets=None, sensors=None):
    """The scenario and truth of one run with targets and sensors listed in
    the orders given (index arrays; None keeps an order)."""
    t = np.arange(len(sc.targets)) if targets is None else np.asarray(targets)
    s = np.arange(len(sc.sensors)) if sensors is None else np.asarray(sensors)
    sc = dataclasses.replace(
        sc, targets=[sc.targets[i] for i in t], sensors=[sc.sensors[i] for i in s]
    )
    per_sensor = (truth.polar_true, truth.polar_meas, truth.cart_z, truth.cart_R)
    return sc, sim.TruthData(truth.states[t], *(a[s][:, t] for a in per_sensor))


def _b_series(sc, truth, method):
    tracks = sim.run_local_tracks(sc, truth)
    if method == "fbe":
        return sim._run_fbe(sc, truth, tracks)[0]
    return sim._run_stacked(sc, truth, tracks, reconstructed=(method == "exl"))[0]


@pytest.mark.parametrize(
    "name, method",
    [
        ("two_sensor", "fbe"),
        ("two_sensor", "ex"),
        ("two_sensor", "exl"),
        ("five_sensor_offset", "fbe"),
        ("five_sensor_offset_scale", "fbe"),
    ],
)
def test_target_permutation_leaves_the_bias_estimates(name, method):
    sc = load_scenario(name)
    order = np.random.default_rng(1).permutation(len(sc.targets))
    for run in range(2):
        truth = sim.simulate_truth(sc, run)
        want = _b_series(sc, truth, method)
        got = _b_series(*_permuted(sc, truth, targets=order), method)
        atol = TARGET_PERMUTATION_RTOL * np.abs(want).max()
        np.testing.assert_allclose(got, want, rtol=0, atol=atol)


@pytest.mark.parametrize(
    "name, order", [("two_sensor", [1, 0]), ("five_sensor_offset", [4, 3, 2, 0, 1])]
)
def test_sensor_permutation_permutes_the_fbe_estimates(name, order):
    sc = load_scenario(name)
    for run in range(2):
        truth = sim.simulate_truth(sc, run)
        want = _b_series(sc, truth, "fbe")[:, order]
        got = _b_series(*_permuted(sc, truth, sensors=order), "fbe")
        if name == "two_sensor":
            np.testing.assert_array_equal(got, want)
        else:
            atol = SENSOR_PERMUTATION_RTOL * np.abs(want).max()
            np.testing.assert_allclose(got, want, rtol=0, atol=atol)


# Track covariances C(P) of a failing epoch, from each pair's predicted
# covariance P (stacked over targets), by original sensor number.  Sensor
# 0's C is indefinite, but P - C is well conditioned; sensor 3's C differs
# from P in one velocity direction, so P - C is singular and the pair's
# position information is nil.  A tracklet form chosen per batch, not per
# pair, would skip sensor 0's pairs in one sensor order and not the other.
_FAILING_EPOCH_KINDS = {
    0: lambda P: 0.5 * P - 1e4 * np.diag([0.0, 1.0, 0.0, 1.0]),
    3: lambda P: P - 10.0 * P[..., 1:2, 1:2] * np.diag([0.0, 1.0, 0.0, 0.0]),
}


def _failing_epoch_run(monkeypatch, sc, truth, sensors, frame):
    """b_series of an fbe run whose local tracks at ``frame`` are corrupted
    per ``_FAILING_EPOCH_KINDS`` (``sensors`` gives the original number of
    each sensor of ``sc``), and that frame's skip records by original
    number."""
    skipped = []
    # Every sensor reports at the same lag, so the pairs share one model.
    lag = sc.sensors[0].lag
    ms = compose_steps(ncv_model(sc.dt, sc.fusion_q), lag)

    def corrupted(scenario, truth):
        tracks = run_local_tracks(scenario, truth)
        for row, s in enumerate(sensors):
            if s in _FAILING_EPOCH_KINDS:
                P = ms.F @ tracks.cov[row, :, frame - lag] @ ms.F.T + ms.Q
                tracks.cov[row, :, frame] = _FAILING_EPOCH_KINDS[s](P)
        return tracks

    epochs = iter(sc.update_epochs())

    def recorded(*args):
        res = fusion.fbe_step(*args)
        if next(epochs) == frame:
            skipped.extend(sorted((int(sensors[s]), t, why) for s, t, why in res.skipped))
        return res

    monkeypatch.setattr(sim, "run_local_tracks", corrupted)
    monkeypatch.setattr(sim, "fbe_step", recorded)
    return _b_series(sc, truth, "fbe"), skipped


def test_sensor_permutation_permutes_a_failing_epoch(monkeypatch):
    # The skip records and b_series of an epoch in which some pairs fail
    # permute with the sensors, as those of a clean run do (b_series within
    # 1.8e-12 of its largest entry over runs 0-2).
    sc = load_scenario("five_sensor_offset")
    order = [4, 3, 2, 0, 1]
    frame = sc.update_epochs()[1]
    for run in range(2):
        truth = sim.simulate_truth(sc, run)
        want, want_skipped = _failing_epoch_run(monkeypatch, sc, truth, range(5), frame)
        got, got_skipped = _failing_epoch_run(
            monkeypatch, *_permuted(sc, truth, sensors=order), order, frame
        )
        assert want_skipped and {s for s, _, _ in want_skipped} == {3}
        assert got_skipped == want_skipped
        atol = SENSOR_PERMUTATION_RTOL * np.abs(want).max()
        np.testing.assert_allclose(got, want[:, order], rtol=0, atol=atol)


def _rotated(sc, angle):
    """The scenario with every sensor position and target state (positions
    and velocities) rotated by ``angle`` about the origin."""
    c, s = math.cos(angle), math.sin(angle)
    rot = np.array([[c, -s], [s, c]])
    targets = []
    for target in sc.targets:
        x = target.initial_state.copy()
        x[::2], x[1::2] = rot @ x[::2], rot @ x[1::2]
        targets.append(dataclasses.replace(target, initial_state=x))
    sensors = [dataclasses.replace(x, position=rot @ x.position) for x in sc.sensors]
    return dataclasses.replace(sc, sensors=sensors, targets=targets)


# Scale-bias scenarios stay out: an azimuth scale factor multiplies the
# azimuth itself, which a rotation shifts.
@pytest.mark.parametrize(
    "name, method",
    [
        ("two_sensor", "fbe"),
        ("two_sensor", "ex"),
        ("two_sensor", "exl"),
        ("two_sensor", "baseline"),
        ("five_sensor_offset", "fbe"),
    ],
)
def test_rotating_the_scene_leaves_the_estimates(name, method):
    sc = dataclasses.replace(load_scenario(name), process_noise_q=0.0)
    for angle in (0.3, 2.0):
        turned = _rotated(sc, angle)
        for run in range(2):
            want = sim.run_single(sc, run, method)
            got = sim.run_single(turned, run, method)
            for field in ("b_series", "fused_sqerr"):
                w, g = getattr(want, field), getattr(got, field)
                assert (g is None) == (w is None), field
                if w is not None:
                    atol = ROTATION_RTOL * np.nanmax(np.abs(w))
                    np.testing.assert_allclose(g, w, rtol=0, atol=atol, err_msg=field)
