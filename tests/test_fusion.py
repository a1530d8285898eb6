"""Fusion center: gain reconstruction, bias correction, sequential fusion,
and the per-frame fused bias estimation step."""

import math

import numpy as np
import pytest

from sensorreg.bias import BiasEstimate
from sensorreg.coords import (
    BiasVector,
    CartesianMeasurement,
    PolarMeasurement,
    apply_bias,
    conversion_gain,
)
from sensorreg.dynamics import compose_steps, ncv_model
from sensorreg.errors import NumericalError
from sensorreg.fusion import (
    FusedTrack,
    SensorModel,
    bias_correct,
    fbe_step,
    reconstruct_local_gain,
    sfa,
)
from sensorreg.trackers import GaussianEstimate, init_track, kf_predict, kf_update
from sensorreg.tracklets import Tracklet, compute_tracklet, tracklet_decorrelated


def _tracklet_from(u, U, pred_cov=None, frame=1):
    U = np.asarray(U, float)
    return Tracklet(
        u=np.asarray(u, float),
        U=U,
        pred_cov=np.eye(4) if pred_cov is None else np.asarray(pred_cov, float),
        from_frame=0,
        to_frame=frame,
    )


def test_local_gain_scalar_reduction():
    # Position variance 1 and equivalent noise 1 give gain one half.
    U = np.diag([1.0, 1e6, 1.0, 1e6])
    pred = np.diag([1.0, 1e-9, 1.0, 1e-9])
    t = _tracklet_from([2.0, 0.0, -3.0, 0.0], U, pred)
    g = reconstruct_local_gain(t, pred)
    assert g.W[0, 0] == pytest.approx(0.5, rel=1e-9)
    assert g.W[2, 1] == pytest.approx(0.5, rel=1e-9)
    np.testing.assert_allclose(g.y, [2.0, -3.0])


def test_local_gain_vanishes_for_uninformative_tracklet():
    U = 1e12 * np.eye(4)
    pred = np.diag([10.0, 1.0, 10.0, 1.0])
    t = _tracklet_from(np.zeros(4), U, pred)
    g = reconstruct_local_gain(t, pred)
    assert np.abs(g.W).max() < 1e-9


def test_local_gain_matches_true_kalman_gain_single_step():
    # Matched models, single-step lag: the reconstructed gain must equal the
    # local filter's own gain.
    rng = np.random.default_rng(2)
    model = ncv_model(1.0, 0.3)
    ms1 = compose_steps(model, 1)
    prev = GaussianEstimate(
        mean=rng.standard_normal(4) * 10,
        cov=np.diag([400.0, 25.0, 400.0, 25.0]),
        frame=0,
    )
    z = CartesianMeasurement(z=rng.standard_normal(2) * 100, R=np.diag([100.0, 250.0]))
    pred = kf_predict(prev, model)
    curr, rec = kf_update(pred, z)
    t = tracklet_decorrelated(prev, curr, ms1)
    g = reconstruct_local_gain(t, t.pred_cov)
    np.testing.assert_allclose(g.W, rec.gain, rtol=1e-6)
    np.testing.assert_allclose(g.R, z.R, rtol=1e-6)
    np.testing.assert_allclose(g.y, z.z, rtol=1e-6)


def test_bias_correct_null_correction():
    t = _tracklet_from([300.0, 1.0, 400.0, -1.0], np.eye(4))
    est = BiasEstimate(b=np.zeros(2), Sigma=np.zeros((2, 2)))
    out = bias_correct(t, est, (10.0, 0.0))
    np.testing.assert_allclose(out.y, [300.0, 400.0], rtol=1e-12)
    assert out.lambda_theta == 1.0


def test_bias_correct_round_trip_recovers_truth():
    # Bias a polar point, then correct with the true bias: the position must
    # come back to within numerical noise.
    truth = PolarMeasurement(r=18000.0, theta=0.7, sigma_r=10.0, sigma_theta=0.0)
    bias = BiasVector(b_r=20.0, b_theta=1e-3)
    meas = apply_bias(truth, bias)
    u = np.array(
        [meas.r * math.cos(meas.theta), 0.0, meas.r * math.sin(meas.theta), 0.0]
    )
    t = _tracklet_from(u, np.eye(4))
    est = BiasEstimate(b=[20.0, 1e-3], Sigma=np.zeros((2, 2)))
    out = bias_correct(t, est, (10.0, 0.0))
    expected = np.array([truth.r * math.cos(truth.theta), truth.r * math.sin(truth.theta)])
    np.testing.assert_allclose(out.y, expected, atol=1e-9)


def test_bias_correct_with_scale_round_trip():
    truth = PolarMeasurement(r=22000.0, theta=-1.2, sigma_r=10.0, sigma_theta=0.0)
    bias = BiasVector(b_r=20.0, b_theta=1e-3, eps_r=0.001, eps_theta=0.001)
    meas = apply_bias(truth, bias)
    u = np.array(
        [meas.r * math.cos(meas.theta), 0.0, meas.r * math.sin(meas.theta), 0.0]
    )
    t = _tracklet_from(u, np.eye(4))
    est = BiasEstimate(b=[20.0, 1e-3, 0.001, 0.001], Sigma=np.zeros((4, 4)))
    out = bias_correct(t, est, (10.0, 0.0))
    expected = np.array([truth.r * math.cos(truth.theta), truth.r * math.sin(truth.theta)])
    np.testing.assert_allclose(out.y, expected, atol=1e-8)


def test_bias_correct_with_sensor_origin():
    origin = np.array([5000.0, -2000.0])
    truth = PolarMeasurement(r=9000.0, theta=2.0, sigma_r=10.0, sigma_theta=0.0)
    bias = BiasVector(b_r=-15.0, b_theta=-2e-3)
    meas = apply_bias(truth, bias)
    u = np.array(
        [
            origin[0] + meas.r * math.cos(meas.theta),
            0.0,
            origin[1] + meas.r * math.sin(meas.theta),
            0.0,
        ]
    )
    t = _tracklet_from(u, np.eye(4))
    est = BiasEstimate(b=[-15.0, -2e-3], Sigma=np.zeros((2, 2)))
    out = bias_correct(t, est, (10.0, 0.0), origin=origin)
    expected = origin + truth.r * np.array([math.cos(truth.theta), math.sin(truth.theta)])
    np.testing.assert_allclose(out.y, expected, atol=1e-8)


def test_bias_correct_covariance_dominates_tracklet_noise():
    rng = np.random.default_rng(5)
    for _ in range(20):
        A = rng.standard_normal((4, 4))
        U = A @ A.T + np.eye(4)
        t = _tracklet_from([8000.0, 0.0, 6000.0, 0.0], U)
        est = BiasEstimate(
            b=[5.0, 1e-4], Sigma=np.diag(rng.uniform(0.1, 100.0, 2))
        )
        out = bias_correct(t, est, (10.0, 1e-3))
        H = np.array([[1.0, 0, 0, 0], [0, 0, 1.0, 0]])
        diff = out.R - H @ U @ H.T
        assert np.linalg.eigvalsh(diff).min() > -1e-9 * np.abs(out.R).max()


def test_bias_correct_rejects_zero_position():
    t = _tracklet_from(np.zeros(4), np.eye(4))
    est = BiasEstimate(b=np.zeros(2), Sigma=np.eye(2))
    with pytest.raises(NumericalError):
        bias_correct(t, est, (10.0, 1e-3))


def test_bias_correct_rejects_overcorrected_range():
    t = _tracklet_from([10.0, 0.0, 0.0, 0.0], np.eye(4))
    est = BiasEstimate(b=[100.0, 0.0], Sigma=np.eye(2))
    with pytest.raises(NumericalError):
        bias_correct(t, est, (10.0, 1e-3))


def test_sfa_single_measurement_equals_kalman_update():
    model = ncv_model(1.0, 0.2)
    ms = compose_steps(model, 1)
    prev = FusedTrack(
        state=GaussianEstimate(
            mean=[0.0, 1.0, 0.0, -1.0], cov=np.diag([50.0, 5.0, 50.0, 5.0]), frame=0
        )
    )
    y = np.array([3.0, -2.0])
    R = np.diag([10.0, 20.0])
    out = sfa(prev, ms, [(y, R)])
    ref = kf_predict(prev.state, model)
    ref, _ = kf_update(ref, CartesianMeasurement(z=y, R=R))
    np.testing.assert_allclose(out.state.mean, ref.mean, rtol=1e-10)
    np.testing.assert_allclose(out.state.cov, ref.cov, rtol=1e-10)


def test_sfa_empty_measurements_is_pure_prediction():
    model = ncv_model(1.0, 0.2)
    ms = compose_steps(model, 3)
    prev = FusedTrack(
        state=GaussianEstimate(mean=[1.0, 1.0, 1.0, 1.0], cov=np.eye(4), frame=0)
    )
    out = sfa(prev, ms, [])
    np.testing.assert_allclose(out.state.mean, ms.F @ prev.state.mean)
    np.testing.assert_allclose(out.state.cov, ms.F @ np.eye(4) @ ms.F.T + ms.Q, rtol=1e-12)
    assert out.state.frame == 3
    assert out.sensors == ()


def test_sfa_equals_batch_update_any_order():
    # Sequential processing of independent position measurements must equal
    # the stacked batch solution regardless of order.
    rng = np.random.default_rng(6)
    model = ncv_model(1.0, 0.5)
    trials = 200
    for _ in range(trials):
        M = rng.integers(2, 6)
        prev_cov = np.diag(rng.uniform(5.0, 200.0, 4))
        prev = FusedTrack(
            state=GaussianEstimate(mean=rng.standard_normal(4) * 10, cov=prev_cov, frame=0)
        )
        steps = int(rng.integers(1, 4))
        ms = compose_steps(model, steps)
        meas = []
        for _ in range(M):
            A = rng.standard_normal((2, 2))
            meas.append((rng.standard_normal(2) * 5, A @ A.T + 0.5 * np.eye(2)))
        order = rng.permutation(M)
        out = sfa(prev, ms, [meas[i] for i in order])

        # Batch oracle in information form.
        x_pred = ms.F @ prev.state.mean
        P_pred = ms.F @ prev.state.cov @ ms.F.T + ms.Q
        H = np.array([[1.0, 0, 0, 0], [0, 0, 1.0, 0]])
        J = np.linalg.inv(P_pred)
        rhs = J @ x_pred
        for y, R in meas:
            Ri = np.linalg.inv(R)
            J += H.T @ Ri @ H
            rhs += H.T @ Ri @ y
        x_batch = np.linalg.solve(J, rhs)
        P_batch = np.linalg.inv(J)
        np.testing.assert_allclose(out.state.mean, x_batch, rtol=1e-10, atol=1e-10)
        np.testing.assert_allclose(out.state.cov, P_batch, rtol=1e-10, atol=1e-12)


def _small_fbe_inputs(bias0=(25.0, 2e-3), nonreporting=False):
    """Two targets, three sensors; sensor 0 biased, others clean."""
    rng = np.random.default_rng(11)
    model = ncv_model(1.0, 0.5)
    sensors = {
        i: SensorModel(sensor_id=i, position=p, sigma_r=10.0, sigma_theta=1e-3)
        for i, p in enumerate([(0.0, 0.0), (15000.0, 0.0), (0.0, 15000.0)])
    }
    biases = {
        0: BiasVector(b_r=bias0[0], b_theta=bias0[1]),
        1: BiasVector(),
        2: BiasVector(),
    }
    truths = {
        0: np.array([6000.0, 30.0, 4000.0, -20.0]),
        1: np.array([-3000.0, -10.0, 8000.0, 15.0]),
    }
    L = 5
    tracks = {s: {} for s in sensors}
    for s, geo in sensors.items():
        for tgt, x0 in truths.items():
            est = None
            truth = x0.copy()
            prev_snapshot = None
            for k in range(L + 1):
                dx, dy = truth[0] - geo.position[0], truth[2] - geo.position[1]
                pm = PolarMeasurement(
                    r=math.hypot(dx, dy),
                    theta=math.atan2(dy, dx),
                    sigma_r=10.0,
                    sigma_theta=1e-3,
                )
                noisy = apply_bias(
                    pm, biases[s], (10.0 * rng.standard_normal(), 1e-3 * rng.standard_normal())
                )
                lam = conversion_gain(1e-3)
                z = CartesianMeasurement(
                    z=geo.position
                    + lam * noisy.r * np.array([math.cos(noisy.theta), math.sin(noisy.theta)]),
                    R=np.diag([100.0, (noisy.r * 1e-3) ** 2]),
                )
                if est is None:
                    est = init_track(z, frame=0)
                    prev_snapshot = est
                else:
                    est = kf_predict(est, model)
                    est, _ = kf_update(est, z)
                if k < L:
                    truth = model.F @ truth
            tracks[s][tgt] = (prev_snapshot, est)
    if nonreporting:
        del tracks[2]
    bias_states = {
        s: BiasEstimate(b=np.zeros(2), Sigma=np.diag([400.0, 1e-6])) for s in sensors
    }
    fused_prev = {
        s: {
            tgt: FusedTrack(
                state=tracks_all_first(tracks, s, tgt), sensors=(min(r for r in sensors if r != s),)
            )
            for tgt in truths
        }
        for s in sensors
    }
    return tracks, bias_states, fused_prev, model, sensors


def tracks_all_first(tracks, s, tgt):
    ref = min(r for r in tracks if r != s)
    prev, _ = tracks[ref][tgt]
    return GaussianEstimate(mean=prev.mean.copy(), cov=prev.cov.copy(), frame=prev.frame)


def test_fbe_step_moves_biased_sensor_estimate():
    tracks, bias_states, fused_prev, model, sensors = _small_fbe_inputs()
    res = fbe_step(tracks, bias_states, fused_prev, model, sensors)
    # The biased sensor's range estimate moves decisively toward the truth.
    assert res.bias_states[0].b[0] > 5.0
    # Clean sensors stay within a few sigma of zero.
    for s in (1, 2):
        assert abs(res.bias_states[s].b[0]) < 3 * math.sqrt(res.bias_states[s].Sigma[0, 0]) + 3.0


def test_fbe_step_leave_one_out_structure():
    tracks, bias_states, fused_prev, model, sensors = _small_fbe_inputs()
    res = fbe_step(tracks, bias_states, fused_prev, model, sensors)
    for s, per_target in res.used.items():
        for tgt, contributors in per_target.items():
            assert s not in contributors
            assert len(contributors) == len(sensors) - 1


def test_fbe_step_skips_frame_with_single_reporter():
    tracks, bias_states, fused_prev, model, sensors = _small_fbe_inputs()
    only = {0: tracks[0]}
    res = fbe_step(only, bias_states, fused_prev, model, sensors)
    for s in sensors:
        np.testing.assert_allclose(res.bias_states[s].b, bias_states[s].b)


def test_fbe_step_nonreporting_sensor_carried_forward():
    tracks, bias_states, fused_prev, model, sensors = _small_fbe_inputs(nonreporting=True)
    res = fbe_step(tracks, bias_states, fused_prev, model, sensors)
    np.testing.assert_allclose(res.bias_states[2].b, bias_states[2].b)
    np.testing.assert_allclose(res.bias_states[2].Sigma, bias_states[2].Sigma)
    assert res.bias_states[0].b[0] > 5.0
    for per_target in res.used[0].values():
        assert per_target == (1,)


def test_fbe_step_corrections_use_frame_start_estimates():
    # Updating in a different sensor order must not change the result, since
    # corrections snapshot the bias estimates at the start of the frame.
    tracks, bias_states, fused_prev, model, sensors = _small_fbe_inputs()
    res1 = fbe_step(tracks, bias_states, fused_prev, model, sensors)
    reordered = {s: tracks[s] for s in sorted(tracks, reverse=True)}
    res2 = fbe_step(reordered, bias_states, fused_prev, model, sensors)
    for s in sensors:
        np.testing.assert_allclose(res1.bias_states[s].b, res2.bias_states[s].b, rtol=1e-12)
