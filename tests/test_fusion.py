"""Fusion center: gain reconstruction, bias correction, sequential fusion,
and the per-frame fused bias estimation step."""

import logging
import math

import numpy as np
import pytest

from sensorreg.bias import (
    BiasEstimate,
    difference_pseudo_measurement,
    rlsb_update,
    sensor_pseudo_obs,
)
from sensorreg.coords import (
    BiasVector,
    CartesianMeasurement,
    apply_bias,
    cart_to_polar,
    jacobians_at,
    polar_to_cart,
)
from sensorreg.dynamics import compose_steps, ncv_model
from sensorreg.errors import NumericalError, SingularMatrixError
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


def test_bias_correct_round_trip_recovers_truth():
    # Bias a polar point, then correct with the true bias: the position must
    # come back to within numerical noise.
    r, theta = 18000.0, 0.7
    meas = polar_to_cart(*apply_bias(r, theta, BiasVector(b_r=20.0, b_theta=1e-3)), 0.0)
    t = _tracklet_from([meas[0], 0.0, meas[1], 0.0], np.eye(4))
    est = BiasEstimate(b=[20.0, 1e-3], Sigma=np.zeros((2, 2)))
    out = bias_correct(t, est, (10.0, 0.0))
    np.testing.assert_allclose(out.y, polar_to_cart(r, theta, 0.0), atol=1e-9)


def test_bias_correct_with_scale_round_trip():
    r, theta = 22000.0, -1.2
    bias = BiasVector(b_r=20.0, b_theta=1e-3, eps_r=0.001, eps_theta=0.001)
    meas = polar_to_cart(*apply_bias(r, theta, bias), 0.0)
    t = _tracklet_from([meas[0], 0.0, meas[1], 0.0], np.eye(4))
    est = BiasEstimate(b=[20.0, 1e-3, 0.001, 0.001], Sigma=np.zeros((4, 4)))
    out = bias_correct(t, est, (10.0, 0.0))
    np.testing.assert_allclose(out.y, polar_to_cart(r, theta, 0.0), atol=1e-8)


def test_bias_correct_with_sensor_origin():
    origin = np.array([5000.0, -2000.0])
    r, theta = 9000.0, 2.0
    meas = polar_to_cart(*apply_bias(r, theta, BiasVector(b_r=-15.0, b_theta=-2e-3)), 0.0, origin)
    t = _tracklet_from([meas[0], 0.0, meas[1], 0.0], np.eye(4))
    est = BiasEstimate(b=[-15.0, -2e-3], Sigma=np.zeros((2, 2)))
    out = bias_correct(t, est, (10.0, 0.0), origin=origin)
    np.testing.assert_allclose(out.y, polar_to_cart(r, theta, 0.0, origin), atol=1e-8)


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
    assert out.sensors.shape == (0,)


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
    """Two targets, three sensors; sensor 0 biased, others clean.  Report
    pairs, bias states and leave-one-out references are arrays over
    (sensor, target)."""
    rng = np.random.default_rng(11)
    model = ncv_model(1.0, 0.5)
    positions = [(0.0, 0.0), (15000.0, 0.0), (0.0, 15000.0)]
    sensors = SensorModel(position=positions, sigma_r=[10.0] * 3, sigma_theta=[1e-3] * 3)
    biases = [BiasVector(b_r=bias0[0], b_theta=bias0[1]), BiasVector(), BiasVector()]
    truths = [
        np.array([6000.0, 30.0, 4000.0, -20.0]),
        np.array([-3000.0, -10.0, 8000.0, 15.0]),
    ]
    L = 5
    prev = np.empty((3, 2), dtype=object)
    curr = np.empty((3, 2), dtype=object)
    for s, pos in enumerate(positions):
        for tgt, x0 in enumerate(truths):
            est = None
            truth = x0.copy()
            for k in range(L + 1):
                dx, dy = truth[0] - pos[0], truth[2] - pos[1]
                r, theta = apply_bias(
                    math.hypot(dx, dy),
                    math.atan2(dy, dx),
                    biases[s],
                    10.0 * rng.standard_normal(),
                    1e-3 * rng.standard_normal(),
                )
                z = CartesianMeasurement(
                    z=polar_to_cart(r, theta, 1e-3, pos), R=np.diag([100.0, (r * 1e-3) ** 2])
                )
                if est is None:
                    est = init_track(z, frame=0)
                    prev[s, tgt] = est
                else:
                    est = kf_predict(est, model)
                    est, _ = kf_update(est, z)
                if k < L:
                    truth = model.F @ truth
            curr[s, tgt] = est

    def stack(ests):
        return GaussianEstimate(
            mean=[[e.mean for e in row] for row in ests],
            cov=[[e.cov for e in row] for row in ests],
            frame=ests[0, 0].frame,
        )

    reported = np.ones((3, 2), dtype=bool)
    if nonreporting:
        reported[2] = False
    bias_states = BiasEstimate(
        b=np.zeros((3, 2)), Sigma=np.tile(np.diag([400.0, 1e-6]), (3, 1, 1))
    )
    # Each reference starts from the lowest-numbered other sensor's snapshot.
    ref = [min(r for r in range(3) if r != s) for s in range(3)]
    fused_prev = stack(prev[ref])
    return (stack(prev), stack(curr), reported), bias_states, fused_prev, model, sensors


def test_fbe_step_moves_biased_sensor_estimate():
    tracks, bias_states, fused_prev, model, sensors = _small_fbe_inputs()
    res = fbe_step(*tracks, bias_states, fused_prev, model, sensors)
    # The biased sensor's range estimate moves decisively toward the truth.
    assert res.bias_states.b[0, 0] > 5.0
    # Clean sensors stay within a few sigma of zero.
    for s in (1, 2):
        assert abs(res.bias_states.b[s, 0]) < 3 * math.sqrt(res.bias_states.Sigma[s, 0, 0]) + 3.0


def test_fbe_step_leave_one_out_structure():
    tracks, bias_states, fused_prev, model, sensors = _small_fbe_inputs()
    res = fbe_step(*tracks, bias_states, fused_prev, model, sensors)
    n_s, n_t = tracks[2].shape
    for s in range(n_s):
        for tgt in range(n_t):
            assert not res.used[s, tgt, s]
            assert res.used[s, tgt].sum() == n_s - 1


def test_fbe_step_skips_frame_with_single_reporter():
    (prev, curr, reported), bias_states, fused_prev, model, sensors = _small_fbe_inputs()
    only = np.zeros_like(reported)
    only[0] = True
    res = fbe_step(prev, curr, only, bias_states, fused_prev, model, sensors)
    for s in range(3):
        np.testing.assert_allclose(res.bias_states.b[s], bias_states.b[s])


def test_fbe_step_nonreporting_sensor_carried_forward():
    tracks, bias_states, fused_prev, model, sensors = _small_fbe_inputs(nonreporting=True)
    res = fbe_step(*tracks, bias_states, fused_prev, model, sensors)
    np.testing.assert_allclose(res.bias_states.b[2], bias_states.b[2])
    np.testing.assert_allclose(res.bias_states.Sigma[2], bias_states.Sigma[2])
    assert res.bias_states.b[0, 0] > 5.0
    for contributors in res.used[0]:
        assert np.flatnonzero(contributors).tolist() == [1]


def test_fbe_step_corrections_use_frame_start_estimates():
    # Presenting the sensors in reverse order must not change any sensor's
    # result, since corrections snapshot the bias estimates at the start of
    # the frame.
    (prev, curr, reported), bias_states, fused_prev, model, sensors = _small_fbe_inputs()
    res1 = fbe_step(prev, curr, reported, bias_states, fused_prev, model, sensors)
    rev = slice(None, None, -1)
    res2 = fbe_step(
        prev[rev], curr[rev], reported[rev], bias_states[rev], fused_prev[rev], model, sensors[rev]
    )
    for s in range(3):
        np.testing.assert_allclose(
            res1.bias_states.b[s], res2.bias_states.b[2 - s], rtol=1e-12
        )


def test_fbe_step_skips_only_the_degenerate_pair():
    # Sensor 1's report of target 0 carries no information (its update is
    # the pure prediction), so its tracklet fails; the result must be that
    # of the same frame without that pair.
    (prev, curr, reported), bias_states, fused_prev, model, sensors = _small_fbe_inputs()
    ms = compose_steps(model, curr.frame - prev.frame)
    curr.mean[1, 0] = ms.F @ prev.mean[1, 0]
    curr.cov[1, 0] = ms.F @ prev.cov[1, 0] @ ms.F.T + ms.Q
    res = fbe_step(prev, curr, reported, bias_states, fused_prev, model, sensors)
    assert res.skipped == [(1, 0, "track carried no new information over the interval")]

    without = reported.copy()
    without[1, 0] = False
    ref = fbe_step(prev, curr, without, bias_states, fused_prev, model, sensors)
    assert ref.skipped == []
    np.testing.assert_array_equal(res.live, without)
    np.testing.assert_array_equal(res.live, ref.live)
    np.testing.assert_array_equal(res.used, ref.used)
    np.testing.assert_array_equal(res.fused.frame, ref.fused.frame)
    for got, want in [
        (res.bias_states.b, ref.bias_states.b),
        (res.bias_states.Sigma, ref.bias_states.Sigma),
        (res.fused.mean, ref.fused.mean),
        (res.fused.cov, ref.fused.cov),
        (res.tracklets.u, ref.tracklets.u),
        (res.tracklets.U, ref.tracklets.U),
    ]:
        np.testing.assert_allclose(got, want, rtol=1e-12)
    # The leave-one-out references of target 0 lost sensor 1.
    assert res.used[0, 0].tolist() == [False, False, True]


def test_batched_sfa_skips_only_the_singular_element(caplog):
    model = ncv_model(1.0, 0.2)
    ms = compose_steps(model, 2)
    rng = np.random.default_rng(3)
    n = 3
    prev = FusedTrack(
        state=GaussianEstimate(
            mean=rng.standard_normal((n, 4)) * 10,
            cov=np.diag([50.0, 5.0, 50.0, 5.0]) * rng.uniform(1.0, 2.0, (n, 1, 1)),
            frame=0,
        )
    )
    y = rng.standard_normal((2, n, 2))
    R = np.tile(np.diag([10.0, 20.0]), (2, n, 1, 1))
    # Element 1's first measurement cancels its predicted position
    # covariance exactly, so its innovation covariance is zero.
    P1 = ms.F @ prev.state.cov[1] @ ms.F.T + ms.Q
    R[0, 1] = -0.5 * (P1 + P1.T)[::2, ::2]
    with caplog.at_level(logging.WARNING, logger="sensorreg.fusion"):
        out = sfa(prev, ms, [(y[0], R[0]), (y[1], R[1])])
    records = [r.getMessage() for r in caplog.records if r.name == "sensorreg.fusion"]
    assert records == ["skipping measurement 0 at batch index [1]: singular innovation"]
    assert out.sensors.tolist() == [[True, True], [False, True], [True, True]]
    for i in range(n):
        one = FusedTrack(state=GaussianEstimate(prev.state.mean[i], prev.state.cov[i], frame=0))
        meas = [(y[1, i], R[1, i])] if i == 1 else [(y[0, i], R[0, i]), (y[1, i], R[1, i])]
        ref = sfa(one, ms, meas)
        np.testing.assert_allclose(out.state.mean[i], ref.state.mean, rtol=1e-12)
        np.testing.assert_allclose(out.state.cov[i], ref.state.cov, rtol=1e-12)
        assert out.state.frame == ref.state.frame == 2


def test_batched_fusion_formulas_match_batch_free_calls():
    # One batched call of each fusion-center formula equals a loop of
    # batch-free calls, bit for bit.
    (prev, curr, _), _, _, model, sensors = _small_fbe_inputs()
    ms = compose_steps(model, curr.frame - prev.frame)
    t = compute_tracklet(prev, curr, ms)
    g = reconstruct_local_gain(t, t.pred_cov)
    rng = np.random.default_rng(8)
    A = rng.standard_normal((3, 4, 4))
    bias = BiasEstimate(
        b=rng.standard_normal((3, 4)) * [5.0, 1e-3, 1e-3, 1e-3], Sigma=A @ A.transpose(0, 2, 1)
    )
    geo = sensors[:, None]
    c = bias_correct(t, bias[:, None], (geo.sigma_r, geo.sigma_theta), origin=geo.position)
    zb = sensor_pseudo_obs(curr, prev, g.W, ms)
    r, th = cart_to_polar(t.u[..., ::2], geo.position)
    jac = jacobians_at(r, th)
    pm = difference_pseudo_measurement(zb, c.y, jac, c.R, g.R, offset_only=False)
    est = rlsb_update(bias[:, None], pm)
    for s in range(3):
        for tgt in range(2):
            ts = Tracklet(
                u=t.u[s, tgt], U=t.U[s, tgt], pred_cov=t.pred_cov[s, tgt], from_frame=0, to_frame=5
            )
            c1 = bias_correct(
                ts, bias[s], (10.0, 1e-3), origin=tuple(sensors.position[s])
            )
            np.testing.assert_array_equal(c.y[s, tgt], c1.y)
            np.testing.assert_array_equal(c.R[s, tgt], c1.R)
            z1 = sensor_pseudo_obs(curr[s, tgt], prev[s, tgt], g.W[s, tgt], ms)
            np.testing.assert_array_equal(zb[s, tgt], z1)
            j1 = jacobians_at(*cart_to_polar(t.u[s, tgt, ::2], sensors.position[s]))
            np.testing.assert_array_equal(jac.K[s, tgt], j1.K)
            pm1 = difference_pseudo_measurement(z1, c1.y, j1, c1.R, g.R[s, tgt], offset_only=False)
            e1 = rlsb_update(bias[s], pm1)
            np.testing.assert_array_equal(est.b[s, tgt], e1.b)
            np.testing.assert_array_equal(est.Sigma[s, tgt], e1.Sigma)


def test_fbe_step_names_the_pair_of_a_reference_failure(monkeypatch):
    # A failure after the per-pair stage names the frame, sensor and target
    # of the failing reference, not its position among the references.
    import sensorreg.fusion as fusion

    def rank_deficient(*args):
        raise SingularMatrixError("gain Gram matrix is singular (cond ~ inf)", index=(2,))

    monkeypatch.setattr(fusion, "sensor_pseudo_obs", rank_deficient)
    tracks, bias_states, fused_prev, model, sensors = _small_fbe_inputs()
    match = r"^frame 5, sensor 1, target 0: gain Gram matrix is singular \(cond ~ inf\)$"
    with pytest.raises(SingularMatrixError, match=match) as info:
        fbe_step(*tracks, bias_states, fused_prev, model, sensors)
    assert info.value.index is None
