"""Fusion center: gain reconstruction, bias correction, sequential fusion,
and the per-frame fused bias estimation step."""

import copy
import logging
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sensorreg.fusion as fusion
from conftest import checked
from sensorreg._linalg import inv_spd2_masked, mt, mv, symmetrize
from sensorreg.bias import (
    BiasEstimate,
    PseudoMeasurement,
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
from sensorreg.dynamics import LagModels, compose_steps, ncv_model
from sensorreg.errors import NumericalError
from sensorreg.fusion import (
    SensorModel,
    bias_correct,
    combine_slots,
    fbe_step,
    local_stage,
    reconstruct_local_gain,
    sfa,
)
from sensorreg.trackers import GaussianEstimate, init_track, kf_predict, kf_update
from sensorreg.tracklets import (
    Tracklet,
    compute_tracklet,
    tracklet_decorrelated,
    tracklet_inverse_kf,
)


def _tracklet_from(u, U):
    """A position tracklet: ``u`` (2,), ``U`` (2, 2)."""
    return Tracklet(u=np.asarray(u, float), U=np.asarray(U, float))


def test_local_gain_scalar_reduction():
    # Position variance 1 and equivalent noise 1 give gain one half.
    pred = np.diag([1.0, 1e-9, 1.0, 1e-9])
    t = _tracklet_from([2.0, -3.0], np.eye(2))
    g = checked(reconstruct_local_gain(t.U, pred))
    assert g.W[0, 0] == pytest.approx(0.5, rel=1e-9)
    assert g.W[2, 1] == pytest.approx(0.5, rel=1e-9)


def test_local_gain_vanishes_for_uninformative_tracklet():
    pred = np.diag([10.0, 1.0, 10.0, 1.0])
    t = _tracklet_from(np.zeros(2), 1e12 * np.eye(2))
    g = checked(reconstruct_local_gain(t.U, pred))
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
    pred1 = kf_predict(prev, ms1)
    t = checked(tracklet_decorrelated(pred1, curr))
    g = checked(reconstruct_local_gain(t.U, pred1.cov))
    np.testing.assert_allclose(g.W, rec.gain, rtol=1e-6)
    np.testing.assert_allclose(g.R, z.R, rtol=1e-6)
    np.testing.assert_allclose(t.u, z.z, rtol=1e-6)


def test_bias_correct_null_correction():
    t = _tracklet_from([300.0, 400.0], np.eye(2))
    est = BiasEstimate(b=np.zeros(2), Sigma=np.zeros((2, 2)))
    out = checked(bias_correct(t, est, (10.0, 0.0)))
    np.testing.assert_allclose(out.z, [300.0, 400.0], rtol=1e-12)


def test_bias_correct_round_trip_recovers_truth():
    # Bias a polar point, then correct with the true bias: the position must
    # come back to within numerical noise.
    r, theta = 18000.0, 0.7
    meas = polar_to_cart(*apply_bias(r, theta, BiasVector(b_r=20.0, b_theta=1e-3)), 0.0)
    t = _tracklet_from(meas, np.eye(2))
    est = BiasEstimate(b=[20.0, 1e-3], Sigma=np.zeros((2, 2)))
    out = checked(bias_correct(t, est, (10.0, 0.0)))
    np.testing.assert_allclose(out.z, polar_to_cart(r, theta, 0.0), atol=1e-9)


def test_bias_correct_with_scale_round_trip():
    r, theta = 22000.0, -1.2
    bias = BiasVector(b_r=20.0, b_theta=1e-3, eps_r=0.001, eps_theta=0.001)
    meas = polar_to_cart(*apply_bias(r, theta, bias), 0.0)
    t = _tracklet_from(meas, np.eye(2))
    est = BiasEstimate(b=[20.0, 1e-3, 0.001, 0.001], Sigma=np.zeros((4, 4)))
    out = checked(bias_correct(t, est, (10.0, 0.0)))
    np.testing.assert_allclose(out.z, polar_to_cart(r, theta, 0.0), atol=1e-8)


def test_bias_correct_with_sensor_origin():
    origin = np.array([5000.0, -2000.0])
    r, theta = 9000.0, 2.0
    meas = polar_to_cart(*apply_bias(r, theta, BiasVector(b_r=-15.0, b_theta=-2e-3)), 0.0, origin)
    t = _tracklet_from(meas, np.eye(2))
    est = BiasEstimate(b=[-15.0, -2e-3], Sigma=np.zeros((2, 2)))
    out = checked(bias_correct(t, est, (10.0, 0.0), origin=origin))
    np.testing.assert_allclose(out.z, polar_to_cart(r, theta, 0.0, origin), atol=1e-8)


def test_bias_correct_covariance_dominates_tracklet_noise():
    rng = np.random.default_rng(5)
    for _ in range(20):
        A = rng.standard_normal((2, 2))
        U = A @ A.T + np.eye(2)
        t = _tracklet_from([8000.0, 6000.0], U)
        est = BiasEstimate(
            b=[5.0, 1e-4], Sigma=np.diag(rng.uniform(0.1, 100.0, 2))
        )
        out = checked(bias_correct(t, est, (10.0, 1e-3)))
        diff = out.R - U
        assert np.linalg.eigvalsh(diff).min() > -1e-9 * np.abs(out.R).max()


def test_bias_correct_rejects_zero_position():
    t = _tracklet_from(np.zeros(2), np.eye(2))
    est = BiasEstimate(b=np.zeros(2), Sigma=np.eye(2))
    with pytest.raises(NumericalError):
        checked(bias_correct(t, est, (10.0, 1e-3)))


def test_bias_correct_rejects_overcorrected_range():
    t = _tracklet_from([10.0, 0.0], np.eye(2))
    est = BiasEstimate(b=[100.0, 0.0], Sigma=np.eye(2))
    with pytest.raises(NumericalError):
        checked(bias_correct(t, est, (10.0, 1e-3)))


def test_sfa_single_measurement_equals_kalman_update():
    model = ncv_model(1.0, 0.2)
    ms = compose_steps(model, 1)
    prev = GaussianEstimate(
        mean=[0.0, 1.0, 0.0, -1.0], cov=np.diag([50.0, 5.0, 50.0, 5.0]), frame=0
    )
    y = np.array([3.0, -2.0])
    R = np.diag([10.0, 20.0])
    out = sfa(prev, ms, CartesianMeasurement(z=y[None], R=R[None]))
    ref = kf_predict(prev, model)
    ref, _ = kf_update(ref, CartesianMeasurement(z=y, R=R))
    np.testing.assert_allclose(out.mean, ref.mean, rtol=1e-10)
    np.testing.assert_allclose(out.cov, ref.cov, rtol=1e-10)


def test_sfa_empty_measurements_is_pure_prediction():
    model = ncv_model(1.0, 0.2)
    ms = compose_steps(model, 3)
    prev = GaussianEstimate(mean=[1.0, 1.0, 1.0, 1.0], cov=np.eye(4), frame=0)
    none = CartesianMeasurement(z=np.empty((0, 2)), R=np.empty((0, 2, 2)))
    out = sfa(prev, ms, none)
    np.testing.assert_allclose(out.mean, ms.F @ prev.mean)
    np.testing.assert_allclose(out.cov, ms.F @ np.eye(4) @ ms.F.T + ms.Q, rtol=1e-12)
    assert out.frame == 3
    assert combine_slots(none).used.shape == (0,)


def test_sfa_equals_batch_update_any_order():
    # Sequential processing of independent position measurements must equal
    # the stacked batch solution regardless of order.
    rng = np.random.default_rng(6)
    model = ncv_model(1.0, 0.5)
    trials = 200
    for _ in range(trials):
        M = rng.integers(2, 6)
        prev_cov = np.diag(rng.uniform(5.0, 200.0, 4))
        prev = GaussianEstimate(mean=rng.standard_normal(4) * 10, cov=prev_cov, frame=0)
        steps = int(rng.integers(1, 4))
        ms = compose_steps(model, steps)
        meas = []
        for _ in range(M):
            A = rng.standard_normal((2, 2))
            meas.append((rng.standard_normal(2) * 5, A @ A.T + 0.5 * np.eye(2)))
        order = rng.permutation(M)
        out = sfa(prev, ms, _slots([meas[i] for i in order]))

        # Batch oracle in information form.
        x_pred = ms.F @ prev.mean
        P_pred = ms.F @ prev.cov @ ms.F.T + ms.Q
        H = np.array([[1.0, 0, 0, 0], [0, 0, 1.0, 0]])
        J = np.linalg.inv(P_pred)
        rhs = J @ x_pred
        for y, R in meas:
            Ri = np.linalg.inv(R)
            J += H.T @ Ri @ H
            rhs += H.T @ Ri @ y
        x_batch = np.linalg.solve(J, rhs)
        P_batch = np.linalg.inv(J)
        np.testing.assert_allclose(out.mean, x_batch, rtol=1e-10, atol=1e-10)
        np.testing.assert_allclose(out.cov, P_batch, rtol=1e-10, atol=1e-12)


# Largest difference between sfa's single update and one update per
# measurement slot, as a fraction of each output array's largest magnitude
# (measured up to 2.5e-13).
SFA_RTOL = 1e-11
# The same for fbe_step's fused pseudo-measurement against the deconvolved
# per-slot update (measured up to 3.4e-16; the covariances agree exactly).
FUSED_PSEUDO_RTOL = 1e-12


def _slots(measurements):
    """``(y, R)`` pairs as one measurement with a slot axis, in list order."""
    y, R = zip(*measurements)
    return CartesianMeasurement(z=np.stack(y, axis=-2), R=np.stack(R, axis=-3))


def _per_slot_sfa(state, model, z, present=None):
    """Reference fusion: predict, then one Kalman update per measurement
    slot over the elements where it is present, in slot order."""
    pred = kf_predict(state, model)
    shape = pred.mean.shape[:-1]
    x, P = pred.mean.reshape(-1, 4).copy(), pred.cov.reshape(-1, 4, 4).copy()
    m = z.z.shape[-2]
    present = np.broadcast_to(True if present is None else present, shape + (m,))
    present = present.reshape(-1, m)
    for j in range(m):
        y = np.broadcast_to(z.z[..., j, :], shape + (2,)).reshape(-1, 2)
        R = np.broadcast_to(z.R[..., j, :, :], shape + (2, 2)).reshape(-1, 2, 2)
        k = np.flatnonzero(present[:, j])
        est, _ = kf_update(GaussianEstimate(x[k], P[k]), CartesianMeasurement(y[k], R[k]))
        x[k], P[k] = est.mean, est.cov
    return GaussianEstimate(x.reshape(pred.mean.shape), P.reshape(pred.cov.shape), pred.frame)


def test_sfa_matches_per_slot_updates():
    # Random batches of 1-6 measurement slots, some masked per element,
    # at fusion-center scales: positions ~1e4 m, variances 1e1-1e5 m^2.
    rng = np.random.default_rng(21)
    model = ncv_model(1.0, 0.5)
    worst = 0.0
    for _ in range(300):
        n, m = int(rng.integers(1, 9)), int(rng.integers(1, 7))
        A = rng.standard_normal((n, 4, 4)) * 10.0 ** rng.uniform(0.5, 2.5, (n, 1, 1))
        mean = rng.standard_normal((n, 4)) * [1e4, 10.0, 1e4, 10.0]
        prev = GaussianEstimate(mean, A @ mt(A) + np.eye(4), frame=0)
        ms = compose_steps(model, int(rng.integers(1, 11)))
        B = rng.standard_normal((m, n, 2, 2)) * 10.0 ** rng.uniform(0.5, 2.5, (m, n, 1, 1))
        R = B @ mt(B) + np.eye(2)
        y = mean[:, ::2] + rng.standard_normal((m, n, 2)) * 100.0
        present = rng.random((n, m)) < 0.7
        meas = _slots(list(zip(y, R)))
        out = sfa(prev, ms, meas, present)
        ref = _per_slot_sfa(prev, ms, meas, present)
        slots = combine_slots(meas, present)
        assert slots.used.tolist() == present.tolist()
        assert out.frame == ref.frame
        for got, want in ((out.mean, ref.mean), (out.cov, ref.cov)):
            worst = max(worst, np.abs(got - want).max() / np.abs(want).max())
        # An element without measurements keeps its prediction exactly, and
        # its combination holds the stand-in y = 0, R = I.
        none = ~present.any(axis=1)
        np.testing.assert_array_equal(out.mean[none], ref.mean[none])
        np.testing.assert_array_equal(slots.live, ~none)
        assert not slots.measurement.z[none].any()
        np.testing.assert_array_equal(slots.measurement.R[none] - np.eye(2), 0.0)
    assert worst <= SFA_RTOL, worst


def _former_combination(z, present):
    """``(y_eq, R_eq, used, live)`` of combine_slots as first written: each
    slot's R^-1 y formed on the broadcast grid of ``z`` and ``present``,
    with the unused slots' informations zeroed by a multiply."""
    info, ok = inv_spd2_masked(z.R)
    used = ok & present
    info = info * used[..., None, None]
    info_y = mv(info, np.where(used[..., None], z.z, 0.0)).sum(axis=-2)
    live = used.any(axis=-1)
    R_eq, combined = inv_spd2_masked(info.sum(axis=-3), live)
    info_y[live & ~combined] = 0.0
    return mv(R_eq, info_y), symmetrize(R_eq), used, live


def test_slot_combination_forms_each_product_once_bit_for_bit():
    # combine_slots forms each slot's R^-1 y once, on the batch axes of z,
    # and masks it: on fbe's leave-one-out grid (z (1, T, S) as a strided
    # view, present (S, T, S)), with slots whose covariance fails or whose
    # unused measurement is NaN, it equals the broadcast-grid formula bit
    # for bit.
    rng = np.random.default_rng(33)
    for _ in range(200):
        n_s, n_t = int(rng.integers(2, 7)), int(rng.integers(1, 5))
        B = rng.standard_normal((n_s, n_t, 2, 2)) * 10.0 ** rng.uniform(0.5, 3.0, (n_s, n_t, 1, 1))
        R = B @ mt(B) + np.eye(2)
        y = rng.standard_normal((n_s, n_t, 2)) * 1e4
        live = rng.random((n_s, n_t)) < 0.8
        R[rng.random((n_s, n_t)) < 0.1] = np.diag([1.0, -1.0])
        y[~live & (rng.random((n_s, n_t)) < 0.5)] = np.nan
        ref = live & (rng.random((n_s, n_t)) < 0.9)
        present = ref[:, :, None] & live.T[None] & ~np.eye(n_s, dtype=bool)[:, None]
        z = CartesianMeasurement(y.swapaxes(0, 1)[None], R.swapaxes(0, 1)[None])
        slots = combine_slots(z, present)
        got = slots.measurement.z, slots.measurement.R, slots.used, slots.live
        for a, b in zip(got, _former_combination(z, present)):
            assert np.array_equal(a, b)


def _small_fbe_inputs(bias0=(25.0, 2e-3), nonreporting=False):
    """Two targets, three sensors; sensor 0 biased, others clean.  Report
    pairs and bias states are arrays over (sensor, target)."""
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
    return (stack(prev), stack(curr), reported), bias_states, LagModels(model), sensors


def _fbe_step(prev, curr, reported, bias_states, lag_models, sensors):
    """:func:`fbe_step` on the local stage of the report pairs ``(prev,
    curr)``, each predicted over its own lag."""
    lags = np.broadcast_to(curr.frame - prev.frame, reported.shape)
    local = local_stage(kf_predict(prev, lag_models(lags)), curr, sensors)
    return fbe_step(reported, local, bias_states, sensors)


def test_fbe_step_fused_side_is_the_deconvolved_reference_update(monkeypatch):
    # The reference side of each bias pseudo-measurement is the other
    # sensors' combined measurement.  It must agree with deconvolving a
    # per-slot update of a leave-one-out fused track (here each started from
    # the lowest-numbered other sensor's snapshot) by the gain of the
    # combined information of the corrected measurements, which equals it
    # in exact arithmetic whatever the track.
    import sensorreg.fusion as fusion

    seen = []

    def difference(z1, z2, jac, R1, R2, offset_only=True):
        seen.append((z1, R1))
        return difference_pseudo_measurement(z1, z2, jac, R1, R2, offset_only)

    monkeypatch.setattr(fusion, "difference_pseudo_measurement", difference)
    (prev, curr, reported), bias_states, lag_models, sensors = _small_fbe_inputs()
    _fbe_step(prev, curr, reported, bias_states, lag_models, sensors)
    [(z, R)] = seen
    fused_prev = prev[[min(r for r in range(3) if r != s) for s in range(3)]]

    t = checked(compute_tracklet(kf_predict(prev, lag_models(curr.frame - prev.frame)), curr))
    geo = sensors[:, None]
    c = checked(
        bias_correct(t, bias_states[:, None], (geo.sigma_r, geo.sigma_theta), origin=geo.position)
    )
    info, _ = inv_spd2_masked(c.R)
    n_s, n_t = reported.shape
    # One reference per (sensor, target), on that grid.
    for s, tgt in np.ndindex(n_s, n_t):
        others = [r for r in range(n_s) if r != s]
        fp = fused_prev[s, tgt]
        msf = lag_models(curr.frame - fp.frame)
        meas = CartesianMeasurement(z=c.z[others, tgt], R=c.R[others, tgt])
        fused = _per_slot_sfa(fp, msf, meas)
        info_f = np.zeros((2, 2))
        for r in others:
            info_f = info_f + info[r, tgt]
        R_f, _ = inv_spd2_masked(info_f)
        pred = kf_predict(fp, msf)
        S_inv, _ = inv_spd2_masked(pred.cov[::2, ::2] + R_f)
        z_f = checked(sensor_pseudo_obs(fused, pred, pred.cov[:, ::2] @ S_inv))
        np.testing.assert_allclose(
            z[s, tgt], z_f, rtol=0, atol=FUSED_PSEUDO_RTOL * np.abs(z_f).max()
        )
        np.testing.assert_allclose(
            R[s, tgt], symmetrize(R_f), rtol=0, atol=FUSED_PSEUDO_RTOL * np.abs(R_f).max()
        )


def test_fbe_step_moves_biased_sensor_estimate():
    tracks, bias_states, lag_models, sensors = _small_fbe_inputs()
    res = _fbe_step(*tracks, bias_states, lag_models, sensors)
    # The biased sensor's range estimate moves decisively toward the truth.
    assert res.bias_states.b[0, 0] > 5.0
    # Clean sensors stay within a few sigma of zero.
    for s in (1, 2):
        assert abs(res.bias_states.b[s, 0]) < 3 * math.sqrt(res.bias_states.Sigma[s, 0, 0]) + 3.0


def test_fbe_step_leave_one_out_structure():
    tracks, bias_states, lag_models, sensors = _small_fbe_inputs()
    res = _fbe_step(*tracks, bias_states, lag_models, sensors)
    n_s, n_t = tracks[2].shape
    for s in range(n_s):
        for tgt in range(n_t):
            assert not res.used[s, tgt, s]
            assert res.used[s, tgt].sum() == n_s - 1


def test_fbe_step_skips_frame_with_single_reporter():
    (prev, curr, reported), bias_states, lag_models, sensors = _small_fbe_inputs()
    only = np.zeros_like(reported)
    only[0] = True
    res = _fbe_step(prev, curr, only, bias_states, lag_models, sensors)
    for s in range(3):
        np.testing.assert_allclose(res.bias_states.b[s], bias_states.b[s])


def test_fbe_step_nonreporting_sensor_carried_forward():
    tracks, bias_states, lag_models, sensors = _small_fbe_inputs(nonreporting=True)
    res = _fbe_step(*tracks, bias_states, lag_models, sensors)
    np.testing.assert_allclose(res.bias_states.b[2], bias_states.b[2])
    np.testing.assert_allclose(res.bias_states.Sigma[2], bias_states.Sigma[2])
    assert res.bias_states.b[0, 0] > 5.0
    for contributors in res.used[0]:
        assert np.flatnonzero(contributors).tolist() == [1]


def test_fbe_step_never_reads_a_nonreporting_sensors_current_estimate():
    # The local stage runs on the whole (sensor, target) grid, so the
    # non-reporting sensor's rows pass through it: NaN in its current
    # estimates leaves every result bit for bit.
    (prev, curr, reported), *rest = _small_fbe_inputs(nonreporting=True)
    clean = _fbe_step(prev, curr, reported, *rest)
    curr.mean[~reported], curr.cov[~reported] = np.nan, np.nan
    res = _fbe_step(prev, curr, reported, *rest)
    assert res.skipped == clean.skipped
    for name in ("live", "used", "bias_states.b", "bias_states.Sigma"):
        obj, want = res, clean
        for part in name.split("."):
            obj, want = getattr(obj, part), getattr(want, part)
        np.testing.assert_array_equal(obj, want, err_msg=name)


def test_fbe_step_corrections_use_frame_start_estimates():
    # Presenting the sensors in reverse order must not change any sensor's
    # result, since corrections snapshot the bias estimates at the start of
    # the frame.
    (prev, curr, reported), bias_states, lag_models, sensors = _small_fbe_inputs()
    res1 = _fbe_step(prev, curr, reported, bias_states, lag_models, sensors)
    rev = slice(None, None, -1)
    res2 = _fbe_step(
        prev[rev],
        curr[rev],
        reported[rev],
        bias_states[rev],
        lag_models,
        sensors[rev],
    )
    for s in range(3):
        np.testing.assert_allclose(
            res1.bias_states.b[s], res2.bias_states.b[2 - s], rtol=1e-12
        )


def test_fbe_step_skips_only_the_degenerate_pair():
    # Sensor 1's report of target 0 carries no information (its update is
    # the pure prediction), so its covariance difference is zero and its
    # position-marginal tracklet fails, while the other pairs take the
    # inverse-filter form; the result must be that of the same frame
    # without that pair.
    (prev, curr, reported), bias_states, lag_models, sensors = _small_fbe_inputs()
    ms = lag_models(curr.frame - prev.frame)
    curr.mean[1, 0] = ms.F @ prev.mean[1, 0]
    curr.cov[1, 0] = ms.F @ prev.cov[1, 0] @ ms.F.T + ms.Q
    res = _fbe_step(prev, curr, reported, bias_states, lag_models, sensors)
    assert res.skipped == [(1, 0, "position information difference not positive definite")]

    without = reported.copy()
    without[1, 0] = False
    ref = _fbe_step(prev, curr, without, bias_states, lag_models, sensors)
    assert ref.skipped == []
    np.testing.assert_array_equal(res.live, without)
    np.testing.assert_array_equal(res.live, ref.live)
    np.testing.assert_array_equal(res.used, ref.used)
    for got, want in [
        (res.bias_states.b, ref.bias_states.b),
        (res.bias_states.Sigma, ref.bias_states.Sigma),
    ]:
        np.testing.assert_allclose(got, want, rtol=1e-12)
    # The leave-one-out references of target 0 lost sensor 1.
    assert res.used[0, 0].tolist() == [False, False, True]


def test_fbe_step_skips_a_pair_whose_tracklet_position_covariance_fails():
    # Sensor 2's track covariance of target 1 is the negated prediction, so
    # its covariance difference is well conditioned and the pair takes the
    # inverse-filter form, whose position covariance is negative definite:
    # the tracklet's own check skips it, before the gain reconstruction.
    (prev, curr, reported), bias_states, lag_models, sensors = _small_fbe_inputs()
    ms = lag_models(curr.frame - prev.frame)
    curr.cov[2, 1] = -(ms.F @ prev.cov[2, 1] @ ms.F.T + ms.Q)
    full, _ = tracklet_inverse_kf(kf_predict(prev[2, 1], ms), curr[2, 1])
    assert np.linalg.eigvalsh(full.U[::2, ::2]).max() < 0
    res = _fbe_step(prev, curr, reported, bias_states, lag_models, sensors)
    assert res.skipped == [(2, 1, "tracklet position covariance not positive definite")]
    without = reported.copy()
    without[2, 1] = False
    ref = _fbe_step(prev, curr, without, bias_states, lag_models, sensors)
    np.testing.assert_array_equal(res.live, without)
    np.testing.assert_array_equal(res.bias_states.b, ref.bias_states.b)


def _first_fault_alone(prev, curr, model, bias, sensor):
    """``(check, reason)`` of the first check that one pair, run alone
    through the local stage (tracklet, gain, bias correction), fails, with
    ``check`` its (step, position) among the stage's checks; None if it
    fails none.  compute_tracklet returns its checks in one order whatever
    forms the batch takes, so a pair alone has the (step, position) it has
    in the batch, and that orders checks across pairs."""
    pred = kf_predict(prev, model)
    t, faults = compute_tracklet(pred, curr)
    _, gain_faults = reconstruct_local_gain(t.U, pred.cov)
    noise = (sensor.sigma_r, sensor.sigma_theta)
    _, bias_faults = bias_correct(t, bias, noise, origin=sensor.position)
    for step, checks in enumerate((faults, gain_faults, bias_faults)):
        for position, (reason, failed) in enumerate(checks):
            if failed:
                return (step, position), np.asarray(reason, dtype=object)[()]
    return None


def _fbe_outcome(*args):
    try:
        return _fbe_step(*args)
    except NumericalError as exc:
        return type(exc), str(exc)


# Track covariances of a report pair, from its L-step predicted covariance P.
# no_info, indef, pos_only and neg_rank1 have a singular or indefinite
# covariance difference P - C and take the position-marginal form, where
# all but pos_only fail; neg_vel and neg take the inverse-filter form, where
# neg's position block is not positive definite and fails the tracklet's
# first check.
_VEL = np.diag([0.0, 1.0, 0.0, 1.0])
_PAIR_KINDS = {
    "ok": None,
    "no_info": lambda P: P,
    "indef": lambda P: P + P[1, 1] * np.diag([0.0, 1.0, 0.0, 0.0]),
    "pos_only": lambda P: P - 0.1 * np.linalg.eigvalsh(P)[0] * (np.eye(4) - _VEL),
    "neg_rank1": lambda P: P - 10.0 * P[1, 1] * np.diag([0.0, 1.0, 0.0, 0.0]),
    "neg_vel": lambda P: 0.5 * P - 1e4 * _VEL,
    "neg": lambda P: -P,
}


@given(
    kinds=st.lists(st.sampled_from(sorted(_PAIR_KINDS)), min_size=6, max_size=6),
    scale_fails=st.sampled_from([None, 0, 1, 2]),
)
@example(kinds=["neg_rank1"] * 2 + ["ok"] * 2 + ["neg_vel"] * 2, scale_fails=None)
@example(kinds=["neg_vel"] * 2 + ["ok"] * 2 + ["neg_rank1"] * 2, scale_fails=None)
@example(kinds=["pos_only", "ok", "ok", "pos_only", "ok", "ok"], scale_fails=0)
@settings(max_examples=80, deadline=None)
def test_fbe_step_skips_each_pair_at_its_own_first_fault(kinds, scale_fails):
    # Each pair, run alone through the local stage, gives the first check it
    # fails: fbe_step skips those pairs, records them in (check, pair)
    # order, and otherwise equals, bit for bit, a call on the surviving
    # pairs alone.  Pairs are numbered sensor-major; a sensor with a scale
    # bias below -1 fails the bias correction of each of its pairs, in
    # either form.
    (prev, curr, reported), _, lag_models, sensors = _small_fbe_inputs()
    # Every pair spans the same lag, so one shared model serves each alone.
    ms = lag_models(curr.frame - prev.frame)
    for (s, t), kind in zip(np.ndindex(3, 2), kinds):
        if _PAIR_KINDS[kind] is not None:
            curr.cov[s, t] = _PAIR_KINDS[kind](ms.F @ prev.cov[s, t] @ ms.F.T + ms.Q)
    b = np.zeros((3, 4))
    if scale_fails is not None:
        b[scale_fails, 2] = -2.0
    bias_states = BiasEstimate(b=b, Sigma=np.tile(np.diag([400.0, 1e-6, 1e-6, 1e-6]), (3, 1, 1)))
    alone = {
        (s, t): _first_fault_alone(prev[s, t], curr[s, t], ms, bias_states[s], sensors[s])
        for s, t in np.ndindex(3, 2)
    }
    failing = sorted((fault[0], pair, fault[1]) for pair, fault in alone.items() if fault)
    live = reported.copy()
    for _, pair, _ in failing:
        live[pair] = False
    res = _fbe_outcome(prev, curr, reported, bias_states, lag_models, sensors)
    ref = _fbe_outcome(prev, curr, live, bias_states, lag_models, sensors)
    if isinstance(ref, tuple) or isinstance(res, tuple):
        assert res == ref
        return
    assert res.skipped == [(int(s), int(t), reason) for _, (s, t), reason in failing]
    np.testing.assert_array_equal(res.live, live)
    for name in ("used", "bias_states.b", "bias_states.Sigma"):
        obj, want = res, ref
        for part in name.split("."):
            obj, want = getattr(obj, part), getattr(want, part)
        np.testing.assert_array_equal(obj, want, err_msg=name)


def test_fbe_step_drops_only_the_bad_pseudo_measurement(monkeypatch):
    # A pseudo-measurement whose noise covariance is not positive definite
    # is dropped before the fold and named by its sensor and target; every
    # other estimate equals the fold without it.
    import sensorreg.fusion as fusion

    made = []

    def difference(*args, **kwargs):
        made.append(difference_pseudo_measurement(*args, **kwargs))
        pm = copy.copy(made[-1])
        pm.R = pm.R.copy()
        # Pseudo-measurements lie on the (sensor, target) grid.
        pm.R[0, 1] = -pm.R[0, 1]
        return pm

    inputs = _small_fbe_inputs()
    clean = _fbe_step(*inputs[0], *inputs[1:])
    monkeypatch.setattr(fusion, "difference_pseudo_measurement", difference)
    res = _fbe_step(*inputs[0], *inputs[1:])
    assert res.skipped == [(0, 1, "pseudo-measurement covariance not positive definite")]
    # Sensor 0 folds its target-0 pseudo-measurement alone.
    bias_states = inputs[1]
    pm0 = made[0]
    want = checked(
        rlsb_update(bias_states[0], PseudoMeasurement(pm0.z[0, :1], pm0.H[0, :1], pm0.R[0, :1]))
    )
    for got, ref in ((res.bias_states.b[0], want.b), (res.bias_states.Sigma[0], want.Sigma)):
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12 * np.abs(ref).max())
    assert not np.allclose(res.bias_states.b[0], clean.bias_states.b[0])
    np.testing.assert_array_equal(res.bias_states.b[1:], clean.bias_states.b[1:])
    np.testing.assert_array_equal(res.bias_states.Sigma[1:], clean.bias_states.Sigma[1:])
    np.testing.assert_array_equal(res.used, clean.used)


def test_fbe_step_skips_only_the_sensor_whose_fold_fails(monkeypatch):
    # Sensor 0's bias covariance reaches its stacked fold negated, so the
    # fold's screen of the incoming covariance fails: that sensor keeps its
    # estimate, named with target None, and every other sensor folds as
    # before.
    import sensorreg.fusion as fusion

    inputs = _small_fbe_inputs()
    bias_states = inputs[1]
    # A prior of its own tells sensor 0's row apart inside the fold.
    bias_states.Sigma[0] *= 2.0
    marked = bias_states.Sigma[0].copy()
    clean = _fbe_step(*inputs[0], *inputs[1:])

    def fold(est, pm):
        negate = (est.Sigma == marked).all(axis=(-2, -1))[..., None, None]
        return rlsb_update(BiasEstimate(est.b, np.where(negate, -est.Sigma, est.Sigma)), pm)

    monkeypatch.setattr(fusion, "rlsb_update", fold)
    res = _fbe_step(*inputs[0], *inputs[1:])
    assert res.skipped == [(0, None, "bias covariance is not positive definite")]
    np.testing.assert_array_equal(res.bias_states.b[0], bias_states.b[0])
    np.testing.assert_array_equal(res.bias_states.Sigma[0], bias_states.Sigma[0])
    np.testing.assert_array_equal(res.bias_states.b[1:], clean.bias_states.b[1:])
    np.testing.assert_array_equal(res.bias_states.Sigma[1:], clean.bias_states.Sigma[1:])
    assert not np.array_equal(clean.bias_states.b[0], bias_states.b[0])


def test_fbe_step_drops_only_the_non_finite_pseudo_measurement(monkeypatch):
    # A NaN observation row drops its pseudo-measurement alone, named by its
    # sensor and target; sensor 0 folds its other pseudo-measurement.
    import sensorreg.fusion as fusion

    made = []

    def difference(*args, **kwargs):
        made.append(difference_pseudo_measurement(*args, **kwargs))
        pm = copy.copy(made[-1])
        pm.H = pm.H.copy()
        pm.H[0, 1] = np.nan  # sensor 0, target 1
        return pm

    inputs = _small_fbe_inputs()
    clean = _fbe_step(*inputs[0], *inputs[1:])
    monkeypatch.setattr(fusion, "difference_pseudo_measurement", difference)
    res = _fbe_step(*inputs[0], *inputs[1:])
    assert res.skipped == [(0, 1, "pseudo-measurement not finite")]
    pm0 = made[0]
    want = checked(
        rlsb_update(inputs[1][0], PseudoMeasurement(pm0.z[0, :1], pm0.H[0, :1], pm0.R[0, :1]))
    )
    for got, ref in ((res.bias_states.b[0], want.b), (res.bias_states.Sigma[0], want.Sigma)):
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12 * np.abs(ref).max())
    np.testing.assert_array_equal(res.bias_states.b[1:], clean.bias_states.b[1:])
    np.testing.assert_array_equal(res.bias_states.Sigma[1:], clean.bias_states.Sigma[1:])


def test_batched_sfa_skips_only_the_singular_element(caplog):
    model = ncv_model(1.0, 0.2)
    ms = compose_steps(model, 2)
    rng = np.random.default_rng(3)
    n = 3
    prev = GaussianEstimate(
        mean=rng.standard_normal((n, 4)) * 10,
        cov=np.diag([50.0, 5.0, 50.0, 5.0]) * rng.uniform(1.0, 2.0, (n, 1, 1)),
        frame=0,
    )
    y = rng.standard_normal((2, n, 2))
    R = np.tile(np.diag([10.0, 20.0]), (2, n, 1, 1))
    # Element 1's first measurement cancels its predicted position
    # covariance exactly: its covariance is not positive definite.
    P1 = ms.F @ prev.cov[1] @ ms.F.T + ms.Q
    R[0, 1] = -0.5 * (P1 + P1.T)[::2, ::2]
    z = _slots([(y[0], R[0]), (y[1], R[1])])
    with caplog.at_level(logging.WARNING, logger="sensorreg.fusion"):
        out = sfa(prev, ms, z)
    records = [r.getMessage() for r in caplog.records if r.name == "sensorreg.fusion"]
    assert records == [
        "skipping measurement 0 at batch index [1]: covariance not positive definite"
    ]
    assert combine_slots(z).used.tolist() == [[True, True], [False, True], [True, True]]
    for i in range(n):
        one = GaussianEstimate(prev.mean[i], prev.cov[i], frame=0)
        meas = [(y[1, i], R[1, i])] if i == 1 else [(y[0, i], R[0, i]), (y[1, i], R[1, i])]
        ref = sfa(one, ms, _slots(meas))
        np.testing.assert_allclose(out.mean[i], ref.mean, rtol=1e-12)
        np.testing.assert_allclose(out.cov[i], ref.cov, rtol=1e-12)
        assert out.frame == ref.frame == 2


def test_batched_sfa_keeps_the_prediction_of_a_failed_update(caplog):
    # Element 1's prior covariance is NaN, so its one update fails: it keeps
    # its prediction, though its slots combine as every element's do, and
    # the other elements are unchanged.
    ms = compose_steps(ncv_model(1.0, 0.2), 1)
    cov = np.tile(np.diag([50.0, 5.0, 50.0, 5.0]), (3, 1, 1))
    cov[1, 0, 0] = np.nan
    prev = GaussianEstimate(np.zeros((3, 4)), cov, frame=0)
    meas = _slots([(np.ones(2), np.diag([10.0, 20.0])), (-np.ones(2), np.eye(2))])
    with caplog.at_level(logging.WARNING, logger="sensorreg.fusion"):
        out = sfa(prev, ms, meas)
    records = [r.getMessage() for r in caplog.records if r.name == "sensorreg.fusion"]
    assert records == [
        "skipping the fused update at batch index [1]: "
        "innovation covariance is singular (cond ~ inf)"
    ]
    slots = combine_slots(meas)
    assert slots.used.all() and slots.live.all()
    pred = kf_predict(prev, ms)
    np.testing.assert_array_equal(out.mean[1], pred.mean[1])
    np.testing.assert_array_equal(out.cov[1], pred.cov[1])
    ref = _per_slot_sfa(prev, ms, meas, [[True, True], [False, False], [True, True]])
    for got, want in ((out.mean, ref.mean), (out.cov, ref.cov)):
        atol = SFA_RTOL * np.abs(want[[0, 2]]).max()
        np.testing.assert_allclose(got[[0, 2]], want[[0, 2]], rtol=0, atol=atol)


class _Warnings(logging.Handler):
    """The messages logged on ``sensorreg.fusion`` while it is installed."""

    def __init__(self):
        super().__init__()
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())

    def __enter__(self):
        logging.getLogger("sensorreg.fusion").addHandler(self)
        return self.messages

    def __exit__(self, *exc):
        logging.getLogger("sensorreg.fusion").removeHandler(self)


# Measurement slots: a positive definite covariance, an absent slot, and a
# present one whose covariance is not positive definite.
_SLOT_KINDS = ("ok", "absent", "indefinite")


@given(
    slots=st.integers(0, 3).flatmap(
        lambda m: st.lists(
            st.lists(st.sampled_from(_SLOT_KINDS), min_size=m, max_size=m), min_size=1, max_size=6
        )
    ),
    nan_prior=st.lists(st.booleans(), min_size=6, max_size=6),
    grid=st.booleans(),
    seed=st.integers(0, 2**16),
)
@example(
    slots=[["ok", "indefinite"], ["absent", "indefinite"], ["ok", "ok"], ["ok", "absent"]],
    nan_prior=[False, False, True, False, False, False],
    grid=True,
    seed=0,
)
@settings(max_examples=60, deadline=None)
def test_batched_sfa_equals_batch_free_calls(slots, nan_prior, grid, seed):
    # One batched sfa call equals a loop of batch-free calls bit for bit,
    # and so does its combine_slots: an element with no usable slot, or
    # whose update fails on a NaN prior, keeps its prediction through a
    # mask.  The batched call logs every dropped measurement first, then
    # every failed update, each in element order, with the element's batch
    # index.
    rng = np.random.default_rng(seed)
    kinds = np.array(slots, dtype=object).reshape(len(slots), -1)
    n, m = kinds.shape
    shape = (2, n // 2) if grid and n % 2 == 0 else (n,)
    kinds = kinds.reshape(shape + (m,))
    lag_models = LagModels(ncv_model(1.0, 0.5))
    lags = rng.integers(1, 4, shape)
    A = rng.standard_normal(shape + (4, 4)) * 10.0
    mean = rng.standard_normal(shape + (4,)) * [1e4, 10.0, 1e4, 10.0]
    cov = A @ mt(A) + np.eye(4)
    cov[np.reshape(nan_prior[:n], shape), 0, 0] = np.nan
    state = GaussianEstimate(mean, cov, frame=0)
    B = rng.standard_normal(shape + (m, 2, 2)) * 10.0
    R = B @ mt(B) + np.eye(2)
    R[kinds == "indefinite"] = np.diag([1.0, -1.0])
    y = mean[..., None, ::2] + rng.standard_normal(shape + (m, 2)) * 100.0
    present = kinds != "absent"
    with _Warnings() as got:
        out = sfa(state, lag_models(lags), CartesianMeasurement(y, R), present)
    slots = combine_slots(CartesianMeasurement(y, R), present)

    dropped, failed = [], []
    for index in np.ndindex(shape):
        with _Warnings() as messages:
            one = sfa(
                state[index],
                lag_models(lags[index]),
                CartesianMeasurement(y[index], R[index]),
                present[index],
            )
        for message in messages:
            where = f" at batch index {list(index)}:"
            to = dropped if message.startswith("skipping measurement") else failed
            to.append(message.replace(":", where, 1))
        one_slots = combine_slots(CartesianMeasurement(y[index], R[index]), present[index])
        for got_part, want in (
            (out.mean, one.mean),
            (out.cov, one.cov),
            (slots.used, one_slots.used),
            (slots.measurement.z, one_slots.measurement.z),
            (slots.measurement.R, one_slots.measurement.R),
        ):
            np.testing.assert_array_equal(got_part[index], want)
        assert np.broadcast_to(out.frame, shape)[index] == one.frame
    assert got == dropped + failed


def test_batched_fusion_formulas_match_batch_free_calls():
    # One batched call of each fusion-center formula equals a loop of
    # batch-free calls, bit for bit.
    (prev, curr, _), _, lag_models, sensors = _small_fbe_inputs()
    ms = lag_models(curr.frame - prev.frame)
    pred = kf_predict(prev, ms)
    t = checked(compute_tracklet(pred, curr))
    g = checked(reconstruct_local_gain(t.U, pred.cov))
    rng = np.random.default_rng(8)
    A = rng.standard_normal((3, 4, 4))
    bias = BiasEstimate(
        b=rng.standard_normal((3, 4)) * [5.0, 1e-3, 1e-3, 1e-3], Sigma=A @ A.transpose(0, 2, 1)
    )
    geo = sensors[:, None]
    c = checked(
        bias_correct(t, bias[:, None], (geo.sigma_r, geo.sigma_theta), origin=geo.position)
    )
    zb = checked(sensor_pseudo_obs(curr, pred, g.W))
    r, th = cart_to_polar(t.u, geo.position)
    jac = jacobians_at(r, th)
    pm = difference_pseudo_measurement(zb, c.z, jac, c.R, g.R, offset_only=False)
    stacks = PseudoMeasurement(pm.z[:, :, None], pm.H[:, :, None], pm.R[:, :, None])
    est = checked(rlsb_update(bias[:, None], stacks))
    for s in range(3):
        for tgt in range(2):
            ts = Tracklet(u=t.u[s, tgt], U=t.U[s, tgt])
            c1 = checked(
                bias_correct(ts, bias[s], (10.0, 1e-3), origin=tuple(sensors.position[s]))
            )
            np.testing.assert_array_equal(c.z[s, tgt], c1.z)
            np.testing.assert_array_equal(c.R[s, tgt], c1.R)
            pred1 = kf_predict(prev[s, tgt], ms)
            z1 = checked(sensor_pseudo_obs(curr[s, tgt], pred1, g.W[s, tgt]))
            np.testing.assert_array_equal(zb[s, tgt], z1)
            j1 = jacobians_at(*cart_to_polar(t.u[s, tgt], sensors.position[s]))
            np.testing.assert_array_equal(jac.K[s, tgt], j1.K)
            pm1 = difference_pseudo_measurement(z1, c1.z, j1, c1.R, g.R[s, tgt], offset_only=False)
            e1 = checked(rlsb_update(bias[s], PseudoMeasurement([pm1.z], [pm1.H], [pm1.R])))
            np.testing.assert_array_equal(est.b[s, tgt], e1.b)
            np.testing.assert_array_equal(est.Sigma[s, tgt], e1.Sigma)


def test_fbe_step_skips_the_pair_of_a_reference_failure(monkeypatch):
    # A rank-deficient gain after the per-pair stage skips its pair, recorded
    # with the sensor and target of the failing reference, not its position
    # among the references.  Every other pair folds what it folds when
    # nothing fails, and nothing raises.
    import sensorreg.fusion as fusion

    real_obs, real_fold = fusion.sensor_pseudo_obs, fusion.rlsb_update
    reason = "gain Gram matrix is singular (cond ~ inf)"
    folded = []

    def rank_deficient(curr, pred, W):
        # Gains lie on the (sensor, target) grid: sensors 1 and 2, target 0.
        out, _ = real_obs(curr, pred, W)
        failed = np.zeros(W.shape[:-2], dtype=bool)
        failed[[1, 2], 0] = True
        return out, [(reason, failed)]

    def recording(est, pm):
        folded.append(pm)
        return real_fold(est, pm)

    monkeypatch.setattr(fusion, "rlsb_update", recording)
    tracks, bias_states, lag_models, sensors = _small_fbe_inputs()
    full = _fbe_step(*tracks, bias_states, lag_models, sensors)
    monkeypatch.setattr(fusion, "sensor_pseudo_obs", rank_deficient)
    res = _fbe_step(*tracks, bias_states, lag_models, sensors)
    assert full.skipped == []
    assert res.skipped == [(1, 0, reason), (2, 0, reason)]
    before, after = folded
    keep = np.ones((3, 2), dtype=bool)
    keep[[1, 2], 0] = False
    for a, b in ((before.z, after.z), (before.H, after.H), (before.R, after.R)):
        np.testing.assert_array_equal(b[keep], a[keep])
    # The skipped pairs fold the padding, which contributes nothing.
    assert not after.z[~keep].any() and not after.H[~keep].any()
    np.testing.assert_array_equal(after.R[~keep], np.broadcast_to(np.eye(2), (2, 2, 2)))
    np.testing.assert_array_equal(res.bias_states.b[0], full.bias_states.b[0])


@pytest.mark.parametrize(
    "R, reason",
    [
        # Sensor 0's slot is dropped, so sensor 1's reference has none.
        (np.full((2, 2), np.nan), "no usable reference slot"),
        # The slot passes, but its information's determinant overflows.
        (1e-155 * np.eye(2), "combined measurement information is singular (cond ~ 1.000e+00)"),
    ],
    ids=["nan", "overflowing_information"],
)
def test_fbe_step_records_a_reference_failure_under_its_own_reason(monkeypatch, R, reason):
    # Target 0 has two reporters, sensors 0 and 1, and sensor 0's corrected
    # covariance of it is R: sensor 1's pair is skipped under the reason of
    # its reference, ahead of the pseudo-measurement checks, and folds the
    # padding, never the stand-in reference y = 0, R = I.  Sensor 0's pair,
    # whose reference is sensor 1's measurement, folds as before.
    import sensorreg.fusion as fusion

    real_correct, real_fold = fusion.bias_correct, fusion.rlsb_update
    folded = []

    def corrupted(*args, **kwargs):
        c, faults = real_correct(*args, **kwargs)
        c.R[0, 0] = R
        return c, faults

    def recording(est, pm):
        folded.append(pm)
        return real_fold(est, pm)

    tracks, bias_states, lag_models, sensors = _small_fbe_inputs()
    tracks[2][2, 0] = False
    monkeypatch.setattr(fusion, "rlsb_update", recording)
    clean = _fbe_step(*tracks, bias_states, lag_models, sensors)
    monkeypatch.setattr(fusion, "bias_correct", corrupted)
    with np.errstate(over="ignore"):
        res = _fbe_step(*tracks, bias_states, lag_models, sensors)
    assert clean.skipped == []
    assert res.skipped == [(1, 0, reason)]
    before, after = folded
    assert not after.z[1, 0].any() and not after.H[1, 0].any()
    np.testing.assert_array_equal(after.R[1, 0], np.eye(2))
    keep = np.ones((3, 2), dtype=bool)
    keep[1, 0] = False
    for a, b in ((before.z, after.z), (before.H, after.H), (before.R, after.R)):
        np.testing.assert_array_equal(b[keep], a[keep])
    np.testing.assert_array_equal(res.bias_states.b[0], clean.bias_states.b[0])
    np.testing.assert_array_equal(res.live, clean.live)
