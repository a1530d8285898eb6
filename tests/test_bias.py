"""Bias pseudo-measurements and the recursive estimators."""

import numpy as np
import pytest

from sensorreg.bias import (
    BiasEstimate,
    PseudoMeasurement,
    difference_pseudo_measurement,
    rlsb_update,
    sensor_pseudo_obs,
)
from sensorreg.coords import jacobians_at
from sensorreg.dynamics import MultiStepModel, compose_steps, ncv_model
from sensorreg.errors import SingularMatrixError
from sensorreg.trackers import GaussianEstimate, position_selector


def _ms(steps=1, q=0.1):
    return compose_steps(ncv_model(1.0, q), steps)


def test_gain_left_inverse_property():
    rng = np.random.default_rng(0)
    for _ in range(20):
        W = rng.standard_normal((4, 2))
        Wdag = np.linalg.solve(W.T @ W, W.T)
        np.testing.assert_allclose(Wdag @ W, np.eye(2), atol=1e-10)


def test_pseudo_obs_recovers_consistent_measurement():
    # Construct states satisfying the update equation exactly for a known
    # measurement; the deconvolution must return that measurement.
    rng = np.random.default_rng(1)
    ms = _ms()
    H = position_selector(4)
    prev_mean = rng.standard_normal(4) * 100
    W = rng.standard_normal((4, 2))
    z = rng.standard_normal(2) * 50
    x_pred = ms.F @ prev_mean
    curr_mean = x_pred + W @ (z - H @ x_pred)
    prev = GaussianEstimate(mean=prev_mean, cov=np.eye(4), frame=0)
    curr = GaussianEstimate(mean=curr_mean, cov=np.eye(4), frame=1)
    out = sensor_pseudo_obs(curr, prev, W, ms)
    np.testing.assert_allclose(out, z, rtol=1e-9)


def test_pseudo_obs_zero_noise_zero_bias_track():
    # With no bias, no noise and a unit gain structure, the deconvolved
    # observation equals the propagated position.
    ms = _ms()
    H = position_selector(4)
    truth_prev = np.array([100.0, 10.0, -50.0, 5.0])
    truth_curr = ms.F @ truth_prev
    W = H.T.copy()
    prev = GaussianEstimate(mean=truth_prev, cov=np.eye(4), frame=0)
    curr_mean = ms.F @ truth_prev + W @ (H @ truth_curr - H @ ms.F @ truth_prev)
    curr = GaussianEstimate(mean=curr_mean, cov=np.eye(4), frame=1)
    out = sensor_pseudo_obs(curr, prev, W, ms)
    np.testing.assert_allclose(out, H @ ms.F @ truth_prev, rtol=1e-9)


def test_pseudo_obs_rejects_rank_deficient_gain():
    ms = _ms()
    prev = GaussianEstimate(mean=np.zeros(4), cov=np.eye(4), frame=0)
    curr = GaussianEstimate(mean=np.zeros(4), cov=np.eye(4), frame=1)
    W = np.zeros((4, 2))
    W[:, 0] = [1.0, 0, 1.0, 0]
    W[:, 1] = [2.0, 0, 2.0, 0]
    with pytest.raises(SingularMatrixError):
        sensor_pseudo_obs(curr, prev, W, ms)


def test_difference_is_plain_difference():
    jac = jacobians_at(1000.0, 0.3)
    z1 = np.array([3.0, 4.0])
    z2 = np.array([1.0, 1.0])
    pm = difference_pseudo_measurement(z1, z2, jac, np.eye(2), np.eye(2))
    np.testing.assert_allclose(pm.z, z1 - z2, rtol=1e-12)


def test_difference_zero_for_equal_inputs():
    jac = jacobians_at(500.0, -1.0)
    z = np.array([7.0, -2.0])
    pm = difference_pseudo_measurement(z, z, jac, np.eye(2), 2 * np.eye(2))
    np.testing.assert_allclose(pm.z, np.zeros(2), atol=1e-12)


def test_difference_noise_adds():
    jac = jacobians_at(20000.0, 0.0)
    R1 = np.diag([100.0, 400.0])
    pm = difference_pseudo_measurement(np.zeros(2), np.zeros(2), jac, R1, R1)
    np.testing.assert_allclose(pm.R, np.diag([200.0, 800.0]))


def test_difference_observation_matrix_offset_restriction():
    jac = jacobians_at(20000.0, 0.4)
    pm2 = difference_pseudo_measurement(np.zeros(2), np.zeros(2), jac, np.eye(2), np.eye(2))
    np.testing.assert_allclose(pm2.H, -jac.B)
    pm4 = difference_pseudo_measurement(
        np.zeros(2), np.zeros(2), jac, np.eye(2), np.eye(2), offset_only=False
    )
    np.testing.assert_allclose(pm4.H, -jac.K)


def test_projection_is_identity_for_position_selection():
    H = position_selector(4)
    HHdag = H @ H.T @ np.linalg.inv(H @ H.T)
    np.testing.assert_allclose(HHdag, np.eye(2))


def test_rlsb_uninformative_observation_is_noop():
    est = BiasEstimate(b=[1.0, 2.0], Sigma=np.diag([4.0, 9.0]))
    pm = PseudoMeasurement(z=[5.0, 5.0], H=np.zeros((2, 2)), R=np.eye(2))
    out = rlsb_update(est, pm)
    np.testing.assert_allclose(out.b, est.b)
    np.testing.assert_allclose(out.Sigma, est.Sigma)


def test_rlsb_sequence_matches_batch_weighted_least_squares():
    rng = np.random.default_rng(4)
    d = 2
    prior = np.diag([400.0, 1e-6])
    est = BiasEstimate(b=np.zeros(d), Sigma=prior.copy())
    Hs, Rs, zs = [], [], []
    for _ in range(40):
        jac = jacobians_at(rng.uniform(5e3, 3e4), rng.uniform(-np.pi, np.pi))
        H = -jac.B
        R = np.diag(rng.uniform(50, 500, 2))
        z = rng.standard_normal(2) * 10
        Hs.append(H)
        Rs.append(R)
        zs.append(z)
        est = rlsb_update(est, PseudoMeasurement(z=z, H=H, R=R))
    # Batch: minimize (b)' P0^-1 (b) + sum ||z - H b||^2_R.
    J = np.linalg.inv(prior)
    rhs = np.zeros(d)
    for H, R, z in zip(Hs, Rs, zs):
        Ri = np.linalg.inv(R)
        J += H.T @ Ri @ H
        rhs += H.T @ Ri @ z
    batch = np.linalg.solve(J, rhs)
    np.testing.assert_allclose(est.b, batch, rtol=1e-8)
    np.testing.assert_allclose(est.Sigma, np.linalg.inv(J), rtol=1e-8)


def test_rlsb_information_additivity_constant_observation():
    rng = np.random.default_rng(5)
    jac = jacobians_at(20000.0, 0.1)
    H = -jac.B
    prior = np.diag([400.0, 1e-6])
    est = BiasEstimate(b=np.zeros(2), Sigma=prior.copy())
    info = np.linalg.inv(prior)
    for _ in range(25):
        R = np.diag(rng.uniform(10, 100, 2))
        est = rlsb_update(est, PseudoMeasurement(z=rng.standard_normal(2), H=H, R=R))
        info += H.T @ np.linalg.solve(R, H)
    np.testing.assert_allclose(np.linalg.inv(est.Sigma), info, rtol=1e-8)


def test_rlsb_unbiased_convergence_rate():
    # With no true bias, the error RMS contracts like one over the square
    # root of the number of pseudo-measurements.
    rng = np.random.default_rng(6)
    jac = jacobians_at(20000.0, 0.0)
    H = -jac.B
    R = np.diag([200.0, 800.0])
    cholR = np.linalg.cholesky(R)
    runs = 200
    counts = (10, 40, 160)
    rms = {}
    errs = np.zeros((runs, 2))
    for i in range(runs):
        est = BiasEstimate(b=np.zeros(2), Sigma=np.diag([400.0, 1e-6]))
        n = 0
        for n_target in counts:
            while n < n_target:
                z = cholR @ rng.standard_normal(2)
                est = rlsb_update(est, PseudoMeasurement(z=z, H=H, R=R))
                n += 1
            rms.setdefault(n_target, []).append(est.b[0] ** 2)
    r10 = np.sqrt(np.mean(rms[10]))
    r40 = np.sqrt(np.mean(rms[40]))
    r160 = np.sqrt(np.mean(rms[160]))
    assert r40 == pytest.approx(r10 / 2, rel=0.25)
    assert r160 == pytest.approx(r40 / 2, rel=0.25)


def test_rlsb_rejects_singular_innovation():
    est = BiasEstimate(b=np.zeros(2), Sigma=np.zeros((2, 2)))
    pm = PseudoMeasurement(z=np.zeros(2), H=np.eye(2), R=np.zeros((2, 2)))
    with pytest.raises(SingularMatrixError):
        rlsb_update(est, pm)
