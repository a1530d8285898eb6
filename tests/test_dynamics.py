"""Motion models: closed forms, composition, positive semidefiniteness."""

import math

import numpy as np
import pytest

import sensorreg.dynamics as dynamics
from sensorreg.dynamics import LagModels, compose_steps, nca_model, ncv_model, turn_model


def test_ncv_zero_interval_degenerates():
    m = ncv_model(0.0, 0.1)
    np.testing.assert_allclose(m.F, np.eye(4))
    np.testing.assert_allclose(m.Q, np.zeros((4, 4)))


def test_ncv_noise_block_matches_integral():
    # Integrating continuous white noise of intensity q over T gives the
    # [[T^3/3, T^2/2], [T^2/2, T]] block; q = 0.1, T = 1.
    m = ncv_model(1.0, 0.1)
    np.testing.assert_allclose(
        m.Q[:2, :2], [[0.1 / 3.0, 0.05], [0.05, 0.1]], rtol=1e-12
    )


def test_ncv_transition_semigroup():
    m1 = ncv_model(1.0, 0.1)
    m2 = ncv_model(2.0, 0.1)
    np.testing.assert_allclose(m2.F, m1.F @ m1.F)


def test_turn_model_zero_rate_is_ncv():
    t = turn_model(1.0, 0.0, 0.1)
    n = ncv_model(1.0, 0.1)
    np.testing.assert_allclose(t.F, n.F)


def test_turn_model_rotates_heading():
    omega = math.radians(0.1)
    t = turn_model(1.0, omega)
    x = np.array([0.0, 100.0, 0.0, 0.0])
    for _ in range(10):
        x = t.F @ x
    heading = math.atan2(x[3], x[1])
    assert heading == pytest.approx(10 * math.radians(0.1), rel=1e-9)
    speed = math.hypot(x[1], x[3])
    assert speed == pytest.approx(100.0, rel=1e-12)


def test_nca_noise_free_matches_kinematics():
    m = nca_model(0.5, 0.0)
    x = np.array([1.0, 2.0, 0.4, -3.0, 1.0, 0.2])
    out = m.F @ x
    T = 0.5
    assert out[0] == pytest.approx(1.0 + 2.0 * T + 0.5 * 0.4 * T**2)
    assert out[1] == pytest.approx(2.0 + 0.4 * T)
    assert out[2] == pytest.approx(0.4)
    assert out[3] == pytest.approx(-3.0 + 1.0 * T + 0.5 * 0.2 * T**2)


def test_compose_single_step_is_identity_operation():
    m = ncv_model(1.0, 0.1)
    ms = compose_steps(m, 1)
    np.testing.assert_allclose(ms.F, m.F)
    np.testing.assert_allclose(ms.Q, m.Q)


def test_compose_two_steps_unrolls():
    m = ncv_model(1.0, 0.1)
    ms = compose_steps(m, 2)
    np.testing.assert_allclose(ms.F, m.F @ m.F)
    np.testing.assert_allclose(ms.Q, m.F @ m.Q @ m.F.T + m.Q, rtol=1e-12)


def test_compose_ten_steps_matches_monte_carlo_rollup():
    m = ncv_model(1.0, 0.1)
    ms = compose_steps(m, 10)
    rng = np.random.default_rng(11)
    n = 100_000
    chol = np.linalg.cholesky(m.Q)
    x = np.zeros((n, 4))
    for _ in range(10):
        x = x @ m.F.T + rng.standard_normal((n, 4)) @ chol.T
    sample = np.cov(x.T)
    np.testing.assert_allclose(sample, ms.Q, rtol=5e-2, atol=2e-2 * np.abs(ms.Q).max())


def test_compose_additivity():
    m = ncv_model(0.7, 0.3)
    a, b = 3, 4
    mab = compose_steps(m, a + b)
    ma = compose_steps(m, a)
    mb = compose_steps(m, b)
    np.testing.assert_allclose(mab.F, ma.F @ mb.F, rtol=1e-12)
    # Q over a+b steps: propagate the first block through the remaining steps.
    np.testing.assert_allclose(mab.Q, ma.F @ mb.Q @ ma.F.T + ma.Q, rtol=1e-10)


@pytest.mark.parametrize("steps", [1, 10, 100])
@pytest.mark.parametrize(
    "model",
    [ncv_model(1.0, 0.1), nca_model(1.0, 2.0), turn_model(1.0, 0.05, 1.0)],
    ids=["ncv", "nca", "turn"],
)
def test_composed_noise_stays_positive_definite(model, steps):
    ms = compose_steps(model, steps)
    np.testing.assert_allclose(ms.Q, ms.Q.T)
    np.linalg.cholesky(ms.Q + 1e-12 * np.eye(model.dim))


def test_invalid_arguments():
    with pytest.raises(ValueError):
        ncv_model(-1.0, 0.1)
    with pytest.raises(ValueError):
        ncv_model(1.0, -0.1)
    with pytest.raises(ValueError):
        compose_steps(ncv_model(1.0, 0.1), 0)


def test_lag_models_compose_each_lag_once(monkeypatch):
    # Every element carries compose_steps' model of its lag, bit for bit,
    # and a lag is composed on its first use only.
    composed = []
    compose = dynamics.compose_steps

    def counted(model, steps):
        composed.append(steps)
        return compose(model, steps)

    monkeypatch.setattr(dynamics, "compose_steps", counted)
    model = ncv_model(1.0, 0.5)
    lag_models = LagModels(model)
    for lags in ([[3, 1], [3, 12]], 12, [], [[1, 2]], 5):
        lags = np.asarray(lags, dtype=int)
        got = lag_models(lags)
        assert got.F.shape == got.Q.shape == lags.shape + (4, 4)
        np.testing.assert_array_equal(got.steps, lags)
        for index in np.ndindex(lags.shape):
            want = compose(model, int(lags[index]))
            np.testing.assert_array_equal(got.F[index], want.F)
            np.testing.assert_array_equal(got.Q[index], want.Q)
    assert composed == [1, 3, 12, 2, 5]


@pytest.mark.parametrize(
    "lags, shared", [([[10, 10], [10, 10]], True), ([7, 7, 7], True), ([[10, 1], [10, 10]], False)]
)
def test_lag_models_share_one_model_across_uniform_lags(lags, shared):
    # Equal lags give one (n, n) model, which kf_predict applies in 2-D
    # products; unequal lags give one model per element.  steps holds the
    # lag array either way.
    lags = np.asarray(lags)
    got = LagModels(ncv_model(1.0, 0.5))(lags)
    assert got.F.shape == got.Q.shape == ((4, 4) if shared else lags.shape + (4, 4))
    np.testing.assert_array_equal(got.steps, lags)


@pytest.mark.parametrize("lags", [0, -1, [2, 0], [[3, -2]]])
def test_lag_models_reject_lags_below_one(lags):
    with pytest.raises(ValueError, match="steps must be >= 1"):
        LagModels(ncv_model(1.0, 0.5))(lags)
