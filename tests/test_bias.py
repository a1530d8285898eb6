"""Bias pseudo-measurements and the recursive estimators."""

import numpy as np
import pytest
from conftest import checked

from sensorreg.bias import (
    BiasEstimate,
    PseudoMeasurement,
    difference_pseudo_measurement,
    pseudo_measurement_faults,
    rlsb_update,
    sensor_pseudo_obs,
)
from sensorreg._linalg import mv
from sensorreg.coords import (
    CartesianMeasurement,
    cart_to_polar,
    converted_covariance,
    jacobians_at,
)
from sensorreg.dynamics import compose_steps, ncv_model
from sensorreg.errors import NumericalError, raise_first
from sensorreg.trackers import GaussianEstimate, init_track

# Position selector of the [x, xdot, y, ydot] state: rows 0 and 2 of I.
H_POS = np.eye(4)[::2]


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
    H = H_POS
    prev_mean = rng.standard_normal(4) * 100
    W = rng.standard_normal((4, 2))
    z = rng.standard_normal(2) * 50
    x_pred = ms.F @ prev_mean
    curr_mean = x_pred + W @ (z - H @ x_pred)
    prev = GaussianEstimate(mean=prev_mean, cov=np.eye(4), frame=0)
    curr = GaussianEstimate(mean=curr_mean, cov=np.eye(4), frame=1)
    out = checked(sensor_pseudo_obs(curr, prev, W, ms))
    np.testing.assert_allclose(out, z, rtol=1e-9)


def test_pseudo_obs_zero_noise_zero_bias_track():
    # With no bias, no noise and a unit gain structure, the deconvolved
    # observation equals the propagated position.
    ms = _ms()
    H = H_POS
    truth_prev = np.array([100.0, 10.0, -50.0, 5.0])
    truth_curr = ms.F @ truth_prev
    W = H.T.copy()
    prev = GaussianEstimate(mean=truth_prev, cov=np.eye(4), frame=0)
    curr_mean = ms.F @ truth_prev + W @ (H @ truth_curr - H @ ms.F @ truth_prev)
    curr = GaussianEstimate(mean=curr_mean, cov=np.eye(4), frame=1)
    out = checked(sensor_pseudo_obs(curr, prev, W, ms))
    np.testing.assert_allclose(out, H @ ms.F @ truth_prev, rtol=1e-9)


def test_pseudo_obs_rejects_rank_deficient_gain():
    ms = _ms()
    prev = GaussianEstimate(mean=np.zeros(4), cov=np.eye(4), frame=0)
    curr = GaussianEstimate(mean=np.zeros(4), cov=np.eye(4), frame=1)
    W = np.zeros((4, 2))
    W[:, 0] = [1.0, 0, 1.0, 0]
    W[:, 1] = [2.0, 0, 2.0, 0]
    # The check marks the gain, whose observation holds a stand-in.
    out, faults = sensor_pseudo_obs(curr, prev, W, ms)
    assert np.isfinite(out).all()
    with pytest.raises(NumericalError, match=r"^gain Gram matrix is singular \(cond ~ "):
        raise_first(faults)


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
    H = H_POS
    HHdag = H @ H.T @ np.linalg.inv(H @ H.T)
    np.testing.assert_allclose(HHdag, np.eye(2))
    # The selector reads back the positions a track is started from.
    z = np.array([120.0, -75.0])
    np.testing.assert_array_equal(H @ init_track(CartesianMeasurement(z=z, R=np.eye(2))).mean, z)


def test_rlsb_uninformative_observation_is_noop():
    est = BiasEstimate(b=[1.0, 2.0], Sigma=np.diag([4.0, 9.0]))
    pm = PseudoMeasurement(z=[[5.0, 5.0]], H=np.zeros((1, 2, 2)), R=np.eye(2)[None])
    out = rlsb_update(est, pm)[0]
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
        est = rlsb_update(est, PseudoMeasurement(z=[z], H=[H], R=[R]))[0]
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
        est = rlsb_update(est, PseudoMeasurement(z=[rng.standard_normal(2)], H=[H], R=[R]))[0]
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
                est = rlsb_update(est, PseudoMeasurement(z=[z], H=[H], R=[R]))[0]
                n += 1
            rms.setdefault(n_target, []).append(est.b[0] ** 2)
    r10 = np.sqrt(np.mean(rms[10]))
    r40 = np.sqrt(np.mean(rms[40]))
    r160 = np.sqrt(np.mean(rms[160]))
    assert r40 == pytest.approx(r10 / 2, rel=0.25)
    assert r160 == pytest.approx(r40 / 2, rel=0.25)


def test_rlsb_rejects_singular_innovation():
    est = BiasEstimate(b=np.zeros(2), Sigma=np.zeros((2, 2)))
    pm = PseudoMeasurement(z=np.zeros((1, 2)), H=np.eye(2)[None], R=np.zeros((1, 2, 2)))
    _, faults = rlsb_update(est, pm)
    assert faults[0] == ("bias covariance is not positive definite", True)


# Each kind of fold failure: what provokes it in element 1 of a batch of
# three stacks, whether the pseudo-measurement screen that callers apply
# before the fold or the fold's own checks catch it, and its reason.
FOLD_FAILURES = {
    # A NaN pseudo-measurement covariance fails its positive definiteness test.
    "nan": ("screen", "pseudo-measurement covariance not positive definite"),
    # The incoming bias covariance is negative definite.
    "indefinite": ("fold", "bias covariance is not positive definite"),
    # An infinite pseudo-measurement.
    "nonfinite": ("screen", "pseudo-measurement not finite"),
    # Observation rows of 1e160 overflow the information, so the updated
    # bias covariance is NaN.
    "overflow": ("fold", "bias covariance is not positive definite"),
}


@pytest.mark.parametrize("bad", list(FOLD_FAILURES))
def test_rlsb_names_the_element_whose_stacked_innovation_fails(bad):
    # The screen of the pseudo-measurements, reduced over each stack, and
    # the fold's checks of the incoming and the updated bias covariance mark
    # the estimate whose check fails (not the pseudo-measurement), which is
    # what a caller that drops failed estimates needs.
    rng = np.random.default_rng(13)
    parts = [_stacked_pseudo_measurements(rng, 5, "offset") for _ in range(3)]
    est = BiasEstimate(
        b=np.stack([e.b for e, _ in parts]), Sigma=np.stack([e.Sigma for e, _ in parts])
    )
    pm = PseudoMeasurement(
        z=np.stack([p.z for _, p in parts]),
        H=np.stack([p.H for _, p in parts]),
        R=np.stack([p.R for _, p in parts]),
    )
    if bad == "nan":
        pm.R[1, 3, 0, 0] = np.nan
    elif bad == "indefinite":
        est.Sigma[1] = -1e6 * np.eye(2)
    elif bad == "nonfinite":
        pm.z[1, 3, 0] = np.inf
    else:
        pm.H[1] *= 1e160
    stage, reason = FOLD_FAILURES[bad]
    if stage == "screen":
        faults = [(r, failed.any(axis=-1)) for r, failed in pseudo_measurement_faults(pm)]
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            _, faults = rlsb_update(est, pm)
    with pytest.raises(NumericalError, match=rf"^{reason} at batch index \[1\]$") as exc:
        raise_first(faults)
    assert exc.value.failed.tolist() == [False, True, False]


# Stacked folds agree with a sequential loop of single updates to this
# fraction of each output array's largest magnitude, per layout.  In the
# offset+scale layout the range offset and scale columns of H are nearly
# collinear (as are the azimuth ones); forming the stack's information
# H' R^-1 H then rounds at the 1e-12 level, and over 60 seeds of the test
# below the largest gap was 4.6e-11 (median 5.3e-13), against 1.2e-13 for
# the offset layout and 1.3e-13 for the two-sensor offset layout.
FOLD_RTOL = {"offset": 1e-12, "pair_offset": 1e-12, "offset_scale": 5e-11}

# The information form of rlsb_update agrees with the former 2m x 2m fold
# (conftest.former_rlsb_update) to this fraction of each output array's
# largest magnitude, per layout.  Over 60 seeds of the test below the
# largest gaps were 3.9e-13 (offset), 1.0e-13 (pair_offset) and 3.2e-11
# (offset_scale).
FORMER_FOLD_RTOL = {"offset": 1e-12, "pair_offset": 1e-12, "offset_scale": 1e-10}


def _stacked_pseudo_measurements(rng, m, layout):
    """m pseudo-measurements in the layouts the estimators fold: one
    sensor's offsets (``offset``, d = 2, ``H = -B``), the two-sensor offset
    stack of ``exl`` (``pair_offset``, d = 4, ``H = [B1, -B2]``) and one
    sensor's offsets and scales as ``fbe`` folds them (``offset_scale``,
    d = 4, ``H = -K``), over targets spread around two sensors 5 km apart,
    with the converted noise of both sensors and the scenario bias prior."""
    sensors = np.array([[0.0, 0.0], [5000.0, 0.0]])[:, None]
    r, theta = cart_to_polar(rng.uniform(-2e4, 2e4, (m, 2)), sensors)
    jac = jacobians_at(r, theta)
    R = 2.0 * converted_covariance(r, theta, 10.0, 1e-3).sum(axis=0)
    if layout == "offset":
        H, sigma = -jac.B[0], [20.0, 1e-3]
    elif layout == "pair_offset":
        H, sigma = np.concatenate([jac.B[0], -jac.B[1]], axis=-1), [20.0, 1e-3] * 2
    else:
        H, sigma = -jac.K[0], [20.0, 1e-3, 0.01, 0.01]
    sigma = np.array(sigma)
    b_true = rng.standard_normal(sigma.size) * sigma
    noise = np.linalg.cholesky(R) @ rng.standard_normal((m, 2, 1))
    pm = PseudoMeasurement(z=mv(H, b_true) + noise[..., 0], H=H, R=R)
    est = BiasEstimate(b=rng.standard_normal(sigma.size) * sigma, Sigma=np.diag(sigma**2))
    return est, pm


def _assert_fold_close(got: BiasEstimate, want: BiasEstimate, layout="offset") -> None:
    for g, w in ((got.b, want.b), (got.Sigma, want.Sigma)):
        np.testing.assert_allclose(g, w, rtol=0, atol=FOLD_RTOL[layout] * np.abs(w).max())


@pytest.mark.parametrize("layout", ["offset", "pair_offset", "offset_scale"])
def test_rlsb_stacked_fold_matches_sequential_updates(layout):
    rng = np.random.default_rng(sum(map(ord, layout)))
    for m in range(1, 41):
        est, pm = _stacked_pseudo_measurements(rng, m, layout)
        seq = est
        for j in range(m):
            rows = slice(j, j + 1)
            seq = rlsb_update(seq, PseudoMeasurement(pm.z[rows], pm.H[rows], pm.R[rows]))[0]
        _assert_fold_close(rlsb_update(est, pm)[0], seq, layout)


@pytest.mark.parametrize("layout", ["offset", "pair_offset", "offset_scale"])
def test_rlsb_matches_the_former_stacked_fold(former_fold, layout):
    rng = np.random.default_rng(sum(map(ord, layout)))
    for m in range(1, 41):
        est, pm = _stacked_pseudo_measurements(rng, m, layout)
        got, want = rlsb_update(est, pm)[0], former_fold(est, pm)
        for g, w in ((got.b, want.b), (got.Sigma, want.Sigma)):
            atol = FORMER_FOLD_RTOL[layout] * np.abs(w).max()
            np.testing.assert_allclose(g, w, rtol=0, atol=atol)


def test_rlsb_forms_no_array_that_grows_with_the_stack(monkeypatch):
    # Every array that reaches the fold's solve and its screens has the same
    # shape whatever the number m of pseudo-measurements in the stack.
    import sensorreg.bias as bias

    seen = []

    def recording(func):
        def wrapped(*args, **kwargs):
            seen.append(tuple(np.shape(a) for a in args))
            return func(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(bias, "solve_psd", recording(bias.solve_psd))
    monkeypatch.setattr(bias, "cholesky", recording(bias.cholesky))
    rng = np.random.default_rng(15)
    shapes = {}
    for m in (1, 16, 256):
        est, pm = _stacked_pseudo_measurements(rng, m, "offset_scale")
        seen.clear()
        rlsb_update(est, pm)[0]
        shapes[m] = list(seen)
    assert shapes[1] == [((4, 4),), ((4, 4), (4, 4)), ((4, 4),)]
    assert shapes[16] == shapes[256] == shapes[1]


def test_rlsb_padded_observations_change_nothing():
    rng = np.random.default_rng(11)
    for m in (1, 5, 12, 40):
        est, pm = _stacked_pseudo_measurements(rng, m, "pair_offset")
        at = rng.integers(0, m + 1, 3)
        padded = PseudoMeasurement(
            z=np.insert(pm.z, at, 0.0, axis=0),
            H=np.insert(pm.H, at, 0.0, axis=0),
            R=np.insert(pm.R, at, np.eye(2), axis=0),
        )
        _assert_fold_close(rlsb_update(est, padded)[0], rlsb_update(est, pm)[0])
    # A stack of padding alone leaves the estimate as it was.
    pad = PseudoMeasurement(
        z=np.zeros((3, 2)), H=np.zeros((3, 2, 4)), R=np.tile(np.eye(2), (3, 1, 1))
    )
    out = rlsb_update(est, pad)[0]
    np.testing.assert_array_equal(out.b, est.b)
    np.testing.assert_array_equal(out.Sigma, est.Sigma)


def test_rlsb_batched_stacks_match_separate_folds():
    # A batch of estimates, each with its own stack on the observation axis.
    rng = np.random.default_rng(12)
    parts = [_stacked_pseudo_measurements(rng, 7, "offset") for _ in range(3)]
    est = BiasEstimate(
        b=np.stack([e.b for e, _ in parts]), Sigma=np.stack([e.Sigma for e, _ in parts])
    )
    pm = PseudoMeasurement(
        z=np.stack([p.z for _, p in parts]),
        H=np.stack([p.H for _, p in parts]),
        R=np.stack([p.R for _, p in parts]),
    )
    out = rlsb_update(est, pm)[0]
    for i, (e, p) in enumerate(parts):
        _assert_fold_close(out[i], rlsb_update(e, p)[0])
