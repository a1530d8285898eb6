"""Local trackers: Kalman filter updates, IMM mixing, consistency."""

import numpy as np
import pytest
from scipy.stats import chi2

from sensorreg._linalg import symmetrize
from sensorreg.coords import CartesianMeasurement
from sensorreg.dynamics import MultiStepModel, ncv_model
from sensorreg.errors import SingularMatrixError
from sensorreg.trackers import (
    ACCEL_PRIOR_VAR,
    GaussianEstimate,
    ImmState,
    imm_step,
    init_track,
    kf_predict,
    kf_update,
    marginal_position_velocity,
)


def _est(mean, cov, frame=0):
    return GaussianEstimate(mean=np.asarray(mean, float), cov=np.asarray(cov, float), frame=frame)


def test_predict_identity_model_is_noop():
    from sensorreg.dynamics import MotionModel

    model = MotionModel(kind="ncv", T=1.0, F=np.eye(4), Q=np.zeros((4, 4)))
    est = _est([1, 2, 3, 4], np.eye(4))
    out = kf_predict(est, model)
    np.testing.assert_allclose(out.mean, est.mean)
    np.testing.assert_allclose(out.cov, est.cov)
    assert out.frame == 1


def test_predict_advances_unit_velocity():
    est = _est([0, 1, 0, 0], np.eye(4))
    out = kf_predict(est, ncv_model(1.0, 0.0))
    np.testing.assert_allclose(out.mean, [1, 1, 0, 0])


def test_predict_grows_trace_with_process_noise():
    est = _est([0, 0, 0, 0], np.eye(4))
    out = kf_predict(est, ncv_model(1.0, 0.5))
    prior_pred = kf_predict(est, ncv_model(1.0, 0.0))
    assert np.trace(out.cov) > np.trace(prior_pred.cov)


def test_update_with_huge_noise_keeps_prior():
    est = _est([0, 0, 0, 0], np.eye(4))
    z = CartesianMeasurement(z=[5.0, -3.0], R=1e12 * np.eye(2))
    out, rec = kf_update(est, z)
    np.testing.assert_allclose(out.mean, est.mean, atol=1e-9)
    assert np.abs(rec.gain).max() < 1e-9


def test_update_scalar_reduction():
    # Prior position variance 1, measurement variance 1: posterior mean and
    # variance halve the distance, as in the scalar closed form.
    cov = np.diag([1.0, 1e-12, 1.0, 1e-12])
    est = _est([0, 0, 0, 0], cov)
    z = CartesianMeasurement(z=[1.0, 1.0], R=np.eye(2))
    out, _ = kf_update(est, z)
    assert out.mean[0] == pytest.approx(0.5, rel=1e-9)
    assert out.mean[2] == pytest.approx(0.5, rel=1e-9)
    assert out.cov[0, 0] == pytest.approx(0.5, rel=1e-9)


def test_two_updates_match_batch_least_squares():
    est = _est([0, 0, 0, 0], np.diag([1e8, 1e8, 1e8, 1e8]))
    z1 = CartesianMeasurement(z=[10.0, 20.0], R=np.diag([4.0, 9.0]))
    z2 = CartesianMeasurement(z=[12.0, 14.0], R=np.diag([1.0, 3.0]))
    out, _ = kf_update(est, z1)
    out, _ = kf_update(out, z2)
    W = np.linalg.inv(np.linalg.inv(z1.R) + np.linalg.inv(z2.R))
    wls = W @ (np.linalg.solve(z1.R, z1.z) + np.linalg.solve(z2.R, z2.z))
    np.testing.assert_allclose(out.mean[[0, 2]], wls, rtol=1e-6)


def test_update_records_gain_and_innovation():
    est = _est([1, 0, 2, 0], np.eye(4))
    z = CartesianMeasurement(z=[2.0, 2.0], R=np.eye(2))
    out, rec = kf_update(est, z)
    np.testing.assert_allclose(rec.predicted_meas, [1.0, 2.0])
    np.testing.assert_allclose(rec.innovation, [1.0, 0.0])
    assert rec.gain.shape == (4, 2)


def test_update_posterior_never_exceeds_prior():
    rng = np.random.default_rng(3)
    for _ in range(50):
        A = rng.standard_normal((4, 4))
        cov = A @ A.T + 0.1 * np.eye(4)
        est = _est(rng.standard_normal(4), cov)
        B = rng.standard_normal((2, 2))
        z = CartesianMeasurement(z=rng.standard_normal(2), R=B @ B.T + 0.1 * np.eye(2))
        out, _ = kf_update(est, z)
        w = np.linalg.eigvalsh(est.cov - out.cov)
        assert w.min() > -1e-9 * np.abs(w).max()


def test_update_rejects_singular_innovation():
    est = _est([0, 0, 0, 0], np.zeros((4, 4)))
    z = CartesianMeasurement(z=[0.0, 0.0], R=np.zeros((2, 2)))
    with pytest.raises(SingularMatrixError):
        kf_update(est, z)


def test_init_track_layout():
    z = CartesianMeasurement(z=[100.0, -50.0], R=np.eye(2))
    est = init_track(z, frame=0)
    np.testing.assert_allclose(est.mean, [100.0, 0.0, -50.0, 0.0])
    np.testing.assert_allclose(np.diag(est.cov), [200.0**2, 20.0**2, 200.0**2, 20.0**2])


def _imm(models, mu=(0.5, 0.5), pi=((0.95, 0.05), (0.05, 0.95))):
    z0 = CartesianMeasurement(z=[0.0, 0.0], R=100 * np.eye(2))
    est = init_track(z0, frame=0)
    modes = GaussianEstimate(
        mean=np.stack([est.mean] * len(models)), cov=np.stack([est.cov] * len(models)), frame=0
    )
    model = MultiStepModel(
        F=np.stack([m.F for m in models]), Q=np.stack([m.Q for m in models]), steps=1
    )
    return ImmState(modes=modes, model=model, mode_probs=np.array(mu), transition=np.array(pi))


def test_imm_identical_modes_symmetric_prior_matches_single_kf():
    model = ncv_model(1.0, 1.0)
    state = _imm([model, model])
    z = CartesianMeasurement(z=[3.0, -1.0], R=50 * np.eye(2))
    new_state, combined = imm_step(state, z)
    kf = kf_predict(state.modes[0], model)
    kf, _ = kf_update(kf, z)
    np.testing.assert_allclose(combined.mean, kf.mean, rtol=1e-9)
    np.testing.assert_allclose(combined.cov, kf.cov, rtol=1e-9)
    np.testing.assert_allclose(new_state.mode_probs, [0.5, 0.5], atol=1e-12)


def test_imm_identity_transition_equal_likelihood_keeps_probs():
    model = ncv_model(1.0, 1.0)
    state = _imm([model, model], mu=(0.3, 0.7), pi=((1.0, 0.0), (0.0, 1.0)))
    z = CartesianMeasurement(z=[1.0, 1.0], R=50 * np.eye(2))
    new_state, _ = imm_step(state, z)
    np.testing.assert_allclose(new_state.mode_probs, [0.3, 0.7], atol=1e-12)


def test_imm_probability_concentrates_on_matched_mode():
    rng = np.random.default_rng(17)
    models = [ncv_model(1.0, 10.0), ncv_model(1.0, 2.0)]
    state = _imm(models)
    truth = np.array([0.0, 30.0, 0.0, -10.0])
    F = models[1].F
    R = 25.0 * np.eye(2)
    for _ in range(50):
        truth = F @ truth  # noise-free constant-velocity track
        z = CartesianMeasurement(z=truth[[0, 2]] + 5.0 * rng.standard_normal(2), R=R)
        state, _ = imm_step(state, z)
    assert state.mode_probs[1] > 0.65


def test_imm_mixed_dimension_modes():
    from sensorreg.dynamics import nca_model

    models = [nca_model(1.0, 10.0), ncv_model(1.0, 2.0)]
    z0 = CartesianMeasurement(z=[0.0, 0.0], R=100 * np.eye(2))
    est4 = init_track(z0)
    mean6 = np.zeros(6)
    mean6[[0, 1, 3, 4]] = est4.mean
    cov6 = np.zeros((6, 6))
    cov6[np.ix_([0, 1, 3, 4], [0, 1, 3, 4])] = est4.cov
    cov6[2, 2] = cov6[5, 5] = 100.0
    # The constant-velocity mode in the 6-dim space: zero acceleration rows
    # in F, the acceleration prior on the diagonal of Q.
    F6 = np.zeros((6, 6))
    Q6 = np.diag([0.0, 0.0, 100.0, 0.0, 0.0, 100.0])
    F6[np.ix_([0, 1, 3, 4], [0, 1, 3, 4])] = models[1].F
    Q6[np.ix_([0, 1, 3, 4], [0, 1, 3, 4])] = models[1].Q
    state = ImmState(
        modes=GaussianEstimate(mean=np.stack([mean6, mean6]), cov=np.stack([cov6, cov6])),
        model=MultiStepModel(F=np.stack([models[0].F, F6]), Q=np.stack([models[0].Q, Q6]), steps=1),
        mode_probs=np.array([0.5, 0.5]),
        transition=np.array([[0.95, 0.05], [0.05, 0.95]]),
    )
    rng = np.random.default_rng(5)
    for k in range(10):
        z = CartesianMeasurement(
            z=[10.0 * (k + 1) + rng.normal(0, 3), 0.0 + rng.normal(0, 3)],
            R=9.0 * np.eye(2),
        )
        state, combined = imm_step(state, z)
        assert combined.dim == 4
        assert np.all(np.isfinite(combined.mean))
    spread = state.mode_probs
    assert spread.sum() == pytest.approx(1.0)


def test_imm_combined_covariance_dominates_weighted_modes():
    models = [ncv_model(1.0, 10.0), ncv_model(1.0, 2.0)]
    state = _imm(models)
    z = CartesianMeasurement(z=[4.0, 4.0], R=50 * np.eye(2))
    new_state, combined = imm_step(state, z)
    mu = new_state.mode_probs
    base = sum(
        mu[j] * marginal_position_velocity(new_state.modes[j]).cov for j in range(2)
    )
    w = np.linalg.eigvalsh(combined.cov - base)
    assert w.min() > -1e-9


def test_unbiased_track_nees_within_chi_square_band():
    # Matched model and exact Gaussian measurement noise: average NEES over
    # Monte Carlo runs must sit inside the 95% chi-square band at most frames.
    rng = np.random.default_rng(23)
    model = ncv_model(1.0, 0.5)
    R = np.diag([25.0, 25.0])
    runs, frames = 100, 30
    chol = np.linalg.cholesky(model.Q + 1e-15 * np.eye(4))
    nees = np.zeros((runs, frames))
    for i in range(runs):
        truth = np.array([0.0, 10.0, 0.0, 5.0])
        est = GaussianEstimate(
            mean=truth + np.array([10.0, 1.0, -10.0, -1.0]) * rng.standard_normal(4),
            cov=np.diag([100.0, 1.0, 100.0, 1.0]),
            frame=0,
        )
        for k in range(frames):
            truth = model.F @ truth + chol @ rng.standard_normal(4)
            est = kf_predict(est, model)
            z = CartesianMeasurement(z=truth[[0, 2]] + 5.0 * rng.standard_normal(2), R=R)
            est, _ = kf_update(est, z)
            e = est.mean - truth
            nees[i, k] = e @ np.linalg.solve(est.cov, e)
    avg = nees.mean(axis=0)
    lo = chi2.ppf(0.025, 4 * runs) / runs
    hi = chi2.ppf(0.975, 4 * runs) / runs
    inside = np.sum((avg >= lo) & (avg <= hi))
    assert inside >= 0.9 * frames


def test_sym_cond_of_regular_and_singular_matrices():
    from sensorreg._linalg import sym_cond

    assert sym_cond(np.diag([1.0, 4.0])) == 4.0
    assert sym_cond(np.diag([1.0, 0.0])) == np.inf


def test_batched_update_names_singular_element():
    cov = np.stack([np.eye(4), np.zeros((4, 4)), np.eye(4)])
    R = np.stack([np.eye(2), np.zeros((2, 2)), np.eye(2)])
    est = GaussianEstimate(mean=np.zeros((3, 4)), cov=cov)
    with pytest.raises(SingularMatrixError, match=r"batch index \[1\]") as info:
        kf_update(est, CartesianMeasurement(z=np.zeros((3, 2)), R=R))
    assert info.value.index == (1,)


def test_batched_imm_names_unreachable_mode():
    model = ncv_model(1.0, 1.0)
    z0 = CartesianMeasurement(z=np.zeros((2, 2)), R=np.broadcast_to(np.eye(2), (2, 2, 2)))
    state = ImmState.from_track(
        init_track(z0), [model, model], np.array([[0.5, 0.5], [1.0, 0.0]]), np.eye(2)
    )
    with pytest.raises(SingularMatrixError, match="unreachable mode") as info:
        imm_step(state, z0)
    assert info.value.index == (1,)


def test_imm_from_track_embeds_with_accel_prior():
    from sensorreg.dynamics import nca_model

    est = init_track(CartesianMeasurement(z=[3.0, 4.0], R=np.eye(2)))
    probs, Pi = np.array([0.5, 0.5]), np.eye(2)
    state = ImmState.from_track(est, [nca_model(1.0, 10.0), ncv_model(1.0, 2.0)], probs, Pi)
    # The state owns its arrays: editing them leaves the caller's intact.
    assert not np.shares_memory(state.mode_probs, probs)
    assert not np.shares_memory(state.transition, Pi)
    six, four = state.modes[0], state.modes[1]
    idx = [0, 1, 3, 4]
    np.testing.assert_array_equal(six.mean[idx], est.mean)
    np.testing.assert_array_equal(six.cov[np.ix_(idx, idx)], est.cov)
    assert six.cov[2, 2] == six.cov[5, 5] == ACCEL_PRIOR_VAR
    np.testing.assert_array_equal(four.mean[idx], est.mean)
    # The constant-velocity mode lives in the 6-dim space: zero acceleration
    # rows in F and the acceleration prior on the diagonal of Q.
    F, Q = state.model.F, state.model.Q
    assert F.shape == Q.shape == (2, 6, 6)
    np.testing.assert_array_equal(F[1][np.ix_(idx, idx)], ncv_model(1.0, 2.0).F)
    np.testing.assert_array_equal(F[1][[2, 5]], 0.0)
    assert Q[1, 2, 2] == Q[1, 5, 5] == ACCEL_PRIOR_VAR


def _per_stream_tracks(sc, truth):
    """Reference: every (sensor, target) stream run alone through the
    batch-free tracker calls."""
    from sensorreg.harness.simulate import IMM_INITIAL_PROBS, IMM_TRANSITION, _local_model

    models = _local_model(sc)
    S, T, K1 = truth.cart_z.shape[:3]
    mean = np.empty((S, T, K1, 4))
    cov = np.empty((S, T, K1, 4, 4))
    gain = np.full((S, T, K1, 4, 2), np.nan)
    for s in range(S):
        for t in range(T):
            est = init_track(CartesianMeasurement(z=truth.cart_z[s, t, 0], R=truth.cart_R[s, t, 0]))
            mean[s, t, 0], cov[s, t, 0] = est.mean, est.cov
            if sc.local_filter.type != "kf":
                state = ImmState.from_track(est, models, IMM_INITIAL_PROBS, IMM_TRANSITION)
            for k in range(1, K1):
                z = CartesianMeasurement(z=truth.cart_z[s, t, k], R=truth.cart_R[s, t, k])
                if sc.local_filter.type == "kf":
                    est, rec = kf_update(kf_predict(est, models), z)
                    gain[s, t, k] = rec.gain
                else:
                    state, est = imm_step(state, z)
                mean[s, t, k], cov[s, t, k] = est.mean, est.cov
    return mean, cov, gain


@pytest.mark.parametrize("filter_type", ["kf", "imm_ncv_ncv", "imm_nca_ncv"])
def test_lockstep_tracks_match_per_stream_loop(filter_type):
    # Tolerance stated in CHANGES.md: KF gains and covariances equal, KF means
    # within 1e-11 relative; IMM means and covariances within 1e-12 of each
    # array's largest magnitude.
    from sensorreg.harness import load_scenario, run_local_tracks, simulate_truth

    sc = load_scenario("two_sensor")
    sc.frames = 12
    sc.local_filter.type = filter_type
    truth = simulate_truth(sc, 0)
    tracks = run_local_tracks(sc, truth)
    mean, cov, gain = _per_stream_tracks(sc, truth)
    if filter_type == "kf":
        np.testing.assert_array_equal(tracks.gain, gain)
        np.testing.assert_array_equal(tracks.cov, cov)
        np.testing.assert_allclose(tracks.mean, mean, rtol=1e-11, atol=0)
    else:
        assert tracks.gain is None
        for got, want in ((tracks.mean, mean), (tracks.cov, cov)):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())


_REF_POS_VEL = np.array([0, 1, 3, 4])


def _ref_embed(mean, cov, to_dim):
    """Map (batched) mode estimates between the 4- and 6-dim state spaces."""
    idx = _REF_POS_VEL
    if mean.shape[-1] == to_dim:
        return mean, cov
    if to_dim == 4:
        return mean[..., idx], cov[..., idx[:, None], idx]
    batch = mean.shape[:-1]
    mean6 = np.zeros(batch + (6,))
    mean6[..., idx] = mean
    cov6 = np.zeros(batch + (6, 6))
    cov6[..., idx[:, None], idx] = cov
    cov6[..., 2, 2] = cov6[..., 5, 5] = ACCEL_PRIOR_VAR
    return mean6, cov6


def _ref_moments(weights, means, covs):
    """Moment-matched mixture of per-mode lists; ``weights[..., i]`` weighs
    ``means[i]`` and ``covs[i]``."""
    x = sum(weights[..., i, None] * m for i, m in enumerate(means))
    P = sum(
        weights[..., i, None, None] * (P_i + (m - x)[..., :, None] * (m - x)[..., None, :])
        for i, (m, P_i) in enumerate(zip(means, covs))
    )
    return x, symmetrize(P)


def _per_mode_imm_tracks(sc, truth):
    """Reference: the IMM recursion with one filter call per mode, every mode
    in its own model's state space, and every source mode embedded into the
    destination mode's space at each mixing step."""
    from sensorreg.harness.simulate import IMM_INITIAL_PROBS, IMM_TRANSITION, _local_model

    models = _local_model(sc)
    Pi = IMM_TRANSITION
    K1 = truth.cart_z.shape[2]
    est = init_track(CartesianMeasurement(z=truth.cart_z[:, :, 0], R=truth.cart_R[:, :, 0]))
    modes = [_ref_embed(est.mean, est.cov, m.dim) for m in models]
    mu = np.broadcast_to(IMM_INITIAL_PROBS, est.mean.shape[:-1] + (2,))
    mean = np.empty(truth.cart_z.shape[:2] + (K1, 4))
    cov = np.empty(mean.shape + (4,))
    mean[:, :, 0], cov[:, :, 0] = est.mean, est.cov
    for k in range(1, K1):
        z = CartesianMeasurement(z=truth.cart_z[:, :, k], R=truth.cart_R[:, :, k])
        c_bar = mu @ Pi
        w = Pi * mu[..., :, None] / c_bar[..., None, :]
        new_modes, logliks = [], []
        for j, model in enumerate(models):
            means, covs = zip(*(_ref_embed(m, P, model.dim) for m, P in modes))
            x0, P0 = _ref_moments(w[..., j], means, covs)
            upd, rec = kf_update(kf_predict(GaussianEstimate(mean=x0, cov=P0), model), z)
            nu = rec.innovation
            maha = (nu[..., None, :] @ rec.innovation_inv @ nu[..., None])[..., 0, 0]
            logliks.append(-0.5 * (maha + rec.innovation_logdet + 2 * np.log(2.0 * np.pi)))
            new_modes.append((upd.mean, upd.cov))
        log_mu = np.log(c_bar) + np.stack(logliks, axis=-1)
        log_mu -= log_mu.max(axis=-1, keepdims=True)
        mu = np.exp(log_mu)
        mu /= mu.sum(axis=-1, keepdims=True)
        modes = new_modes
        outs = [_ref_embed(m, P, 4) for m, P in modes]
        mean[:, :, k], cov[:, :, k] = _ref_moments(mu, *zip(*outs))
    return mean, cov


@pytest.mark.parametrize("filter_type", ["imm_ncv_ncv", "imm_nca_ncv"])
def test_stacked_imm_matches_per_mode_reference(filter_type):
    # Tolerance stated in CHANGES.md: the stacked bank's means and
    # covariances stay within 1e-13 of each array's largest magnitude of the
    # per-mode recursion (mixing in every destination mode's own space).
    from sensorreg.harness import load_scenario, run_local_tracks, simulate_truth

    sc = load_scenario("two_sensor")
    sc.frames = 12
    sc.local_filter.type = filter_type
    truth = simulate_truth(sc, 0)
    tracks = run_local_tracks(sc, truth)
    mean, cov = _per_mode_imm_tracks(sc, truth)
    for got, want in ((tracks.mean, mean), (tracks.cov, cov)):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.abs(want).max())
