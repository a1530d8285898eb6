"""Local trackers: Kalman filter updates, IMM mixing, consistency."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from sensorreg import fusion, trackers
from sensorreg._linalg import mt, mv, symmetrize
from sensorreg.coords import CartesianMeasurement
from sensorreg.dynamics import LagModels, MotionModel, compose_steps, ncv_model
from sensorreg.errors import SingularMatrixError
from sensorreg.trackers import (
    ACCEL_PRIOR_VAR,
    GaussianEstimate,
    ImmState,
    imm_step,
    init_track,
    kf_predict,
    kf_update,
)


def _est(mean, cov, frame=0):
    return GaussianEstimate(mean=np.asarray(mean, float), cov=np.asarray(cov, float), frame=frame)


def test_predict_identity_model_is_noop():
    model = MotionModel(F=np.eye(4), Q=np.zeros((4, 4)))
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


def _stacked_predict(est, F, Q):
    # The stacked reference F P F' + Q, with F broadcast over the batch.
    F = np.broadcast_to(F, est.cov.shape)
    return mv(F, est.mean), F @ est.cov @ mt(F) + Q


@pytest.mark.parametrize("batch", [(2, 12), (5, 16), (16,)])
def test_shared_transition_predict_matches_the_stacked_product(batch):
    # A 2-D F, composed directly or shared by a LagModels call with equal
    # lags, predicts the batch in two 2-D BLAS products; it reassociates the
    # stacked F P F' + Q, so it agrees within rounding only.
    rng = np.random.default_rng(sum(batch))
    a = rng.standard_normal(batch + (4, 4))
    est = GaussianEstimate(
        mean=rng.standard_normal(batch + (4,)) * 1e3, cov=a @ mt(a) + np.eye(4), frame=3
    )
    lags = np.full(batch, 10)
    for model in (compose_steps(ncv_model(1.0, 0.7), 10), LagModels(ncv_model(1.0, 0.7))(lags)):
        assert model.F.shape == (4, 4)
        out = kf_predict(est, model)
        mean, cov = _stacked_predict(est, model.F, model.Q)
        np.testing.assert_allclose(out.mean, mean, rtol=1e-12, atol=1e-12 * np.abs(mean).max())
        np.testing.assert_allclose(out.cov, cov, rtol=1e-12, atol=1e-12 * np.abs(cov).max())
        np.testing.assert_array_equal(out.frame, 3 + lags)


@pytest.mark.parametrize("lags", [[[10, 10, 10], [10, 10, 10]], [[10, 1, 5], [2, 10, 10]]])
def test_an_element_predicts_alike_alone_and_in_a_batch(lags):
    # Every predicted entry is a row of a matrix product, so an element of a
    # batch with a shared transition (equal lags) or with per-element ones
    # (mixed lags) predicts as its batch-free call does, bit for bit.
    rng = np.random.default_rng(5)
    lags = np.array(lags)
    a = rng.standard_normal(lags.shape + (4, 4))
    est = GaussianEstimate(rng.standard_normal(lags.shape + (4,)) * 1e3, symmetrize(a @ mt(a)))
    lag_models = LagModels(ncv_model(1.0, 0.5))
    out = kf_predict(est, lag_models(lags))
    for index in np.ndindex(lags.shape):
        one = kf_predict(est[index], lag_models(lags[index]))
        np.testing.assert_array_equal(out.mean[index], one.mean)
        np.testing.assert_array_equal(out.cov[index], one.cov)


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
    est = init_track(z)
    np.testing.assert_allclose(est.mean, [100.0, 0.0, -50.0, 0.0])
    np.testing.assert_allclose(np.diag(est.cov), [200.0**2, 20.0**2, 200.0**2, 20.0**2])


def _imm(models, mu=(0.5, 0.5), pi=((0.95, 0.05), (0.05, 0.95))):
    z0 = CartesianMeasurement(z=[0.0, 0.0], R=100 * np.eye(2))
    est = init_track(z0)
    modes = GaussianEstimate(
        mean=np.stack([est.mean] * len(models)), cov=np.stack([est.cov] * len(models)), frame=0
    )
    model = MotionModel(F=np.stack([m.F for m in models]), Q=np.stack([m.Q for m in models]))
    return ImmState(modes=modes, model=model, mode_probs=np.array(mu), transition=np.array(pi))


def test_imm_state_rejects_nan_mode_probs():
    model = ncv_model(1.0, 1.0)
    with pytest.raises(ValueError, match="simplex"):
        _imm([model, model], mu=(np.nan, 0.5))
    with pytest.raises(ValueError, match="simplex"):
        _imm([model, model], mu=(np.nan, np.nan))


def test_imm_state_transition_rows_sum_to_one_within_1e_9():
    model = ncv_model(1.0, 1.0)
    # 1 + 5e-6 is inside np.allclose's default rtol of 1e-5, not inside 1e-9.
    with pytest.raises(ValueError, match="rows must sum to 1"):
        _imm([model, model], pi=((0.95, 0.05 + 5e-6), (0.05, 0.95)))
    with pytest.raises(ValueError, match="rows must sum to 1"):
        _imm([model, model], pi=((np.nan, 0.05), (0.05, 0.95)))
    _imm([model, model], pi=((0.95, 0.05 + 5e-10), (0.05, 0.95)))


def test_imm_step_does_not_revalidate_the_state_it_builds(monkeypatch):
    model = ncv_model(1.0, 1.0)
    state = _imm([model, model])

    def fail(self):
        raise AssertionError("imm_step re-ran the construction checks")

    monkeypatch.setattr(ImmState, "__post_init__", fail)
    z = CartesianMeasurement(z=[3.0, -1.0], R=50 * np.eye(2))
    new_state, _ = imm_step(state, z)
    assert new_state.model is state.model and new_state.transition is state.transition
    assert new_state.modes.frame == 1 and state.modes.frame == 0


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
        model=MotionModel(F=np.stack([models[0].F, F6]), Q=np.stack([models[0].Q, Q6])),
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
    from sensorreg.dynamics import nca_model

    z = CartesianMeasurement(z=[4.0, 4.0], R=50 * np.eye(2))
    track = init_track(CartesianMeasurement(z=[0.0, 0.0], R=100 * np.eye(2)))
    probs, Pi = np.array([0.5, 0.5]), np.array([[0.95, 0.05], [0.05, 0.95]])
    # A 4-dim bank, and a 6-dim one whose modes carry accelerations.
    banks = (
        (_imm([ncv_model(1.0, 10.0), ncv_model(1.0, 2.0)]), slice(None)),
        (ImmState.from_track(track, [nca_model(1.0, 10.0), ncv_model(1.0, 2.0)], probs, Pi),
         [0, 1, 3, 4]),
    )
    for state, idx in banks:
        new_state, combined = imm_step(state, z)
        mu, cov = new_state.mode_probs, new_state.modes.cov
        # Each mode's position/velocity block.
        base = sum(mu[j] * cov[j][idx][:, idx] for j in range(2))
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
    # The check runs where the next cycle's mixing is formed: at
    # construction for the initial probabilities, and at the end of the
    # cycle whose update drove a mode's probability to zero.
    from sensorreg.dynamics import nca_model

    model = ncv_model(1.0, 1.0)
    z0 = CartesianMeasurement(z=np.zeros((2, 2)), R=np.broadcast_to(np.eye(2), (2, 2, 2)))
    with pytest.raises(SingularMatrixError, match="unreachable mode") as info:
        ImmState.from_track(
            init_track(z0), [model, model], np.array([[0.5, 0.5], [1.0, 0.0]]), np.eye(2)
        )
    assert info.value.index == (1,)
    models = [nca_model(1.0, 10.0), ncv_model(1.0, 2.0)]
    state = ImmState.from_track(init_track(z0), models, [0.5, 0.5], np.eye(2))
    # 1e7 m off, bank 1's likelihoods differ by far more than exp can
    # resolve, so one mode's probability underflows to zero.
    far = CartesianMeasurement(z=np.array([[0.0, 0.0], [1e7, 0.0]]), R=z0.R)
    with pytest.raises(SingularMatrixError, match="unreachable mode") as info:
        imm_step(state, far)
    assert info.value.index == (1,)


def test_local_tracks_name_the_frame_that_left_a_mode_unreachable(monkeypatch):
    # An identity transition cannot bring a mode back, so the frame whose
    # update zeroed its probability is the one named, one frame before the
    # mixing that would divide by zero; the initial probabilities are
    # frame 0's.
    import sensorreg.harness.simulate as sim
    from sensorreg.harness import load_scenario, run_local_tracks, simulate_truth

    sc = load_scenario("two_sensor")
    sc.frames = 12
    sc.local_filter.type = "imm_nca_ncv"
    truth = simulate_truth(sc, 0)
    truth.cart_z[1, 0, 7] += 1e7
    monkeypatch.setattr(sim, "IMM_TRANSITION", np.eye(2))
    with pytest.raises(SingularMatrixError, match="^sensor 1, target 0, frame 7: unreachable"):
        run_local_tracks(sc, truth)
    monkeypatch.setattr(sim, "IMM_INITIAL_PROBS", np.array([1.0, 0.0]))
    with pytest.raises(SingularMatrixError, match="^sensor 0, target 0, frame 0: unreachable"):
        run_local_tracks(sc, truth)


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
    # Tolerance stated in CHANGES.md: KF covariances equal, KF means within
    # 1e-11 relative; IMM means and covariances within 1e-12 of each array's
    # largest magnitude.
    from sensorreg.harness import load_scenario, run_local_tracks, simulate_truth

    sc = load_scenario("two_sensor")
    sc.frames = 12
    sc.local_filter.type = filter_type
    truth = simulate_truth(sc, 0)
    tracks = run_local_tracks(sc, truth)
    mean, cov, _ = _per_stream_tracks(sc, truth)
    if filter_type == "kf":
        np.testing.assert_array_equal(tracks.cov, cov)
        np.testing.assert_allclose(tracks.mean, mean, rtol=1e-11, atol=0)
    else:
        for got, want in ((tracks.mean, mean), (tracks.cov, cov)):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())


@pytest.mark.parametrize("name", ["two_sensor", "five_sensor_offset"])
def test_ex_forms_the_local_filters_own_gains(monkeypatch, name):
    # The local tracks store no gain: ex forms each local filter's gain from
    # the filter's own prediction and the true measurement noise, bit for
    # bit the gain that kf_update records running each stream alone.  The
    # five-sensor case keeps its first two sensors, reporting every frame;
    # the fusion model differs from the local one, so only the local
    # filter's own prediction gives its gain.
    import dataclasses

    import sensorreg.harness.simulate as sim
    from sensorreg.harness import load_scenario, run_local_tracks, simulate_truth

    sc = load_scenario(name)
    sc.sensors = [dataclasses.replace(s, lag=1) for s in sc.sensors[:2]]
    sc.fusion_q = 10.0 * sc.local_filter.q
    truth = simulate_truth(sc, 0)
    formed, form = [], sim.reconstruct_local_gain
    monkeypatch.setattr(
        sim, "reconstruct_local_gain", lambda *args: formed.append(form(*args)) or formed[0]
    )
    sim._run_stacked(sc, truth, run_local_tracks(sc, truth), reconstructed=False)
    [(gain, faults)] = formed
    assert not np.any([failed for _, failed in faults])
    assert np.array_equal(gain.W, _per_stream_tracks(sc, truth)[2][:, :, 1:])


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


# Largest difference between the closed-form moment pass and the
# definitional mixture sum_i w_i (C_i + s_i s_i'), relative to each
# covariance's largest magnitude (measured up to 5.6e-16 over the test's
# draws).
MOMENTS_RTOL = 1e-14


def _mixtures(seed, m, batch=(4, 3), n=6):
    """Component estimates (batch, m) and the weights of m + 1 mixtures of
    them per bank, rows of a Dirichlet draw; the first row of each bank
    weighs one component with 1e-12."""
    rng = np.random.default_rng(seed)
    A = rng.normal(size=batch + (m, n, n))
    cov = symmetrize(A @ mt(A) + np.eye(n))
    mean = rng.normal(scale=100.0, size=batch + (m, n))
    weights = rng.dirichlet(np.ones(m), size=batch + (m + 1,))
    tiny = np.full(m, (1.0 - 1e-12) / (m - 1))
    tiny[0] = 1e-12
    weights[..., 0, :] = tiny
    return weights, GaussianEstimate(mean, cov)


def _moments(weights, est):
    """Means and covariances of trackers._moments, which forms each mixture
    as the rows [P; x']."""
    rows = trackers._moments(weights, est)
    return rows[..., -1, :], rows[..., :-1, :]


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("seed", range(4))
def test_moments_closed_form_is_symmetric_and_matches_the_definition(m, seed):
    weights, est = _mixtures(seed, m)
    x, P = _moments(weights, est)
    assert np.array_equal(P, mt(P))
    want_x = np.einsum("...ki,...in->...kn", weights, est.mean)
    np.testing.assert_allclose(x, want_x, rtol=1e-13, atol=0)
    spread = est.mean[..., None, :, :] - want_x[..., :, None, :]
    want = np.einsum(
        "...ki,...kiab->...kab",
        weights,
        est.cov[..., None, :, :, :] + spread[..., :, None] * spread[..., None, :],
    )
    scale = np.abs(want).max(axis=(-2, -1), keepdims=True)
    assert np.all(np.abs(P - want) <= MOMENTS_RTOL * scale)
    # One bank alone forms what it forms inside the batch, and weights
    # shared by the batch what they form per bank.
    one_x, one_P = _moments(weights[2, 1], est[2, 1])
    assert np.array_equal(one_x, x[2, 1]) and np.array_equal(one_P, P[2, 1])
    shared_x, shared_P = _moments(weights[2, 1], est)
    each_x, each_P = _moments(np.broadcast_to(weights[2, 1], weights.shape), est)
    assert np.array_equal(shared_x, each_x) and np.array_equal(shared_P, each_P)


def _innovation(pred, z):
    """The cofactor inverse and the determinant of the innovation covariance
    of a Kalman update of ``pred`` with ``z``, formed as kf_update forms
    them."""
    n = pred.dim
    S = pred.cov[..., :: n // 2, :: n // 2] + z.R
    det = S[..., 0, 0] * S[..., 1, 1] - S[..., 0, 1] * S[..., 1, 0]
    adj = mt(S)[..., ::-1, ::-1] * np.array([[1.0, -1.0], [-1.0, 1.0]])
    return adj / det[..., None, None], det


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
            pred = kf_predict(GaussianEstimate(mean=x0, cov=P0), model)
            upd, rec = kf_update(pred, z)
            nu = rec.innovation
            S_inv, det = _innovation(pred, z)
            maha = (nu[..., None, :] @ S_inv @ nu[..., None])[..., 0, 0]
            logliks.append(-0.5 * (maha + np.log(det) + 2 * np.log(2.0 * np.pi)))
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


# Largest difference between kf_update's covariance and the former dense
# Joseph form M P M' + W R W' (M = I - W H) with the same gain, relative to
# each output matrix's largest magnitude (measured up to 5.0e-13 over 30,000
# seeded draws of the test's distribution).
JOSEPH_RTOL = 5e-12


def _former_joseph(P, W, R):
    """The Joseph step as kf_update formed it before: two n x n x n products
    with the dense M = I - W H."""
    n = P.shape[-1]
    M = np.eye(n) - W @ np.eye(n)[:: n // 2]
    return symmetrize(M @ P @ mt(M) + W @ R @ mt(W))


def _spd(rng, shape, n):
    """SPD matrices whose standard deviations span 1e-1 to 1e3."""
    A = rng.standard_normal(shape + (n, n))
    d = 10.0 ** rng.uniform(-1.0, 3.0, shape + (n, 1))
    return d * (A @ mt(A) + 0.1 * np.eye(n)) * mt(d)


@given(
    n=st.sampled_from([4, 6]),
    shapes=st.sampled_from([((), ()), ((5,), (5,)), ((3, 2), (3, 1)), ((2, 4, 2), (2, 4, 1))]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_joseph_update_matches_the_former_dense_form(n, shapes, seed):
    # Batch shapes include a unit mode axis that the measurement broadcasts
    # over, as in imm_step.
    shape, z_shape = shapes
    rng = np.random.default_rng(seed)
    est = GaussianEstimate(rng.standard_normal(shape + (n,)) * 100.0, _spd(rng, shape, n))
    z = CartesianMeasurement(rng.standard_normal(z_shape + (2,)) * 100.0, _spd(rng, z_shape, 2))
    out, rec = kf_update(est, z)
    np.testing.assert_array_equal(out.cov, mt(out.cov))
    want = _former_joseph(est.cov, rec.gain, z.R)
    scale = np.abs(want).max(axis=(-2, -1), keepdims=True)
    assert np.all(np.abs(out.cov - want) <= JOSEPH_RTOL * scale)


# Largest difference between the local tracks and bias series and those of
# the former Kalman kernels (the dense Joseph step, and a stacked prediction
# symmetrized on every call), relative to each array's largest magnitude
# (measured on the A08 scenario up to 8.9e-15 for the tracks, in the IMM
# covariances over 5 runs, and 1.2e-12 for b_series over 10 runs).
TRACKS_RTOL = 1e-13
BIAS_SERIES_RTOL = 1e-11


def _former_kf_predict(est, model):
    mean = mv(model.F, est.mean)
    cov = symmetrize(model.F @ est.cov @ mt(model.F) + model.Q)
    return GaussianEstimate(mean=mean, cov=cov, frame=est.frame + model.steps)


def _former_kf_update(est, z):
    """kf_update with the former Joseph step; its mean and gain are
    unchanged."""
    out, rec = kf_update(est, z)
    return GaussianEstimate(out.mean, _former_joseph(est.cov, rec.gain, z.R), out.frame), rec


def _former_imm_step(state, z):
    """The IMM cycle run with the former Kalman kernels, with the combined
    output moment-matched on each mode's position/velocity marginal.
    Returns a bank state that carries what this step reads."""
    modes, mu, _ = _two_pass_imm_step(
        state.modes, state.mode_probs, state.model, state.transition, z,
        _former_kf_predict, _former_kf_update,
    )
    new_state = SimpleNamespace(
        modes=modes, mode_probs=mu, model=state.model, transition=state.transition
    )
    if modes.dim == 6:
        idx = np.array([0, 1, 3, 4])
        modes = GaussianEstimate(modes.mean[..., idx], modes.cov[..., idx[:, None], idx])
    x, P = _head_moments(mu[..., None, :], modes)
    return new_state, GaussianEstimate(x[..., 0, :], P[..., 0, :, :], new_state.modes.frame)


def _use_former_kernels(mp):
    import sensorreg.harness.simulate as sim

    for module in (trackers, sim, fusion):
        mp.setattr(module, "kf_predict", _former_kf_predict)
        mp.setattr(module, "kf_update", _former_kf_update)
    mp.setattr(sim, "imm_step", _former_imm_step)


def _a08(filter_type="imm_nca_ncv"):
    from sensorreg.harness import load_scenario

    sc = load_scenario("five_sensor_offset")
    sc.local_filter.type = filter_type
    sc.local_filter.q1, sc.local_filter.q2 = 10.0, 2.0
    sc.fusion_q = 200.0
    return sc


@pytest.mark.parametrize("filter_type", ["kf", "imm_nca_ncv"])
def test_local_tracks_match_the_former_kernels(filter_type):
    from sensorreg.harness import run_local_tracks, simulate_truth

    sc = _a08(filter_type)
    truth = simulate_truth(sc, 0)
    got = run_local_tracks(sc, truth)
    with pytest.MonkeyPatch.context() as mp:
        _use_former_kernels(mp)
        want = run_local_tracks(sc, truth)
    for name in ("mean", "cov"):
        g, w = getattr(got, name), getattr(want, name)
        np.testing.assert_allclose(
            g, w, rtol=0, atol=TRACKS_RTOL * np.nanmax(np.abs(w)), err_msg=name
        )


def test_a08_bias_series_match_the_former_kernels():
    from sensorreg.harness.simulate import run_single

    sc = _a08()
    for run in range(2):
        got = run_single(sc, run, "fbe")
        with pytest.MonkeyPatch.context() as mp:
            _use_former_kernels(mp)
            want = run_single(sc, run, "fbe")
        for g, w in ((got.b_series, want.b_series), (got.sigma_series, want.sigma_series)):
            np.testing.assert_allclose(g, w, rtol=0, atol=BIAS_SERIES_RTOL * np.abs(w).max())


# Largest difference between the one-pass IMM cycle and the former two-pass
# one, relative to each array's largest magnitude, over 100 frames of the A08
# configuration (measured: the modes and their probabilities bit-identical,
# the combined output up to 1.6e-16).
ONE_PASS_RTOL = 1e-12


def _head_moments(weights, est):
    """The closed-form moment pass as trackers._moments formed it before it
    returned the rows [P; x']: the means, then the covariances from the
    component covariances and the pair products of the mean differences."""
    mean, n = est.mean, est.dim
    m = mean.shape[-2]
    d = [mean[..., i : i + 1, :] - mean[..., i + 1 :, :] for i in range(m - 1)]
    pair_w = [weights[..., i : i + 1] * weights[..., i + 1 :] for i in range(m - 1)]
    flat = est.cov.shape[:-3] + (-1, n * n)
    outer = [(v[..., :, None] * v[..., None, :]).reshape(flat) for v in d]
    x = weights @ mean
    P = np.concatenate([weights] + pair_w, axis=-1) @ np.concatenate(
        [est.cov.reshape(flat)] + outer, axis=-2
    )
    return x, P.reshape(x.shape + (n,))


def _head_loglik(nu, S_inv, det):
    """The Gaussian log-likelihood of each innovation ``nu`` as the IMM
    formed it from the update's record, given the inverse and determinant
    of its covariance."""
    row = nu[..., :1] * S_inv[..., 0, :] + nu[..., 1:] * S_inv[..., 1, :]
    maha = (row[..., None, :] @ nu[..., None])[..., 0, 0]
    return -0.5 * (maha + np.log(det) + nu.shape[-1] * np.log(2.0 * np.pi))


def _two_pass_imm_step(modes, mu, model, Pi, z, predict=kf_predict, update=kf_update):
    """The IMM cycle as imm_step ran it before: mix the updated modes at the
    start of the cycle, predict and update, reweight, then moment-match the
    combined output in a second pass.  Returns the updated modes, their
    probabilities and the combined estimate."""
    c_bar = mu @ Pi
    w = Pi.T * mu[..., None, :] / c_bar[..., :, None]
    x0, P0 = _head_moments(w, modes)
    z = CartesianMeasurement(z=z.z[..., None, :], R=z.R[..., None, :, :])
    pred = predict(GaussianEstimate(x0, P0, modes.frame), model)
    modes, rec = update(pred, z)
    log_mu = np.log(c_bar) + _head_loglik(rec.innovation, *_innovation(pred, z))
    log_mu -= log_mu.max(axis=-1, keepdims=True)
    mu = np.exp(log_mu)
    mu /= mu.sum(axis=-1, keepdims=True)
    x, P = _head_moments(mu[..., None, :], modes)
    x, P = x[..., 0, :], P[..., 0, :, :]
    if modes.dim == 6:
        x, P = x[..., _REF_POS_VEL], P[..., _REF_POS_VEL[:, None], _REF_POS_VEL]
    return modes, mu, GaussianEstimate(x, P, modes.frame)


@pytest.mark.parametrize("filter_type", ["imm_ncv_ncv", "imm_nca_ncv"])
def test_one_pass_imm_cycle_matches_the_two_pass_cycle(filter_type):
    from sensorreg.harness import simulate_truth
    from sensorreg.harness.simulate import IMM_INITIAL_PROBS, IMM_TRANSITION, _local_model

    sc = _a08(filter_type)
    truth = simulate_truth(sc, 0)
    est = init_track(CartesianMeasurement(z=truth.cart_z[:, :, 0], R=truth.cart_R[:, :, 0]))
    state = ImmState.from_track(est, _local_model(sc), IMM_INITIAL_PROBS, IMM_TRANSITION)
    modes, mu = state.modes, state.mode_probs
    got, want = [], []
    for k in range(1, sc.frames + 1):
        z = CartesianMeasurement(z=truth.cart_z[:, :, k], R=truth.cart_R[:, :, k])
        state, combined = imm_step(state, z)
        modes, mu, ref = _two_pass_imm_step(modes, mu, state.model, IMM_TRANSITION, z)
        got.append((state.modes.mean, state.modes.cov, state.mode_probs, combined.mean, combined.cov))
        want.append((modes.mean, modes.cov, mu, ref.mean, ref.cov))
    assert k == 100 and state.modes.frame == modes.frame == 100
    names = ("mode means", "mode covariances", "mode probabilities", "mean", "covariance")
    for name, g, w in zip(names, zip(*got), zip(*want)):
        g, w = np.stack(g), np.stack(w)
        np.testing.assert_allclose(g, w, rtol=0, atol=ONE_PASS_RTOL * np.abs(w).max(), err_msg=name)
