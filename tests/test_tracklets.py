"""Equivalent measurements: inverse-filter identity, the position-marginal
(decorrelated) form, single-step equivalence with the raw measurement, and
the per-element choice of form."""

import numpy as np
import pytest
from conftest import checked

from sensorreg.coords import CartesianMeasurement
from sensorreg.dynamics import MotionModel, compose_steps, ncv_model
from sensorreg.errors import NumericalError, raise_first
from sensorreg import tracklets
from sensorreg.fusion import reconstruct_local_gain
from sensorreg.trackers import GaussianEstimate, kf_predict, kf_update
from sensorreg.tracklets import (
    Tracklet,
    compute_tracklet,
    tracklet_decorrelated,
    tracklet_inverse_kf,
)


def _random_spd(rng, n, lo=0.5, hi=50.0):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return q @ np.diag(rng.uniform(lo, hi, n)) @ q.T


def _random_pair(rng):
    """Random (prev, curr, model) with full-rank information gain."""
    model = compose_steps(ncv_model(1.0, rng.uniform(0.05, 2.0)), rng.integers(1, 6))
    prev = GaussianEstimate(
        mean=rng.standard_normal(4) * 100.0, cov=_random_spd(rng, 4), frame=0
    )
    P_pred = model.F @ prev.cov @ model.F.T + model.Q
    # Full-state update with random noise keeps the covariance difference
    # invertible.
    R = _random_spd(rng, 4)
    P_curr = np.linalg.inv(np.linalg.inv(P_pred) + np.linalg.inv(R))
    curr = GaussianEstimate(
        mean=rng.standard_normal(4) * 100.0,
        cov=0.5 * (P_curr + P_curr.T),
        frame=model.steps,
    )
    return prev, curr, model


def test_no_innovation_returns_prediction():
    rng = np.random.default_rng(0)
    prev, curr, model = _random_pair(rng)
    x_pred = model.F @ prev.mean
    curr.mean = x_pred.copy()
    t = checked(tracklet_inverse_kf(kf_predict(prev, model), curr))
    np.testing.assert_allclose(t.u, x_pred, rtol=1e-9)


def test_weighting_identity_on_random_inputs():
    # A P(k|k) and (A - I) P(k|k') are two expressions for the same
    # covariance; they must agree to near machine precision.
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(1000):
        prev, curr, model = _random_pair(rng)
        P_pred = kf_predict(prev, model).cov
        t = checked(tracklet_inverse_kf(kf_predict(prev, model), curr))
        lhs = t.A @ curr.cov
        rhs = (t.A - np.eye(4)) @ P_pred
        rel = np.linalg.norm(lhs - rhs) / np.linalg.norm(t.U)
        worst = max(worst, rel)
    assert worst <= 1e-9


def test_transpose_identity():
    rng = np.random.default_rng(1)
    prev, curr, model = _random_pair(rng)
    t = checked(tracklet_inverse_kf(kf_predict(prev, model), curr))
    lhs = t.A @ curr.cov
    np.testing.assert_allclose(lhs, lhs.T, atol=1e-10 * np.abs(lhs).max())


def test_covariance_symmetrized():
    rng = np.random.default_rng(2)
    prev, curr, model = _random_pair(rng)
    t = checked(tracklet_inverse_kf(kf_predict(prev, model), curr))
    np.testing.assert_allclose(t.U, t.U.T)


def test_monte_carlo_error_covariance_matches_U():
    # Over many noise realizations of the same filtering problem, the sample
    # covariance of (u - x_true) must match the reported U.  The filter is
    # linear with fixed R, so gains are shared and runs vectorize.
    rng = np.random.default_rng(3)
    model = ncv_model(1.0, 0.2)
    steps = 4
    R = np.diag([25.0, 16.0])
    n = 100_000
    cholQ = np.linalg.cholesky(model.Q + 1e-15 * np.eye(4))
    cholR = np.linalg.cholesky(R)

    P = np.diag([50.0, 4.0, 50.0, 4.0])
    truth = np.zeros((n, 4))
    est = truth + rng.standard_normal((n, 4)) @ np.linalg.cholesky(P).T
    H = np.array([[1.0, 0, 0, 0], [0, 0, 1.0, 0]])

    prev_cov = P.copy()
    prev_est = est.copy()
    for _ in range(steps):
        truth = truth @ model.F.T + rng.standard_normal((n, 4)) @ cholQ.T
        est = est @ model.F.T
        P = model.F @ P @ model.F.T + model.Q
        z = truth @ H.T + rng.standard_normal((n, 2)) @ cholR.T
        S = H @ P @ H.T + R
        W = np.linalg.solve(S.T, (P @ H.T).T).T
        est = est + (z - est @ H.T) @ W.T
        P = (np.eye(4) - W @ H) @ P
        P = 0.5 * (P + P.T)

    ms = compose_steps(model, steps)
    us = np.empty((n, 4))
    prev0 = GaussianEstimate(mean=prev_est[0], cov=prev_cov, frame=0)
    t0 = checked(
        tracklet_inverse_kf(
            kf_predict(prev0, ms), GaussianEstimate(mean=est[0], cov=P, frame=steps)
        )
    )
    # A depends only on covariances, so apply it across all runs at once.
    x_pred = prev_est @ ms.F.T
    us = x_pred + (est - x_pred) @ t0.A.T
    err = us - truth
    sample = np.cov(err.T)
    np.testing.assert_allclose(sample, t0.U, rtol=5e-2, atol=5e-2 * np.abs(t0.U).max())


def test_inverse_kf_rejects_singular_difference():
    # A single-step position-only update leaves the covariance difference
    # rank deficient, which fails the check of the inverse-filter form:
    # compute_tracklet gives the pair the position-marginal form.
    prev = GaussianEstimate(mean=np.zeros(4), cov=np.diag([100.0, 4.0, 100.0, 4.0]), frame=0)
    pred = kf_predict(prev, ncv_model(1.0, 0.1))
    curr, _ = kf_update(pred, CartesianMeasurement(z=[1.0, 1.0], R=np.eye(2)))
    _, [(reason, failed)] = tracklet_inverse_kf(pred, curr)
    assert failed and "condition screen" in reason
    with pytest.raises(NumericalError, match="condition screen"):
        checked(tracklet_inverse_kf(pred, curr))
    t = checked(compute_tracklet(pred, curr))
    want = checked(tracklet_decorrelated(pred, curr))
    assert t.u.shape == (2,) and t.U.shape == (2, 2)
    np.testing.assert_array_equal(t.u, want.u)
    np.testing.assert_array_equal(t.U, want.U)


def _eigvalsh_screen(D):
    # The condition screen as an eigenvalue test alone.
    finite = np.isfinite(D).all(axis=(-2, -1))
    w = np.linalg.eigvalsh(np.where(finite[..., None, None], D, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        return (w[..., 0] > 0.0) & (w[..., -1] / w[..., 0] <= tracklets.COND_LIMIT)


def _with_condition(rng, cond):
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    D = q @ np.diag(np.geomspace(1.0, cond, 4) * rng.uniform(1.0, 1e4)) @ q.T
    return 0.5 * (D + D.T)


def _screen_batch(rng, kinds):
    """Covariance differences of each kind in ``kinds``, in order."""
    out = []
    for kind in kinds:
        if kind == "spd":
            out.append(_random_spd(rng, 4, 1e-2, 1e4))
        elif kind == "near_singular":
            v = rng.standard_normal((4, 3))
            out.append(v @ v.T + 1e-13 * np.eye(4))
        elif kind == "singular":
            v = rng.standard_normal((4, 3))
            out.append(v @ v.T)
        elif kind == "indefinite":
            out.append(_random_spd(rng, 4) - 60.0 * np.eye(4))
        elif kind == "cond_1e12":
            out.append(_with_condition(rng, rng.uniform(0.8e12, 1.25e12)))
        elif kind == "cond_bound":
            # About where the trace bound stops deciding.
            out.append(_with_condition(rng, 10.0 ** rng.uniform(9.0, 11.5)))
        else:
            D = _random_spd(rng, 4)
            D[rng.integers(4), rng.integers(4)] = {"nan": np.nan, "inf": np.inf}[kind]
            out.append(D)
    return np.array(out)


_SCREEN_KINDS = [
    "spd", "near_singular", "singular", "indefinite", "cond_1e12", "cond_bound", "nan", "inf"
]


@pytest.mark.parametrize("seed", range(20))
@pytest.mark.parametrize("only", [None, "spd", "cond_1e12", "cond_bound"])
def test_condition_screen_matches_the_eigenvalue_test(seed, only, monkeypatch):
    # The trace bound decides most elements and eigvalsh the rest, so the
    # choice of form equals the eigenvalue test element for element, on
    # batches that factor (one kind) and batches that do not (all kinds).
    rng = np.random.default_rng(seed)
    kinds = [only] * 12 if only else list(rng.choice(_SCREEN_KINDS, 24))
    D = _screen_batch(rng, kinds)
    want = _eigvalsh_screen(D)
    eigvalsh = np.linalg.eigvalsh
    screened = []

    def counted(a):
        screened.append(len(a))
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    got = tracklets._inverse_form(D.copy())
    np.testing.assert_array_equal(got, want, err_msg=str(kinds))
    if only == "spd":
        # Well conditioned: the bound decides every element.
        assert got.all() and screened == []
    if only == "cond_1e12":
        # Both sides of the limit, each decided by eigvalsh.
        assert got.any() and not got.all() and screened == [12]


# A static model without process noise: the prediction is the previous
# snapshot itself, so each position axis is a scalar problem.
_STATIC = MotionModel(F=np.eye(4), Q=np.zeros((4, 4)))


def test_decorrelated_scalar_case():
    # Information 2 after and 1 before: U = 1 and u = 2 * 2 - 1 per axis.
    prev = GaussianEstimate(mean=np.full(4, 1.0), cov=np.eye(4), frame=0)
    curr = GaussianEstimate(mean=np.full(4, 2.0), cov=0.5 * np.eye(4), frame=1)
    t = checked(tracklet_decorrelated(kf_predict(prev, _STATIC), curr))
    np.testing.assert_allclose(t.U, np.eye(2), rtol=1e-12)
    np.testing.assert_allclose(t.u, [2 * 2.0 - 1.0] * 2, rtol=1e-12)


def test_decorrelated_no_update_is_prediction_fixed_point():
    prev = GaussianEstimate(mean=np.full(4, 3.0), cov=np.eye(4), frame=0)
    curr = GaussianEstimate(mean=np.full(4, 3.0), cov=0.5 * np.eye(4), frame=1)
    t = checked(tracklet_decorrelated(kf_predict(prev, _STATIC), curr))
    np.testing.assert_allclose(t.u, [3.0, 3.0])


def test_decorrelated_single_step_recovers_measurement():
    # Running a position-updating filter for one step and inverting it must
    # reproduce the measurement and its covariance on the position block.
    rng = np.random.default_rng(9)
    model = ncv_model(1.0, 0.3)
    prev = GaussianEstimate(
        mean=rng.standard_normal(4) * 10,
        cov=np.diag([40000.0, 400.0, 40000.0, 400.0]),
        frame=0,
    )
    z = CartesianMeasurement(z=rng.standard_normal(2) * 100, R=np.diag([100.0, 421.0]))
    pred = kf_predict(prev, model)
    curr, _ = kf_update(pred, z)
    t = checked(tracklet_decorrelated(kf_predict(prev, compose_steps(model, 1)), curr))
    np.testing.assert_allclose(t.u, z.z, rtol=1e-8)
    np.testing.assert_allclose(t.U, z.R, rtol=1e-8)


def test_decorrelated_rejects_information_loss():
    model = MotionModel(F=np.eye(4), Q=np.zeros((4, 4)))
    prev = GaussianEstimate(mean=np.zeros(4), cov=np.eye(4), frame=0)
    curr = GaussianEstimate(mean=np.zeros(4), cov=2.0 * np.eye(4), frame=1)
    with pytest.raises(NumericalError):
        checked(tracklet_decorrelated(kf_predict(prev, model), curr))


def test_fused_decorrelated_tracklets_match_centralized_filter():
    # Two unbiased sensors, matched linear models: fusing their single-step
    # tracklets must reproduce the centralized filter that sees both raw
    # measurements.
    rng = np.random.default_rng(33)
    model = ncv_model(1.0, 0.4)
    P0 = np.diag([400.0, 25.0, 400.0, 25.0])
    x0 = np.array([10.0, 1.0, -5.0, 2.0])
    locals_ = [
        GaussianEstimate(mean=x0.copy(), cov=P0.copy(), frame=0) for _ in range(2)
    ]
    central = GaussianEstimate(mean=x0.copy(), cov=P0.copy(), frame=0)
    Rs = [np.diag([100.0, 150.0]), np.diag([80.0, 120.0])]
    ms1 = compose_steps(model, 1)

    for k in range(6):
        zs = [
            CartesianMeasurement(z=rng.standard_normal(2) * 50, R=Rs[i])
            for i in range(2)
        ]
        new_locals = []
        tl = []
        for i in range(2):
            pred = kf_predict(locals_[i], model)
            upd, _ = kf_update(pred, zs[i])
            tl.append(checked(tracklet_decorrelated(kf_predict(locals_[i], ms1), upd)))
            new_locals.append(upd)
        locals_ = new_locals

        central = kf_predict(central, model)
        for i in range(2):
            y = CartesianMeasurement(z=tl[i].u, R=tl[i].U)
            central, _ = kf_update(central, y)

    reference = GaussianEstimate(mean=x0.copy(), cov=P0.copy(), frame=0)
    rng2 = np.random.default_rng(33)
    for k in range(6):
        zs = [
            CartesianMeasurement(z=rng2.standard_normal(2) * 50, R=Rs[i])
            for i in range(2)
        ]
        reference = kf_predict(reference, model)
        for i in range(2):
            reference, _ = kf_update(reference, zs[i])

    np.testing.assert_allclose(central.cov, reference.cov, rtol=1e-6)
    np.testing.assert_allclose(central.mean, reference.mean, rtol=1e-6, atol=1e-8)


def _snapshot_pair(rng, model, kind):
    """(prev, curr) one step apart: a position-only Kalman update ("pos"),
    a full-state update ("full"), or a covariance that grew ("loss")."""
    prev = GaussianEstimate(
        mean=rng.standard_normal(4) * 100.0, cov=_random_spd(rng, 4, 5.0, 500.0), frame=0
    )
    if kind == "pos":
        z = CartesianMeasurement(
            z=rng.standard_normal(2) * 100.0, R=_random_spd(rng, 2, 50.0, 400.0)
        )
        curr, _ = kf_update(kf_predict(prev, model), z)
        return prev, curr
    P_pred = model.F @ prev.cov @ model.F.T + model.Q
    if kind == "full":
        P_curr = np.linalg.inv(np.linalg.inv(P_pred) + np.linalg.inv(_random_spd(rng, 4)))
    else:
        P_curr = 2.0 * P_pred
    curr = GaussianEstimate(
        mean=rng.standard_normal(4) * 100.0, cov=0.5 * (P_curr + P_curr.T), frame=1
    )
    return prev, curr


def _stacked(pairs, shape):
    def stack(which):
        return GaussianEstimate(
            mean=np.stack([p[which].mean for p in pairs]).reshape(shape + (4,)),
            cov=np.stack([p[which].cov for p in pairs]).reshape(shape + (4, 4)),
            frame=pairs[0][which].frame,
        )

    return stack(0), stack(1)


def test_batched_tracklet_and_gain_match_per_pair_loop():
    # A (2, 2) batch of position-only and full-state updates: each element
    # equals its own batch-free tracklet and gain.
    rng = np.random.default_rng(21)
    ms1 = compose_steps(ncv_model(1.0, 0.3), 1)
    kinds = ["pos", "pos", "full", "pos"]
    pairs = [_snapshot_pair(rng, ms1, kind) for kind in kinds]
    prev, curr = _stacked(pairs, (2, 2))
    pred = kf_predict(prev, ms1)
    t = checked(tracklet_decorrelated(pred, curr))
    g = checked(reconstruct_local_gain(t.U, pred.cov))
    assert t.u.shape == (2, 2, 2) and t.U.shape == (2, 2, 2, 2)
    assert pred.cov.shape == (2, 2, 4, 4)
    assert g.W.shape == (2, 2, 4, 2) and g.R.shape == (2, 2, 2, 2)
    for i, (prev, curr) in enumerate(pairs):
        idx = divmod(i, 2)
        pred1 = kf_predict(prev, ms1)
        t1 = checked(tracklet_decorrelated(pred1, curr))
        g1 = checked(reconstruct_local_gain(t1.U, pred1.cov))
        for batched, single in [
            (t.u, t1.u), (t.U, t1.U), (pred.cov, pred1.cov),
            (g.W, g1.W), (g.R, g1.R),
        ]:
            np.testing.assert_allclose(batched[idx], single, rtol=1e-12, atol=0.0)


def test_batched_tracklet_rejects_indefinite_element():
    rng = np.random.default_rng(22)
    ms1 = compose_steps(ncv_model(1.0, 0.3), 1)
    pairs = [_snapshot_pair(rng, ms1, kind) for kind in ["pos", "loss", "full"]]
    with pytest.raises(NumericalError, match=r"not positive definite at batch index \[1\]"):
        prev, curr = _stacked(pairs, (3,))
        checked(tracklet_decorrelated(kf_predict(prev, ms1), curr))


@pytest.mark.parametrize("shape", [(2,), (1, 2)])
def test_mixed_batch_names_a_failure_at_the_first_element(shape):
    # Element 0 takes the position-marginal form and fails; element 1
    # passes the inverse-filter form.  The error keeps the first element's
    # index on the whole batch.
    rng = np.random.default_rng(23)
    ms1 = compose_steps(ncv_model(1.0, 0.3), 1)
    pairs = [_snapshot_pair(rng, ms1, kind) for kind in ["loss", "full"]]
    with pytest.raises(NumericalError, match="not positive definite") as info:
        prev, curr = _stacked(pairs, shape)
        checked(compute_tracklet(kf_predict(prev, ms1), curr))
    assert info.value.index == (0,) * len(shape)
    np.testing.assert_array_equal(info.value.failed, np.reshape([True, False], shape))


def _tracked_pair(rng, lag):
    """(prev, curr, model) of a local track that made ``lag`` position-only
    Kalman updates between its two reports; for ``lag`` >= 2 the covariance
    difference is full rank, so the inverse-filter form applies."""
    model = ncv_model(1.0, rng.uniform(0.05, 2.0))
    prev = GaussianEstimate(
        mean=rng.standard_normal(4) * 100.0, cov=_random_spd(rng, 4, 5.0, 500.0), frame=0
    )
    curr = prev
    for _ in range(lag):
        z = CartesianMeasurement(
            z=rng.standard_normal(2) * 100.0, R=_random_spd(rng, 2, 50.0, 400.0)
        )
        curr, _ = kf_update(kf_predict(curr, model), z)
    return prev, curr, compose_steps(model, lag)


# Largest difference between an element of a batched tracklet and its
# batch-free call, relative to each output's largest entry (measured: none,
# bit for bit, over 20 seeds of the batch below).
BATCH_RTOL = 1e-12


def _lag_batch(triples):
    """Stacked ``(pred, curr)`` of ``(prev, curr, model)`` triples, each
    predicted with its own model."""
    prev, curr = _stacked([(p, c) for p, c, _ in triples], (len(triples),))
    model = MotionModel(
        F=np.stack([m.F for _, _, m in triples]),
        Q=np.stack([m.Q for _, _, m in triples]),
        steps=np.array([m.steps for _, _, m in triples]),
    )
    return kf_predict(prev, model), curr


def test_mixed_batch_matches_per_element_tracklets():
    # Lag-1 elements have a singular covariance difference and take the
    # position-marginal form; every other element takes the position block
    # of the inverse-filter form, whatever the rest of the batch holds.  The
    # mixed and the all-lag-1 batches run both forms; the all-multi-step
    # batch leaves compute_tracklet after the first, with its one check.
    rng = np.random.default_rng(25)
    for lags in [(1, 10, 5, 10, 2, 1, 3), (1, 1, 1), (10, 5, 2, 3)]:
        triples = [_tracked_pair(rng, L) for L in lags]
        t, faults = compute_tracklet(*_lag_batch(triples))
        raise_first(faults)
        n = len(lags)
        assert t.u.shape == (n, 2) and t.U.shape == (n, 2, 2) and t.A is None
        assert len(faults) == (4 if 1 in lags else 1)
        for i, (p, c, m) in enumerate(triples):
            pred = kf_predict(p, m)
            if lags[i] == 1:
                want = checked(tracklet_decorrelated(pred, c))
            else:
                full = checked(tracklet_inverse_kf(pred, c))
                want = Tracklet(u=full.u[::2], U=full.U[::2, ::2])
            for got, ref in [(t.u[i], want.u), (t.U[i], want.U)]:
                atol = BATCH_RTOL * np.abs(ref).max()
                np.testing.assert_allclose(got, ref, rtol=0.0, atol=atol, err_msg=str(lags))


def test_single_step_batch_runs_no_inverse_form_solve(monkeypatch):
    # No lag-1 pair passes the inverse form's screen, so compute_tracklet
    # returns the position-marginal form and its checks, bit for bit, after
    # the inverse form's check, which no element fails, without solving for
    # the inverse form on identity stand-ins.
    rng = np.random.default_rng(29)
    pred, curr = _lag_batch([_tracked_pair(rng, 1) for _ in range(4)])
    want, want_faults = tracklet_decorrelated(pred, curr)
    solve, solved = np.linalg.solve, []
    monkeypatch.setattr(np.linalg, "solve", lambda *args: solved.append(1) or solve(*args))
    got, faults = compute_tracklet(pred, curr)
    assert solved == []
    np.testing.assert_array_equal(got.u, want.u)
    np.testing.assert_array_equal(got.U, want.U)
    assert faults[0][0] == "tracklet position covariance not positive definite"
    assert not faults[0][1].any()
    assert [reason for reason, _ in faults[1:]] == [reason for reason, _ in want_faults]
    for (_, failed), (_, want_failed) in zip(faults[1:], want_faults):
        np.testing.assert_array_equal(failed, want_failed)


@pytest.mark.parametrize("form", [tracklet_inverse_kf, compute_tracklet])
def test_failing_pair_leaves_the_rest_of_its_batch_bit_identical(form):
    # Element 1 fails: a lag-1 pair fails the inverse form's check, and a
    # pair whose covariance grew fails every form.  It holds a finite
    # stand-in, and every other element equals its batch-free call.
    rng = np.random.default_rng(27)
    triples = [_tracked_pair(rng, L) for L in (10, 1, 5, 2)]
    if form is compute_tracklet:
        p, c, m = triples[1]
        P_pred = kf_predict(p, m).cov
        triples[1] = (p, GaussianEstimate(c.mean, 2.0 * P_pred, c.frame), m)
    t, faults = form(*_lag_batch(triples))
    np.testing.assert_array_equal(
        np.logical_or.reduce([failed for _, failed in faults]), [False, True, False, False]
    )
    for part in (t.u, t.U) if t.A is None else (t.u, t.U, t.A):
        assert np.isfinite(part[1]).all()
    for i, (p, c, m) in enumerate(triples):
        if i != 1:
            one = checked(form(kf_predict(p, m), c))
            np.testing.assert_array_equal(t.u[i], one.u)
            np.testing.assert_array_equal(t.U[i], one.U)
