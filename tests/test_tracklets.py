"""Equivalent measurements: inverse-filter identity, decorrelated form,
single-step equivalence with the raw measurement, agreement of the two
forms, and the pseudo-inverse of information differences."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sensorreg.coords import CartesianMeasurement
from sensorreg.dynamics import MotionModel, compose_steps, ncv_model
from sensorreg.errors import NumericalError, TrackletSingularError
from sensorreg.fusion import reconstruct_local_gain
from sensorreg.trackers import GaussianEstimate, kf_predict, kf_update
from sensorreg.tracklets import (
    Tracklet,
    _pinv_psd,
    compute_tracklet,
    tracklet_decorrelated,
    tracklet_inverse_kf,
)

# Worst relative disagreement allowed between the two tracklet forms, on
# each output's largest entry (measured worst: about 1e-11).
FORMS_RTOL = 1e-10


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
    t = tracklet_inverse_kf(prev, curr, model)
    np.testing.assert_allclose(t.u, x_pred, rtol=1e-9)


def test_weighting_identity_on_random_inputs():
    # A P(k|k) and (A - I) P(k|k') are two expressions for the same
    # covariance; they must agree to near machine precision.
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(1000):
        prev, curr, model = _random_pair(rng)
        t = tracklet_inverse_kf(prev, curr, model)
        P_pred = t.pred_cov
        lhs = t.A @ curr.cov
        rhs = (t.A - np.eye(4)) @ P_pred
        rel = np.linalg.norm(lhs - rhs) / np.linalg.norm(t.U)
        worst = max(worst, rel)
    assert worst <= 1e-9


def test_transpose_identity():
    rng = np.random.default_rng(1)
    prev, curr, model = _random_pair(rng)
    t = tracklet_inverse_kf(prev, curr, model)
    lhs = t.A @ curr.cov
    np.testing.assert_allclose(lhs, lhs.T, atol=1e-10 * np.abs(lhs).max())


def test_covariance_symmetrized():
    rng = np.random.default_rng(2)
    prev, curr, model = _random_pair(rng)
    t = tracklet_inverse_kf(prev, curr, model)
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
    t0 = tracklet_inverse_kf(
        prev0, GaussianEstimate(mean=est[0], cov=P, frame=steps), ms
    )
    # A depends only on covariances, so apply it across all runs at once.
    x_pred = prev_est @ ms.F.T
    us = x_pred + (est - x_pred) @ t0.A.T
    err = us - truth
    sample = np.cov(err.T)
    np.testing.assert_allclose(sample, t0.U, rtol=5e-2, atol=5e-2 * np.abs(t0.U).max())


def test_inverse_kf_rejects_singular_difference():
    # A single-step position-only update leaves the covariance difference
    # rank deficient; the inverse-filter form must signal the fallback.
    model = compose_steps(ncv_model(1.0, 0.1), 1)
    prev = GaussianEstimate(mean=np.zeros(4), cov=np.diag([100.0, 4.0, 100.0, 4.0]), frame=0)
    pred = kf_predict(prev, ncv_model(1.0, 0.1))
    curr, _ = kf_update(pred, CartesianMeasurement(z=[1.0, 1.0], R=np.eye(2)))
    with pytest.raises(TrackletSingularError):
        tracklet_inverse_kf(prev, curr, model)
    # The automatic dispatcher falls back instead of failing.
    t = compute_tracklet(prev, curr, model)
    assert t.method == "decorrelated"


def test_decorrelated_scalar_case():
    model = MotionModel(F=np.eye(1), Q=np.zeros((1, 1)))
    prev = GaussianEstimate(mean=[1.0], cov=[[1.0]], frame=0)
    curr = GaussianEstimate(mean=[2.0], cov=[[0.5]], frame=1)
    t = tracklet_decorrelated(prev, curr, model)
    assert t.U[0, 0] == pytest.approx(1.0, rel=1e-12)
    assert t.u[0] == pytest.approx(2 * 2.0 - 1.0, rel=1e-12)


def test_decorrelated_no_update_is_prediction_fixed_point():
    model = MotionModel(F=np.eye(1), Q=np.zeros((1, 1)))
    prev = GaussianEstimate(mean=[3.0], cov=[[1.0]], frame=0)
    curr = GaussianEstimate(mean=[3.0], cov=[[0.5]], frame=1)
    t = tracklet_decorrelated(prev, curr, model)
    assert t.u[0] == pytest.approx(3.0)


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
    t = tracklet_decorrelated(prev, curr, compose_steps(model, 1))
    np.testing.assert_allclose(t.u[[0, 2]], z.z, rtol=1e-8)
    np.testing.assert_allclose(t.U[np.ix_((0, 2), (0, 2))], z.R, rtol=1e-8)


def test_decorrelated_rejects_information_loss():
    model = MotionModel(F=np.eye(4), Q=np.zeros((4, 4)))
    prev = GaussianEstimate(mean=np.zeros(4), cov=np.eye(4), frame=0)
    curr = GaussianEstimate(mean=np.zeros(4), cov=2.0 * np.eye(4), frame=1)
    with pytest.raises(NumericalError):
        tracklet_decorrelated(prev, curr, model)


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
            tl.append(tracklet_decorrelated(locals_[i], upd, ms1))
            new_locals.append(upd)
        locals_ = new_locals

        central = kf_predict(central, model)
        for i in range(2):
            y = CartesianMeasurement(z=tl[i].u[[0, 2]], R=tl[i].U[np.ix_((0, 2), (0, 2))])
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
    # A (2, 2) batch in which one element gained full-state information, so
    # it takes the general pseudo-inverse branch while the others take the
    # position-only closed form.
    rng = np.random.default_rng(21)
    ms1 = compose_steps(ncv_model(1.0, 0.3), 1)
    kinds = ["pos", "pos", "full", "pos"]
    pairs = [_snapshot_pair(rng, ms1, kind) for kind in kinds]
    t = tracklet_decorrelated(*_stacked(pairs, (2, 2)), ms1)
    g = reconstruct_local_gain(t)
    assert t.u.shape == (2, 2, 4) and t.U.shape == t.pred_cov.shape == (2, 2, 4, 4)
    assert g.W.shape == (2, 2, 4, 2) and g.R.shape == (2, 2, 2, 2)
    for i, (kind, (prev, curr)) in enumerate(zip(kinds, pairs)):
        idx = divmod(i, 2)
        t1 = tracklet_decorrelated(prev, curr, ms1)
        g1 = reconstruct_local_gain(t1)
        # Position-only information leaves the velocity rows of U empty.
        assert (np.abs(t1.U[1::2]).max() > 0.0) == (kind == "full")
        for batched, single in [
            (t.u, t1.u), (t.U, t1.U), (t.pred_cov, t1.pred_cov),
            (g.W, g1.W), (g.R, g1.R),
        ]:
            np.testing.assert_allclose(batched[idx], single, rtol=1e-12, atol=0.0)


def test_batched_tracklet_rejects_indefinite_element():
    rng = np.random.default_rng(22)
    ms1 = compose_steps(ncv_model(1.0, 0.3), 1)
    pairs = [_snapshot_pair(rng, ms1, kind) for kind in ["pos", "loss", "full"]]
    with pytest.raises(NumericalError, match=r"indefinite.* at batch index \[1\]"):
        tracklet_decorrelated(*_stacked(pairs, (3,)), ms1)


@pytest.mark.parametrize("shape", [(2,), (1, 2)])
def test_mixed_batch_names_a_failure_at_the_first_element(shape):
    # Element 0 takes the decorrelated form and fails; element 1 passes the
    # inverse-filter form.  The error keeps the first element's index.
    rng = np.random.default_rng(23)
    ms1 = compose_steps(ncv_model(1.0, 0.3), 1)
    pairs = [_snapshot_pair(rng, ms1, kind) for kind in ["loss", "full"]]
    with pytest.raises(NumericalError, match="indefinite") as info:
        compute_tracklet(*_stacked(pairs, shape), ms1)
    assert info.value.index == (0,) * len(shape)


def _tracked_pair(rng, lag):
    """(prev, curr, model) of a local track that made ``lag`` position-only
    Kalman updates between its two reports; for ``lag`` >= 2 the covariance
    difference is full rank, so both forms apply."""
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


def _assert_same_tracklet(got, want):
    for name in ("u", "U", "pred_cov"):
        a, b = getattr(got, name), getattr(want, name)
        np.testing.assert_allclose(
            a, b, rtol=0.0, atol=FORMS_RTOL * np.abs(b).max(), err_msg=name
        )


def test_forms_agree_wherever_both_apply():
    # compute_tracklet takes one form per batch, which rests on the two
    # forms agreeing on every element that admits the inverse-filter form.
    rng = np.random.default_rng(24)
    for _ in range(500):
        prev, curr, model = _tracked_pair(rng, int(rng.integers(2, 11)))
        _assert_same_tracklet(
            tracklet_decorrelated(prev, curr, model), tracklet_inverse_kf(prev, curr, model)
        )


def test_mixed_batch_matches_per_element_tracklets():
    # Lag-1 elements have a singular covariance difference, so the whole
    # batch takes the decorrelated form; each element still matches its own
    # batch-free tracklet, whichever form that took.
    rng = np.random.default_rng(25)
    lags = np.array([1, 10, 5, 10, 2, 1, 3])
    triples = [_tracked_pair(rng, int(L)) for L in lags]
    prev, curr = _stacked([(p, c) for p, c, _ in triples], lags.shape)
    model = MotionModel(
        F=np.stack([m.F for _, _, m in triples]),
        Q=np.stack([m.Q for _, _, m in triples]),
        steps=lags,
    )
    t = compute_tracklet(prev, curr, model)
    assert t.method == "decorrelated"
    methods = set()
    for i, (p, c, m) in enumerate(triples):
        t1 = compute_tracklet(p, c, m)
        methods.add(t1.method)
        _assert_same_tracklet(Tracklet(u=t.u[i], U=t.U[i], pred_cov=t.pred_cov[i]), t1)
    assert methods == {"inverse_kf", "decorrelated"}


# Kinds of 4x4 information difference: position-only (the closed form),
# full rank, rank deficient (axis-aligned or rotated), zero and indefinite.
PINV_KINDS = ("pos", "full", "rankdef", "zero", "indefinite")
PINV_ERRORS = {"zero": "no new information", "indefinite": "indefinite"}


def _information(rng, kind):
    if kind == "zero":
        return np.zeros((4, 4))
    if kind == "pos":
        Lam = np.zeros((4, 4))
        Lam[np.ix_((0, 2), (0, 2))] = _random_spd(rng, 2, 1e-4, 1e-1)
        return Lam
    w = rng.uniform(1e-4, 1e-1, 4)
    if kind == "rankdef":
        # Axis 1 keeps its information, so no deficiency is position-only.
        w[rng.permutation([0, 2, 3])[: rng.integers(1, 4)]] = 0.0
    elif kind == "indefinite":
        w[rng.integers(4)] = -rng.uniform(1e-4, 1e-1)
    if kind == "rankdef" and rng.random() < 0.5:
        # Information on whole state axes only: rows/columns of zeros.
        return np.diag(w)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    return (q * w) @ q.T


@given(
    kinds=st.lists(st.sampled_from(PINV_KINDS), min_size=1, max_size=6),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_pinv_psd_properties(kinds, seed):
    rng = np.random.default_rng(seed)
    Lam = np.stack([_information(rng, k) for k in kinds])
    with mock.patch.object(np.linalg, "eigh", wraps=np.linalg.eigh) as eigh:
        try:
            U = _pinv_psd(Lam)
        except NumericalError as exc:
            U, error = None, exc
    # One batched eigendecomposition serves every element outside the
    # closed form.
    assert eigh.call_count == int(any(k != "pos" for k in kinds))
    bad = [i for i, k in enumerate(kinds) if k in PINV_ERRORS]
    if bad:
        assert U is None
        assert error.index == (bad[0],)
        assert PINV_ERRORS[kinds[bad[0]]] in error.reason
        return
    # Moore-Penrose identities, relative to the size of each element
    # (measured worst: about 2e-13).
    tol = 1e-10
    scale = np.abs(Lam).max(axis=(-2, -1), keepdims=True)
    scale_inv = np.abs(U).max(axis=(-2, -1), keepdims=True)
    assert np.all(np.abs(Lam @ U @ Lam - Lam) <= tol * scale)
    assert np.all(np.abs(U @ Lam @ U - U) <= tol * scale_inv)
    for prod in (Lam @ U, U @ Lam):
        assert np.all(np.abs(prod - prod.swapaxes(-1, -2)) <= tol)
    # Closed-form elements do not depend on the rest of the batch.
    pos = [i for i, k in enumerate(kinds) if k == "pos"]
    if pos:
        np.testing.assert_array_equal(U[pos], _pinv_psd(Lam[pos]))
