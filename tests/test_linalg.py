"""The closed-form 2x2 SPD kernel and the batched solves built on it."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sensorreg._linalg import cholesky, det_spd2, inv_spd2_masked, screen_spd2, singular
from sensorreg.coords import CartesianMeasurement
from sensorreg.dynamics import nca_model, ncv_model
from sensorreg.errors import SingularMatrixError, raise_first
from sensorreg.trackers import (
    GaussianEstimate,
    ImmState,
    imm_step,
    init_track,
    kf_predict,
    kf_update,
)

EPS = np.finfo(float).eps


def _spd(scale, cond, angle):
    """SPD 2x2 matrices with eigenvalues ``scale`` and ``scale / cond``."""
    c, s = np.cos(angle), np.sin(angle)
    rot = np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2)
    lam = np.stack([scale, scale / cond], -1)
    return (rot * lam[..., None, :]) @ rot.swapaxes(-1, -2)


spd_batches = st.integers(1, 8).flatmap(
    lambda n: st.tuples(
        *(
            st.lists(elems, min_size=n, max_size=n).map(np.array)
            for elems in (
                st.floats(-3.0, 6.0),               # log10 of the larger eigenvalue
                st.floats(0.0, 8.0),                # log10 of the condition number
                st.floats(-np.pi, np.pi),           # eigenvector angle
            )
        )
    )
)


@given(spd_batches)
@settings(max_examples=200, deadline=None)
def test_inv_spd2_matches_lapack(params):
    log_scale, log_cond, angle = params
    cond = 10.0**log_cond
    mat = _spd(10.0**log_scale, cond, angle)
    inv, ok = inv_spd2_masked(mat)
    assert ok.all()
    logdet = np.log(det_spd2(mat)[0])
    ref = np.linalg.inv(mat)
    sign, ref_logdet = np.linalg.slogdet(mat)
    assert (sign == 1.0).all()
    # Both forms are backward stable, so they agree to a few rounding errors
    # amplified by the condition number: rtol = 16 * cond * eps, relative to
    # the largest entry of each inverse and to 1 + |log det|.  (Over 4e5
    # random matrices the largest errors were 1.9 and 0.9 cond * eps.)
    rtol = 16.0 * cond * EPS
    err = np.abs(inv - ref).max(axis=(-2, -1))
    assert (err <= rtol * np.abs(ref).max(axis=(-2, -1))).all()
    assert (np.abs(logdet - ref_logdet) <= rtol * (1.0 + np.abs(ref_logdet))).all()


# Entries that break the 2x2 test one way each: NaN, +-inf, a zero or
# negative determinant, a negative leading entry with a positive
# determinant, and a determinant that overflows to inf.
_BREAKS = [
    [[np.nan, 0.0], [0.0, 1.0]],
    [[1.0, 0.0], [0.0, np.nan]],
    [[1.0, np.nan], [0.0, 1.0]],
    [[np.inf, 0.0], [0.0, 1.0]],
    [[-np.inf, 0.0], [0.0, 1.0]],
    [[1.0, 1.0], [1.0, 1.0]],
    [[1.0, 2.0], [2.0, 1.0]],
    [[0.0, 0.0], [0.0, 1.0]],
    [[-1.0, 0.0], [0.0, -1.0]],
    [[1e200, 0.0], [0.0, 1e200]],
]


@given(
    shape=st.sampled_from([(), (0,), (1,), (5,), (2, 3), (0, 3)]),
    breaks=st.lists(st.tuples(st.integers(0, 5), st.sampled_from(range(len(_BREAKS)))), max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=300, deadline=None)
def test_screen_decides_as_the_mask_and_the_update_raises_as_before(shape, breaks, seed):
    # The three reductions of screen_spd2 pass a batch exactly when every
    # element passes det_spd2's test, and kf_update raises for a failing
    # batch what forming that mask and raising it through singular raises.
    rng = np.random.default_rng(seed)
    S = _spd(10.0 ** rng.uniform(-3.0, 6.0, shape), 10.0 ** rng.uniform(0.0, 8.0, shape), 0.7)
    flat = S.reshape(-1, 2, 2)
    for i, b in breaks:
        if flat.shape[0]:
            flat[i % flat.shape[0]] = _BREAKS[b]
    # The broken entries overflow and meet inf on both paths alike.
    with np.errstate(all="ignore"):
        det, ok = screen_spd2(S)
        want_det, mask = det_spd2(S)
    assert ok == mask.all()
    np.testing.assert_array_equal(det, want_det)
    # Zero prior covariance: the innovation covariance is the measurement's.
    est = GaussianEstimate(np.zeros(shape + (4,)), np.zeros(shape + (4, 4)))
    z = CartesianMeasurement(np.zeros(shape + (2,)), S)
    if ok:
        kf_update(est, z)
        return
    with np.errstate(all="ignore"), pytest.raises(SingularMatrixError) as got:
        kf_update(est, z)
    with np.errstate(all="ignore"), pytest.raises(SingularMatrixError) as want:
        raise_first([singular("innovation covariance", S, ~mask)], SingularMatrixError)
    assert str(got.value) == str(want.value)
    assert got.value.index == want.value.index
    np.testing.assert_array_equal(got.value.failed, want.value.failed)


def _raise_singular(mat):
    inv, ok = inv_spd2_masked(mat)
    # Every element that fails holds the identity.
    np.testing.assert_array_equal(inv[~ok], np.broadcast_to(np.eye(2), inv[~ok].shape))
    raise_first([singular("S", mat, ~ok)], SingularMatrixError)


def test_inv_spd2_names_first_bad_element():
    mat = np.broadcast_to(np.eye(2), (3, 4, 2, 2)).copy()
    mat[1, 2] = [[1.0, 2.0], [2.0, 1.0]]  # indefinite
    mat[2, 0] = np.nan
    with pytest.raises(SingularMatrixError, match=r"^S is singular \(cond ~ 3\.000e\+00\)") as exc:
        _raise_singular(mat)
    assert exc.value.index == (1, 2)
    np.testing.assert_array_equal(np.argwhere(exc.value.failed), [[1, 2], [2, 0]])
    mat[1, 2] = np.eye(2)
    with pytest.raises(SingularMatrixError, match=r"cond ~ inf") as exc:
        _raise_singular(mat)
    assert exc.value.index == (2, 0)


@pytest.mark.parametrize("factor", [cholesky])
def test_spd_factorizations_name_first_bad_element(factor):
    # The mask marks every element that is not positive definite or not
    # finite, each factored as the identity; raising its fault names the
    # first.
    mat = np.broadcast_to(np.eye(3), (3, 4, 3, 3)).copy()
    mat[1, 2] = np.diag([1.0, -1.0, 1.0])  # indefinite
    mat[2, 0] = np.nan
    L, ok = factor(mat)
    np.testing.assert_array_equal(np.argwhere(~ok), [[1, 2], [2, 0]])
    np.testing.assert_array_equal(L, np.broadcast_to(np.eye(3), mat.shape))
    with pytest.raises(SingularMatrixError, match=r"^P is not positive definite") as exc:
        raise_first([("P is not positive definite", ~ok)], SingularMatrixError)
    assert exc.value.index == (1, 2)
    mat[1, 2] = np.eye(3)
    assert np.argwhere(~factor(mat)[1]).tolist() == [[2, 0]]
    _, ok = factor(np.diag([1.0, 0.0, 1.0]))
    assert ok.shape == () and not ok


def test_trackers_make_no_lapack_call(monkeypatch):
    # The innovation covariances are 2x2 and go through the closed-form
    # kernel; the IMM reuses the inverse and determinant of the update.
    shape = (5, 16)
    rng = np.random.default_rng(3)
    z = CartesianMeasurement(
        z=1e3 * rng.standard_normal(shape + (2,)),
        R=np.broadcast_to(100.0 * np.eye(2), shape + (2, 2)),
    )
    track = init_track(z)
    models = [nca_model(1.0, 10.0), ncv_model(1.0, 2.0)]
    state = ImmState.from_track(track, models, [0.5, 0.5], [[0.95, 0.05], [0.05, 0.95]])

    def lapack(*args, **kwargs):
        raise AssertionError("LAPACK called on a 2x2 innovation system")

    for name in ("solve", "slogdet", "inv", "det"):
        monkeypatch.setattr(np.linalg, name, lapack)
    est, rec = kf_update(kf_predict(track, models[1]), z)
    assert rec.gain.shape == shape + (4, 2)
    state, combined = imm_step(state, z)
    assert combined.mean.shape == shape + (4,)
    assert np.isfinite(combined.cov).all() and np.isfinite(state.mode_probs).all()
