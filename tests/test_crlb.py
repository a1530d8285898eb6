"""Fisher information blocks, bound extraction, sensor combination.

The bound path shares its kernels with the estimators: each block's
information comes from ``bias_information``, and the other sensors combine
through ``slot_information``, the information sum of ``combine_slots``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sensorreg._linalg import inv_spd2_masked, singular
from sensorreg.bias import PseudoMeasurement, bias_information, pseudo_measurement_faults
from sensorreg.coords import jacobians_at
from sensorreg.crlb import crlb_diag
from sensorreg.errors import NumericalError, SingularMatrixError, raise_first
from sensorreg.fusion import slot_information
from sensorreg.harness.bounds import _block_information


def _stack(H, R):
    """Pseudo-measurements of the blocks ``H`` (m, 2, d), ``R`` (m, 2, 2) as
    one stack, whose information is their sum."""
    H = np.asarray(H, dtype=float)
    return PseudoMeasurement(np.zeros(H.shape[:-1]), H, R)


def test_single_identity_block():
    J, _ = bias_information(_stack([np.eye(2)], [4.0 * np.eye(2)]))
    np.testing.assert_allclose(J, np.eye(2) / 4.0)


def test_information_additivity_over_identical_blocks():
    g = jacobians_at(20000.0, 0.3).B
    R = np.diag([200.0, 800.0])
    J1, _ = bias_information(_stack([g], [R]))
    J5, _ = bias_information(_stack([g] * 5, [R] * 5))
    np.testing.assert_allclose(J5, 5 * J1, rtol=1e-12)


def test_fim_matches_finite_difference_hessian():
    # The negative log-likelihood of the linear-Gaussian bias observation is
    # quadratic; its numerical Hessian must equal the information matrix.
    rng = np.random.default_rng(12)
    for _ in range(50):
        n_blocks = rng.integers(1, 6)
        d = 2
        gs = []
        Rs = []
        for _ in range(n_blocks):
            gs.append(jacobians_at(rng.uniform(1e3, 3e4), rng.uniform(-np.pi, np.pi)).B)
            A = rng.standard_normal((2, 2))
            Rs.append(A @ A.T + np.diag(rng.uniform(10.0, 100.0, 2)))
        J, _ = bias_information(_stack(gs, Rs))

        ys = [rng.standard_normal(2) * 10 for _ in range(n_blocks)]
        b0 = rng.standard_normal(d)

        def nll(b):
            out = 0.0
            for g, R, y in zip(gs, Rs, ys):
                r = y - g @ b
                out += 0.5 * r @ np.linalg.solve(R, r)
            return out

        h = 1e-4
        H = np.zeros((d, d))
        for i in range(d):
            for j in range(d):
                ei = np.zeros(d)
                ej = np.zeros(d)
                ei[i] = h
                ej[j] = h
                H[i, j] = (
                    nll(b0 + ei + ej) - nll(b0 + ei - ej) - nll(b0 - ei + ej) + nll(b0 - ei - ej)
                ) / (4 * h * h)
        np.testing.assert_allclose(H, J, rtol=1e-3, atol=1e-3 * np.abs(J).max())


def test_fim_singular_block_names_location():
    # bias_information leaves its checks to pseudo_measurement_faults, which
    # marks the singular block.
    pm = _stack([np.eye(2)] * 2, [np.eye(2), np.zeros((2, 2))])
    with pytest.raises(NumericalError, match="not positive definite") as exc:
        raise_first(pseudo_measurement_faults(pm))
    assert exc.value.index == (1,)


def test_crlb_diagonal_values():
    np.testing.assert_allclose(crlb_diag(np.diag([4.0, 100.0])), [0.25, 0.01])


def test_crlb_monotone_in_block_count():
    rng = np.random.default_rng(14)
    gs, Rs = [], []
    for _ in range(20):
        gs.append(jacobians_at(rng.uniform(1e4, 3e4), rng.uniform(-3, 3)).B)
        Rs.append(np.diag(rng.uniform(50, 500, 2)))
    bounds = crlb_diag(np.cumsum(_block_information(np.stack(gs), np.stack(Rs)), axis=0))
    assert np.all(bounds[1:] <= bounds[:-1] + 1e-12)


def _unobservable_row(J):
    # J sits next to a well-posed element, which keeps its exact bound.
    good = np.diag([4.0, 100.0])
    out = crlb_diag(np.stack([good, J]))
    assert np.array_equal(out[0], crlb_diag(good))
    assert np.isnan(out[1]).all()


def test_crlb_singular_information_raises():
    _unobservable_row(np.zeros((2, 2)))


def test_crlb_numerically_singular_information_raises():
    # Inversion may "succeed" past the numerical rank; the negative variance
    # it produces must still be flagged as unobservable.
    _unobservable_row(np.array([[1.0, 1.0], [1.0, 1.0 + 1e-18]]))


def _combined(noises, mask):
    """Covariance of the other sensors collapsed into one, and the mask of
    the used slots."""
    _, info, used = slot_information(np.asarray(noises, dtype=float), mask)
    return inv_spd2_masked(info)[0], used


def test_combine_single_sensor_passthrough():
    R = np.diag([3.0, 5.0])
    R_eq, used = _combined(R[None], [True])
    np.testing.assert_allclose(R_eq, R)
    assert used.tolist() == [True]


def test_combine_equal_noise_averages():
    # Two equal sensors combine to half their noise.
    R = np.diag([2.0, 4.0])
    R_eq, _ = _combined(np.stack([R, R]), [True, True])
    np.testing.assert_allclose(R_eq, R / 2)


def test_combine_skips_masked_sensors():
    # Masking a sensor out gives the same bits as leaving it out.
    R = np.diag([2.0, 4.0])
    noises = np.stack([R, 7.0 * R, 3.0 * R])
    R_eq, used = _combined(noises, [True, False, True])
    assert np.array_equal(R_eq, _combined(noises[::2], [True, True])[0])
    assert used.tolist() == [True, False, True]


def test_combine_matches_generalized_least_squares():
    rng = np.random.default_rng(15)
    noises = []
    for _ in range(4):
        A = rng.standard_normal((2, 2))
        noises.append(A @ A.T + np.eye(2))
    R_eq, _ = _combined(np.stack(noises), np.ones(4, dtype=bool))
    # Covariance of the GLS estimate of a common mean.
    J = sum(np.linalg.inv(R) for R in noises)
    np.testing.assert_allclose(R_eq, np.linalg.inv(J), rtol=1e-10)


def test_combine_empty_raises():
    # No slot folds: zero information, whose 2x2 test fails, and the bound
    # path raises that failure.
    _, info, used = slot_information(np.eye(2)[None], [False])
    assert not used.any() and np.array_equal(info, np.zeros((2, 2)))
    _, ok = inv_spd2_masked(info)
    with pytest.raises(SingularMatrixError, match="combined information is singular"):
        raise_first([singular("combined information", info, ~ok)], SingularMatrixError)


def _spd2(rng, shape):
    A = rng.standard_normal(shape + (2, 2)) * rng.uniform(0.1, 100.0, shape + (1, 1))
    return A @ A.swapaxes(-1, -2) + np.eye(2) * rng.uniform(1e-3, 10.0, shape + (1, 1))


@given(
    masks=st.integers(1, 5).flatmap(
        lambda n: st.lists(
            st.lists(st.booleans(), min_size=n, max_size=n).filter(any), min_size=1, max_size=6
        )
    ),
    d=st.sampled_from([2, 4]),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=60, deadline=None)
def test_batched_bound_kernels_equal_per_block_calls(masks, d, seed):
    # Each element of one batched call equals a call on that element alone,
    # bit for bit, the covariances of its masked sensors included.
    rng = np.random.default_rng(seed)
    mask = np.array(masks)
    b, n = mask.shape
    noises, target = _spd2(rng, (b, n)), _spd2(rng, (b,))
    _, combined, used = slot_information(noises, mask)
    jac = rng.standard_normal((b, 2, d)) * rng.uniform(1.0, 1e4, (b, 1, d))
    info = _block_information(jac, target)
    for i in range(b):
        _, one, used_one = slot_information(noises[i], mask[i])
        assert np.array_equal(combined[i], one)
        assert np.array_equal(used[i], used_one)
        assert np.array_equal(info[i], _block_information(jac[i], target[i]))
