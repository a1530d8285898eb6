"""Fisher information blocks, bound extraction, sensor combination."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sensorreg.coords import jacobians_at
from sensorreg.crlb import combine_sensors, crlb_diag, fisher_information
from sensorreg.errors import SingularMatrixError


def test_single_identity_block():
    J = fisher_information(np.eye(2), 4.0 * np.eye(2))
    np.testing.assert_allclose(J, np.eye(2) / 4.0)


def test_information_additivity_over_identical_blocks():
    g = jacobians_at(20000.0, 0.3).B
    R = np.diag([200.0, 800.0])
    J1 = fisher_information(g, R)
    J5 = fisher_information(np.stack([g] * 5), np.stack([R] * 5)).sum(axis=0)
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
        J = fisher_information(np.stack(gs), np.stack(Rs)).sum(axis=0)

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
    with pytest.raises(SingularMatrixError) as exc:
        fisher_information(np.stack([np.eye(2)] * 2), np.stack([np.eye(2), np.zeros((2, 2))]))
    assert exc.value.index == (1,)


def test_crlb_diagonal_values():
    np.testing.assert_allclose(crlb_diag(np.diag([4.0, 100.0])), [0.25, 0.01])


def test_crlb_monotone_in_block_count():
    rng = np.random.default_rng(14)
    gs, Rs = [], []
    for _ in range(20):
        gs.append(jacobians_at(rng.uniform(1e4, 3e4), rng.uniform(-3, 3)).B)
        Rs.append(np.diag(rng.uniform(50, 500, 2)))
    bounds = crlb_diag(np.cumsum(fisher_information(np.stack(gs), np.stack(Rs)), axis=0))
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


def test_combine_single_sensor_passthrough():
    R = np.diag([3.0, 5.0])
    total = combine_sensors(R[None], [True], np.diag([1.0, 1.0]))
    np.testing.assert_allclose(total, R + np.eye(2))


def test_combine_equal_noise_averages():
    # Two equal sensors combine to half their noise.
    R = np.diag([2.0, 4.0])
    total = combine_sensors(np.stack([R, R]), [True, True], R)
    np.testing.assert_allclose(total, R / 2 + R)


def test_combine_skips_masked_sensors():
    # Masking a sensor out gives the same bits as leaving it out.
    R = np.diag([2.0, 4.0])
    noises = np.stack([R, 7.0 * R, 3.0 * R])
    total = combine_sensors(noises, [True, False, True], R)
    assert np.array_equal(total, combine_sensors(noises[::2], [True, True], R))


def test_combine_matches_generalized_least_squares():
    rng = np.random.default_rng(15)
    noises = []
    for _ in range(4):
        A = rng.standard_normal((2, 2))
        noises.append(A @ A.T + np.eye(2))
    total = combine_sensors(np.stack(noises), np.ones(4, dtype=bool), np.eye(2))
    # Covariance of the GLS estimate of a common mean, plus the target noise.
    J = sum(np.linalg.inv(R) for R in noises)
    np.testing.assert_allclose(total, np.linalg.inv(J) + np.eye(2), rtol=1e-10)


def test_combine_empty_raises():
    with pytest.raises(SingularMatrixError):
        combine_sensors(np.eye(2)[None], [False], np.eye(2))


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
    total = combine_sensors(noises, mask, target)
    jac = rng.standard_normal((b, 2, d)) * rng.uniform(1.0, 1e4, (b, 1, d))
    info = fisher_information(jac, total)
    for i in range(b):
        one = combine_sensors(noises[i], mask[i], target[i])
        assert np.array_equal(total[i], one)
        assert np.array_equal(info[i], fisher_information(jac[i], one))
