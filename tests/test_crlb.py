"""Fisher information accumulation, bound extraction, sensor combination."""

import numpy as np
import pytest

from sensorreg.coords import jacobians_at
from sensorreg.crlb import (
    FimAccumulator,
    build_fim,
    combine_sensors,
    crlb_diag,
)
from sensorreg.errors import NumericalError, SingularMatrixError


def test_single_identity_block():
    p = build_fim([np.eye(2)], [4.0 * np.eye(2)])
    np.testing.assert_allclose(p.J, np.eye(2) / 4.0)


def test_information_additivity_over_identical_blocks():
    g = jacobians_at(20000.0, 0.3).B
    R = np.diag([200.0, 800.0])
    p1 = build_fim([g], [R])
    p5 = build_fim([g] * 5, [R] * 5)
    np.testing.assert_allclose(p5.J, 5 * p1.J, rtol=1e-12)


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
        p = build_fim(gs, Rs)

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
        np.testing.assert_allclose(H, p.J, rtol=1e-3, atol=1e-3 * np.abs(p.J).max())


def test_fim_partitioning_invariance():
    rng = np.random.default_rng(13)
    gs = [jacobians_at(rng.uniform(1e3, 3e4), rng.uniform(-3, 3)).B for _ in range(8)]
    Rs = [np.diag(rng.uniform(10, 100, 2)) for _ in range(8)]
    batch = build_fim(gs, Rs)
    acc = FimAccumulator(2)
    for g, R in zip(gs[:3], Rs[:3]):
        acc.add(g, R)
    for g, R in zip(gs[3:], Rs[3:]):
        acc.add(g, R)
    np.testing.assert_allclose(acc.problem().J, batch.J, rtol=1e-12)


def test_fim_singular_block_names_location():
    with pytest.raises(SingularMatrixError, match="tgt3"):
        build_fim(
            [np.eye(2), np.eye(2)],
            [np.eye(2), np.zeros((2, 2))],
            labels=["tgt1", "tgt3"],
        )


def test_crlb_diagonal_values():
    from sensorreg.crlb import FimProblem

    p = FimProblem(J=np.diag([4.0, 100.0]), n_blocks=1)
    np.testing.assert_allclose(crlb_diag(p), [0.25, 0.01])


def test_crlb_monotone_in_block_count():
    rng = np.random.default_rng(14)
    acc = FimAccumulator(2)
    prev = None
    for k in range(20):
        g = jacobians_at(rng.uniform(1e4, 3e4), rng.uniform(-3, 3)).B
        R = np.diag(rng.uniform(50, 500, 2))
        acc.add(g, R)
        cur = crlb_diag(acc.problem())
        if prev is not None:
            assert np.all(cur <= prev + 1e-12)
        prev = cur


def test_crlb_singular_information_raises():
    from sensorreg.crlb import FimProblem

    p = FimProblem(J=np.zeros((2, 2)), n_blocks=0)
    with pytest.raises(NumericalError):
        crlb_diag(p)


def test_crlb_numerically_singular_information_raises():
    # Inversion may "succeed" past the numerical rank; the negative variance
    # it produces must still be flagged as unobservable.
    from sensorreg.crlb import FimProblem

    p = FimProblem(J=np.array([[1.0, 1.0], [1.0, 1.0 + 1e-18]]), n_blocks=1)
    with pytest.raises(NumericalError):
        crlb_diag(p)


def test_combine_single_sensor_passthrough():
    R = np.diag([3.0, 5.0])
    total = combine_sensors([R], np.diag([1.0, 1.0]))
    np.testing.assert_allclose(total, R + np.eye(2))


def test_combine_equal_noise_averages():
    # Two equal sensors combine to half their noise.
    R = np.diag([2.0, 4.0])
    total = combine_sensors([R, R], R)
    np.testing.assert_allclose(total, R / 2 + R)


def test_combine_matches_generalized_least_squares():
    rng = np.random.default_rng(15)
    noises = []
    for _ in range(4):
        A = rng.standard_normal((2, 2))
        noises.append(A @ A.T + np.eye(2))
    total = combine_sensors(noises, np.eye(2))
    # Covariance of the GLS estimate of a common mean, plus the target noise.
    J = sum(np.linalg.inv(R) for R in noises)
    np.testing.assert_allclose(total, np.linalg.inv(J) + np.eye(2), rtol=1e-10)


def test_combine_empty_raises():
    with pytest.raises(ValueError):
        combine_sensors([], np.eye(2))
