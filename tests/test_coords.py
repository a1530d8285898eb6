"""Measurement model: bias application, Jacobians, converted covariance."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sensorreg.coords import (
    BiasVector,
    PolarMeasurement,
    apply_bias,
    bias_jacobians,
    cart_to_polar,
    conversion_gain,
    converted_covariance,
    polar_to_cart_unbiased,
    wrap_angle,
)

ranges = st.floats(min_value=1.0, max_value=5e5)
angles = st.floats(min_value=-math.pi, max_value=math.pi)


def test_zero_bias_zero_noise_is_identity():
    m = PolarMeasurement(r=100.0, theta=0.5, sigma_r=10.0, sigma_theta=1e-3)
    out = apply_bias(m, BiasVector())
    assert out.r == 100.0
    assert out.theta == 0.5


def test_offset_bias_values():
    m = PolarMeasurement(r=20000.0, theta=0.0, sigma_r=10.0, sigma_theta=1e-3)
    out = apply_bias(m, BiasVector(b_r=20.0, b_theta=1e-3))
    assert out.r == pytest.approx(20020.0)
    assert out.theta == pytest.approx(1e-3)


def test_scale_bias_values():
    m = PolarMeasurement(r=100.0, theta=0.1, sigma_r=1.0, sigma_theta=1e-3)
    out = apply_bias(m, BiasVector(eps_r=0.001, eps_theta=0.001))
    assert out.r == pytest.approx(100.1)
    assert out.theta == pytest.approx(0.1001)


def test_apply_bias_rejects_nonpositive_range():
    m = PolarMeasurement(r=10.0, theta=0.0, sigma_r=1.0, sigma_theta=1e-3)
    with pytest.raises(ValueError):
        apply_bias(m, BiasVector(b_r=-10.0))


def test_bias_vector_requires_positive_scale():
    with pytest.raises(ValueError):
        BiasVector(eps_r=-1.0)


def test_jacobians_at_unit_range_zero_angle():
    m = PolarMeasurement(r=1.0, theta=0.0, sigma_r=1.0, sigma_theta=1e-3)
    jac = bias_jacobians(m)
    np.testing.assert_allclose(jac.B, np.eye(2))
    np.testing.assert_allclose(jac.C, [[1, 0, 1, 0], [0, 1, 0, 0]])


def test_jacobians_quarter_turn():
    m = PolarMeasurement(r=2.0, theta=math.pi / 2, sigma_r=1.0, sigma_theta=1e-3)
    jac = bias_jacobians(m)
    np.testing.assert_allclose(jac.B, [[0, -2], [1, 0]], atol=1e-12)


def test_jacobians_match_formula_at_long_range():
    m = PolarMeasurement(r=20000.0, theta=0.3, sigma_r=10.0, sigma_theta=1e-3)
    jac = bias_jacobians(m)
    c, s = math.cos(0.3), math.sin(0.3)
    np.testing.assert_allclose(jac.B, [[c, -20000 * s], [s, 20000 * c]])
    np.testing.assert_allclose(jac.C, [[1, 0, 20000, 0], [0, 1, 0, 0.3]])
    np.testing.assert_allclose(jac.K, jac.B @ jac.C)


@given(r=ranges, theta=angles)
@settings(max_examples=100, deadline=None)
def test_b_jacobian_matches_finite_differences(r, theta):
    jac = bias_jacobians(PolarMeasurement(r=r, theta=theta, sigma_r=1.0, sigma_theta=0.0))

    def f(rr, tt):
        return np.array([rr * math.cos(tt), rr * math.sin(tt)])

    hr = max(abs(r), 1.0) * 1e-7
    ht = 1e-7
    col_r = (f(r + hr, theta) - f(r - hr, theta)) / (2 * hr)
    col_t = (f(r, theta + ht) - f(r, theta - ht)) / (2 * ht)
    fd = np.column_stack([col_r, col_t])
    np.testing.assert_allclose(jac.B, fd, rtol=1e-6, atol=1e-6 * max(r, 1.0))


@given(r=ranges, theta=angles)
@settings(max_examples=100, deadline=None)
def test_b_determinant_is_range(r, theta):
    jac = bias_jacobians(PolarMeasurement(r=r, theta=theta, sigma_r=1.0, sigma_theta=0.0))
    assert np.linalg.det(jac.B) == pytest.approx(r, rel=1e-9)


def test_converted_covariance_axis_aligned():
    m = PolarMeasurement(r=20000.0, theta=0.0, sigma_r=10.0, sigma_theta=1e-3)
    np.testing.assert_allclose(converted_covariance(m), np.diag([100.0, 400.0]), atol=1e-9)


def test_converted_covariance_axis_swap():
    m = PolarMeasurement(r=20000.0, theta=math.pi / 2, sigma_r=10.0, sigma_theta=1e-3)
    np.testing.assert_allclose(converted_covariance(m), np.diag([400.0, 100.0]), atol=1e-8)


@given(r=ranges, theta=angles)
@settings(max_examples=100, deadline=None)
def test_converted_covariance_spectrum(r, theta):
    m = PolarMeasurement(r=r, theta=theta, sigma_r=10.0, sigma_theta=1e-3)
    R = converted_covariance(m)
    np.testing.assert_allclose(R, R.T)
    eig = np.sort(np.linalg.eigvalsh(R))
    expected = np.sort([m.sigma_r**2, r**2 * m.sigma_theta**2])
    np.testing.assert_allclose(eig, expected, rtol=1e-7, atol=1e-12 * expected.max())


def test_converted_covariance_against_monte_carlo():
    rng = np.random.default_rng(7)
    r, theta, sr, st_ = 20000.0, 0.7, 10.0, 1e-3
    n = 1_000_000
    rm = r + sr * rng.standard_normal(n)
    tm = theta + st_ * rng.standard_normal(n)
    pts = np.column_stack([rm * np.cos(tm), rm * np.sin(tm)])
    sample = np.cov(pts.T)
    R = converted_covariance(PolarMeasurement(r=r, theta=theta, sigma_r=sr, sigma_theta=st_))
    np.testing.assert_allclose(sample, R, rtol=2e-2, atol=1e-2 * np.abs(R).max())


def test_conversion_gain_values():
    assert conversion_gain(0.0) == 1.0
    assert conversion_gain(1e-3) == pytest.approx(math.exp(-5e-7))


def test_polar_to_cart_zero_noise_trivial():
    m = PolarMeasurement(r=1.0, theta=0.0, sigma_r=1.0, sigma_theta=0.0)
    out = polar_to_cart_unbiased(m)
    np.testing.assert_allclose(out.z, [1.0, 0.0])


def test_polar_to_cart_validity_check_long_range():
    # Validity ratio 2e-3 at 20 km stays well under the 0.4 limit: no warning.
    m = PolarMeasurement(r=20000.0, theta=0.2, sigma_r=10.0, sigma_theta=1e-3)
    assert m.r * m.sigma_theta**2 / m.sigma_r == pytest.approx(2e-3)
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        polar_to_cart_unbiased(m)


def test_polar_to_cart_warns_when_invalid():
    m = PolarMeasurement(r=1e6, theta=0.0, sigma_r=1.0, sigma_theta=0.05)
    with pytest.warns(RuntimeWarning):
        polar_to_cart_unbiased(m)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@given(r=ranges, theta=angles, st_=st.floats(min_value=0.0, max_value=0.01))
@settings(max_examples=100, deadline=None)
def test_round_trip_recovers_scaled_range(r, theta, st_):
    m = PolarMeasurement(r=r, theta=theta, sigma_r=1.0, sigma_theta=st_)
    out = polar_to_cart_unbiased(m)
    rr, tt = cart_to_polar(out.z)
    assert rr == pytest.approx(conversion_gain(st_) * r, rel=1e-12)
    assert math.isclose(wrap_angle(tt - m.theta), 0.0, abs_tol=1e-9)


@given(angle=st.floats(min_value=-50.0, max_value=50.0))
@settings(max_examples=200, deadline=None)
def test_wrap_angle_range(angle):
    w = wrap_angle(angle)
    assert -math.pi < w <= math.pi
    assert math.isclose(math.sin(w - angle), 0.0, abs_tol=1e-9)


def _wrap_scalar(angle):
    # The (-pi, pi] convention through the C library's IEEE remainder.
    wrapped = math.remainder(angle, 2.0 * math.pi)
    return math.pi if wrapped <= -math.pi else wrapped


# Both sides of the cut: +-pi, one ulp either side, and odd multiples.
CUT = [
    x
    for c in (math.pi, -math.pi, 3 * math.pi, -3 * math.pi)
    for x in (c, math.nextafter(c, math.inf), math.nextafter(c, -math.inf))
]


@given(angles=st.lists(st.floats(min_value=-1e6, max_value=1e6), max_size=20))
@settings(max_examples=200, deadline=None)
def test_array_wrap_angle_matches_scalar_formula(angles):
    arr = np.array(angles + CUT)
    w = wrap_angle(arr)
    assert np.all((w > -math.pi) & (w <= math.pi))
    assert w.tolist() == [_wrap_scalar(a) for a in arr.tolist()]
    assert [wrap_angle(a) for a in arr.tolist()] == w.tolist()
    assert wrap_angle(-math.pi) == wrap_angle(math.pi) == math.pi


@given(
    offset=st.floats(min_value=-1e-4, max_value=1e-4),
    b_theta=st.floats(min_value=-2e-3, max_value=2e-3),
    eps_theta=st.floats(min_value=-1e-3, max_value=1e-3),
)
@settings(max_examples=200, deadline=None)
def test_wrap_of_corrected_azimuth_near_cut(offset, b_theta, eps_theta):
    # The bias correction's (theta - b_theta) / (1 + eps_theta) lands on
    # either side of the cut for azimuths measured next to it.
    theta = np.array([math.pi + offset, -math.pi + offset])
    corrected = (theta - b_theta) / (1.0 + eps_theta)
    w = wrap_angle(corrected)
    assert np.all((w > -math.pi) & (w <= math.pi))
    assert w.tolist() == [_wrap_scalar(a) for a in corrected.tolist()]
