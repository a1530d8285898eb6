"""Measurement model: bias application, Jacobians, converted covariance."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sensorreg.coords import (
    BiasVector,
    apply_bias,
    cart_to_polar,
    conversion_gain,
    converted_covariance,
    converted_measurement,
    jacobians_at,
    polar_to_cart,
    wrap_angle,
)
from sensorreg.errors import NumericalError
from sensorreg.harness import BUILTIN_SCENARIOS, load_scenario, simulate_truth

ranges = st.floats(min_value=1.0, max_value=5e5)
angles = st.floats(min_value=-math.pi, max_value=math.pi)
# Batches of (range, azimuth) pairs; each test checks every element.
polar_batches = st.lists(st.tuples(ranges, angles), min_size=1, max_size=8).map(
    lambda pairs: tuple(np.array(v) for v in zip(*pairs))
)


def test_zero_bias_zero_noise_is_identity():
    r, theta = apply_bias(100.0, 0.5, BiasVector())
    assert r == 100.0
    assert theta == 0.5


def test_offset_bias_values():
    r, theta = apply_bias(20000.0, 0.0, BiasVector(b_r=20.0, b_theta=1e-3))
    assert r == pytest.approx(20020.0)
    assert theta == pytest.approx(1e-3)


def test_scale_bias_values():
    r, theta = apply_bias(100.0, 0.1, BiasVector(eps_r=0.001, eps_theta=0.001))
    assert r == pytest.approx(100.1)
    assert theta == pytest.approx(0.1001)


def test_apply_bias_rejects_nonpositive_range():
    with pytest.raises(NumericalError, match="non-positive") as info:
        apply_bias(np.array([30.0, 10.0, 5.0]), 0.0, BiasVector(b_r=-10.0))
    assert info.value.index == (1,)


def test_bias_vector_requires_positive_scale():
    with pytest.raises(ValueError):
        BiasVector(eps_r=-1.0)
    # Per-sensor fields: any one sensor's scale is enough.
    with pytest.raises(ValueError):
        BiasVector(eps_theta=np.array([0.0, -2.0]))


def test_jacobians_at_unit_range_zero_angle():
    jac = jacobians_at(1.0, 0.0)
    np.testing.assert_allclose(jac.B, np.eye(2))
    # The scale columns: range times B's range column, azimuth times its azimuth column.
    np.testing.assert_allclose(jac.K[:, 2:], [[1, 0], [0, 0]])


def test_jacobians_quarter_turn():
    jac = jacobians_at(2.0, math.pi / 2)
    np.testing.assert_allclose(jac.B, [[0, -2], [1, 0]], atol=1e-12)


def test_jacobians_match_formula_at_long_range():
    jac = jacobians_at(20000.0, 0.3)
    c, s = math.cos(0.3), math.sin(0.3)
    np.testing.assert_allclose(jac.B, [[c, -20000 * s], [s, 20000 * c]])
    np.testing.assert_allclose(
        jac.K[:, 2:], [[20000 * c, -0.3 * 20000 * s], [20000 * s, 0.3 * 20000 * c]]
    )
    np.testing.assert_allclose(jac.K, jac.B @ [[1, 0, 20000, 0], [0, 1, 0, 0.3]])


@given(polar=polar_batches)
@settings(max_examples=100, deadline=None)
def test_b_jacobian_matches_finite_differences(polar):
    r, theta = polar
    jac = jacobians_at(r, theta)

    def f(rr, tt):
        return np.array([rr * math.cos(tt), rr * math.sin(tt)])

    for i, (ri, ti) in enumerate(zip(r.tolist(), theta.tolist())):
        hr = max(abs(ri), 1.0) * 1e-7
        ht = 1e-7
        col_r = (f(ri + hr, ti) - f(ri - hr, ti)) / (2 * hr)
        col_t = (f(ri, ti + ht) - f(ri, ti - ht)) / (2 * ht)
        fd = np.column_stack([col_r, col_t])
        np.testing.assert_allclose(jac.B[i], fd, rtol=1e-6, atol=1e-6 * max(ri, 1.0))
        # The batch equals its batch-free elements bit for bit.
        one = jacobians_at(ri, ti)
        for name in ("B", "K"):
            np.testing.assert_array_equal(getattr(jac, name)[i], getattr(one, name))


@given(polar=polar_batches)
@settings(max_examples=100, deadline=None)
def test_b_determinant_is_range(polar):
    r, theta = polar
    det = np.linalg.det(jacobians_at(r, theta).B)
    np.testing.assert_allclose(det, r, rtol=1e-9)


def test_converted_covariance_axis_aligned():
    R = converted_covariance(20000.0, 0.0, 10.0, 1e-3)
    np.testing.assert_allclose(R, np.diag([100.0, 400.0]), atol=1e-9)


def test_converted_covariance_axis_swap():
    R = converted_covariance(20000.0, math.pi / 2, 10.0, 1e-3)
    np.testing.assert_allclose(R, np.diag([400.0, 100.0]), atol=1e-8)


@given(polar=polar_batches)
@settings(max_examples=100, deadline=None)
def test_converted_covariance_spectrum(polar):
    r, theta = polar
    sigma_r, sigma_theta = 10.0, 1e-3
    R = converted_covariance(r, theta, sigma_r, sigma_theta)
    assert R.shape == r.shape + (2, 2)
    np.testing.assert_array_equal(R, R.swapaxes(-1, -2))
    for i, (ri, ti) in enumerate(zip(r.tolist(), theta.tolist())):
        eig = np.sort(np.linalg.eigvalsh(R[i]))
        expected = np.sort([sigma_r**2, ri**2 * sigma_theta**2])
        np.testing.assert_allclose(eig, expected, rtol=1e-7, atol=1e-12 * expected.max())
        np.testing.assert_array_equal(R[i], converted_covariance(ri, ti, sigma_r, sigma_theta))


def test_converted_covariance_against_monte_carlo():
    rng = np.random.default_rng(7)
    r, theta, sr, st_ = 20000.0, 0.7, 10.0, 1e-3
    n = 1_000_000
    rm = r + sr * rng.standard_normal(n)
    tm = theta + st_ * rng.standard_normal(n)
    pts = np.column_stack([rm * np.cos(tm), rm * np.sin(tm)])
    sample = np.cov(pts.T)
    R = converted_covariance(r, theta, sr, st_)
    np.testing.assert_allclose(sample, R, rtol=2e-2, atol=1e-2 * np.abs(R).max())


def test_conversion_gain_values():
    assert conversion_gain(0.0) == 1.0
    assert conversion_gain(1e-3) == pytest.approx(math.exp(-5e-7))


def test_polar_to_cart_zero_noise_trivial():
    np.testing.assert_allclose(polar_to_cart(1.0, 0.0, 0.0), [1.0, 0.0])


def test_polar_to_cart_validity_check_long_range():
    # Simulated measurements are converted without a validity warning on
    # every packaged scenario (ratio r * sigma_theta^2 / sigma_r of about
    # 2e-3 at 20 km, well under the 0.4 limit).
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name in BUILTIN_SCENARIOS:
            simulate_truth(load_scenario(name), 0)


def test_polar_to_cart_warns_when_invalid():
    # One warning per sensor whose geometry breaks the validity limit,
    # naming that sensor.
    sc = load_scenario("five_sensor_offset")
    for s in (1, 3):
        sc.sensors[s].sigma_r, sc.sensors[s].sigma_theta = 1.0, 0.05
    with pytest.warns(RuntimeWarning) as record:
        simulate_truth(sc, 0)
    messages = [str(w.message) for w in record if "conversion validity" in str(w.message)]
    assert len(messages) == 2
    assert messages[0].startswith("sensor 1:") and messages[1].startswith("sensor 3:")


@given(polar=polar_batches, st_=st.floats(min_value=0.0, max_value=0.01))
@settings(max_examples=100, deadline=None)
def test_round_trip_recovers_scaled_range(polar, st_):
    r, theta = polar
    z = polar_to_cart(r, theta, st_)
    assert z.shape == r.shape + (2,)
    rr, tt = cart_to_polar(z)
    np.testing.assert_allclose(rr, conversion_gain(st_) * r, rtol=1e-12)
    np.testing.assert_allclose(wrap_angle(tt - theta), 0.0, atol=1e-9)
    for i, (ri, ti) in enumerate(zip(r.tolist(), theta.tolist())):
        np.testing.assert_array_equal(z[i], polar_to_cart(ri, ti, st_))


@given(polar=polar_batches, d=st.sampled_from([2, 4]))
@settings(max_examples=100, deadline=None)
def test_converted_measurement_is_the_three_conversions(polar, d):
    # One cos/sin evaluation gives the bits of the three separate calls.
    r, theta = polar
    origin = np.array([[150.0, -20.0]])
    z, R, K = converted_measurement(r, theta, 10.0, 1e-3, origin, d)
    np.testing.assert_array_equal(z, polar_to_cart(r, theta, 1e-3, origin))
    np.testing.assert_array_equal(R, converted_covariance(r, theta, 10.0, 1e-3))
    np.testing.assert_array_equal(K, jacobians_at(r, theta).K[..., :d])


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
