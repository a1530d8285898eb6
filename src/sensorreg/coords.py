"""Polar range/azimuth measurement model with offset and scale biases.

A radar reports range and azimuth relative to its own position.  Systematic
errors are modeled as a per-sensor bias vector (range offset, azimuth offset,
range scale, azimuth scale) applied to the true polar coordinates before the
additive measurement noise.  This module generates biased measurements,
converts them to Cartesian coordinates with the compensated (multiplicative)
conversion factor, and provides the Jacobians that map bias parameters into
Cartesian measurement space.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from ._linalg import symmetrize

__all__ = [
    "PolarMeasurement",
    "BiasVector",
    "CartesianMeasurement",
    "BiasJacobians",
    "wrap_angle",
    "apply_bias",
    "bias_jacobians",
    "jacobians_at",
    "conversion_gain",
    "polar_to_cart_unbiased",
    "converted_covariance",
    "cart_to_polar",
]

# Ratio r * sigma_theta^2 / sigma_r above which the small-angle conversion is
# no longer trustworthy.
CONVERSION_VALIDITY_LIMIT = 0.4


def wrap_angle(angle):
    """Wrap angles to (-pi, pi], elementwise for arrays.

    ``fmod`` and the single correction by 2*pi are exact, so the result is
    the exact remainder, with -pi mapped to pi.
    """
    two_pi = 2.0 * math.pi
    wrapped = np.fmod(angle, two_pi)
    wrapped = np.where(
        wrapped > math.pi,
        wrapped - two_pi,
        np.where(wrapped <= -math.pi, wrapped + two_pi, wrapped),
    )
    return wrapped if wrapped.ndim else float(wrapped)


def _libm(fn, *args):
    """Apply the scalar ``math`` function ``fn`` elementwise.

    numpy's vectorised ``hypot``, ``arctan2`` and ``exp`` round differently
    from the C library in the last bit on some CPUs (AVX-512 builds), so the
    fusion-center formulas call ``math`` per element and a batch gives the
    same bits as its batch-free elements.  Scalars give a float.
    """
    arrays = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in args))
    if not arrays[0].ndim:
        return fn(*(float(a) for a in arrays))
    flat = (a.ravel().tolist() for a in arrays)
    return np.array([fn(*v) for v in zip(*flat)]).reshape(arrays[0].shape)


@dataclass
class PolarMeasurement:
    """Range/azimuth pair with the reporting sensor's noise levels.

    Azimuth is normalized to (-pi, pi] on construction.  Sigmas may be zero
    in noise-free synthetic settings.
    """

    r: float
    theta: float
    sigma_r: float
    sigma_theta: float

    def __post_init__(self) -> None:
        if self.r <= 0.0:
            raise ValueError(f"range must be positive, got {self.r}")
        if self.sigma_r < 0.0 or self.sigma_theta < 0.0:
            raise ValueError("noise standard deviations must be non-negative")
        self.theta = wrap_angle(self.theta)


@dataclass
class BiasVector:
    """Per-sensor systematic errors: offsets (m, rad) and unitless scales."""

    b_r: float = 0.0
    b_theta: float = 0.0
    eps_r: float = 0.0
    eps_theta: float = 0.0

    def __post_init__(self) -> None:
        if 1.0 + self.eps_r <= 0.0 or 1.0 + self.eps_theta <= 0.0:
            raise ValueError("scale biases must keep 1 + eps positive")

    def as_array(self, include_scale: bool = True) -> np.ndarray:
        if include_scale:
            return np.array([self.b_r, self.b_theta, self.eps_r, self.eps_theta])
        return np.array([self.b_r, self.b_theta])


@dataclass
class CartesianMeasurement:
    """Converted position measurement ``z`` (..., 2) with covariance ``R``
    (..., 2, 2); leading axes index a batch of measurements."""

    z: np.ndarray
    R: np.ndarray

    def __post_init__(self) -> None:
        z = np.asarray(self.z, dtype=float)
        self.z = z.reshape(z.shape[:-1] + (2,))
        self.R = np.asarray(self.R, dtype=float).reshape(self.z.shape + (2,))


@dataclass
class BiasJacobians:
    """Differentials of the measurement with respect to bias parameters.

    ``C`` (..., 2, 4) maps the bias vector into polar perturbations, ``B``
    (..., 2, 2) maps polar perturbations into Cartesian ones, and
    ``K = B @ C`` is the combined bias-to-Cartesian Jacobian; leading axes
    index a batch of measurements.
    """

    B: np.ndarray
    C: np.ndarray
    K: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.B = np.asarray(self.B, dtype=float)
        self.C = np.asarray(self.C, dtype=float)
        self.K = self.B @ self.C


def apply_bias(
    truth: PolarMeasurement,
    bias: BiasVector,
    noise: tuple[float, float] = (0.0, 0.0),
) -> PolarMeasurement:
    """Corrupt a true polar measurement with scale/offset biases and noise.

    The noise sample is supplied by the caller so the function stays a
    deterministic map of its inputs.
    """
    r, theta = _apply_bias_arrays(truth.r, truth.theta, bias, noise[0], noise[1])
    if r <= 0.0:
        raise ValueError(
            f"bias/noise drove range non-positive ({r:.3f} m from {truth.r:.3f} m)"
        )
    return PolarMeasurement(float(r), wrap_angle(float(theta)), truth.sigma_r, truth.sigma_theta)


def _apply_bias_arrays(r, theta, bias: BiasVector, w_r, w_theta):
    """Vectorized core of :func:`apply_bias` (no validation)."""
    r_m = (1.0 + bias.eps_r) * np.asarray(r) + bias.b_r + np.asarray(w_r)
    t_m = (1.0 + bias.eps_theta) * np.asarray(theta) + bias.b_theta + np.asarray(w_theta)
    return r_m, t_m


def jacobians_at(r, theta) -> BiasJacobians:
    """Bias Jacobians evaluated at (measured) range/azimuth pairs; array
    arguments give a batch with their broadcast shape."""
    r, theta = np.broadcast_arrays(np.asarray(r, dtype=float), np.asarray(theta, dtype=float))
    c, s = np.cos(theta), np.sin(theta)
    B = np.empty(r.shape + (2, 2))
    B[..., 0, 0], B[..., 0, 1] = c, -r * s
    B[..., 1, 0], B[..., 1, 1] = s, r * c
    C = np.zeros(r.shape + (2, 4))
    C[..., 0, 0] = C[..., 1, 1] = 1.0
    C[..., 0, 2], C[..., 1, 3] = r, theta
    return BiasJacobians(B=B, C=C)


def bias_jacobians(m: PolarMeasurement) -> BiasJacobians:
    """Bias Jacobians at the measurement's own range/azimuth."""
    return jacobians_at(m.r, m.theta)


def conversion_gain(sigma_theta):
    """Multiplicative compensation factor exp(-sigma_theta^2 / 2) applied to
    the range during polar-to-Cartesian conversion (elementwise for arrays)."""
    return _libm(lambda s: math.exp(-0.5 * s * s), sigma_theta)


def polar_to_cart_unbiased(m: PolarMeasurement) -> CartesianMeasurement:
    """Convert a polar measurement to Cartesian with compensated range.

    Warns (but still converts) when the geometry violates the small-angle
    validity check ``r * sigma_theta**2 / sigma_r < 0.4``.
    """
    if m.sigma_r > 0.0:
        ratio = m.r * m.sigma_theta**2 / m.sigma_r
        if ratio >= CONVERSION_VALIDITY_LIMIT:
            warnings.warn(
                f"conversion validity ratio {ratio:.3g} exceeds "
                f"{CONVERSION_VALIDITY_LIMIT}; converted measurement may be biased",
                RuntimeWarning,
                stacklevel=2,
            )
    lam = conversion_gain(m.sigma_theta)
    z = lam * m.r * np.array([math.cos(m.theta), math.sin(m.theta)])
    return CartesianMeasurement(z=z, R=converted_covariance(m))


def converted_covariance(m: PolarMeasurement) -> np.ndarray:
    """Covariance of the converted Cartesian measurement (linearized form)."""
    return _converted_covariance_arrays(m.r, m.theta, m.sigma_r, m.sigma_theta)


def _converted_covariance_arrays(r, theta, sigma_r, sigma_theta) -> np.ndarray:
    """Vectorized core of :func:`converted_covariance`.

    Accepts broadcastable arrays and returns shape (..., 2, 2).
    """
    r = np.asarray(r, dtype=float)
    theta = np.asarray(theta, dtype=float)
    c, s = np.cos(theta), np.sin(theta)
    vr = sigma_r**2
    vt = r**2 * sigma_theta**2
    off = (vr - vt) * s * c
    out = np.empty(np.broadcast(r, theta).shape + (2, 2))
    out[..., 0, 0] = vt * s**2 + vr * c**2
    out[..., 0, 1] = off
    out[..., 1, 0] = off
    out[..., 1, 1] = vt * c**2 + vr * s**2
    return symmetrize(out) if out.ndim == 2 else out


def cart_to_polar(z: np.ndarray, origin=(0.0, 0.0)):
    """Range and azimuth of Cartesian points (..., 2) relative to ``origin``
    (broadcast against them); floats for a single point."""
    z = np.asarray(z, dtype=float)
    dx = z[..., 0] - np.asarray(origin, dtype=float)[..., 0]
    dy = z[..., 1] - np.asarray(origin, dtype=float)[..., 1]
    return _libm(math.hypot, dx, dy), _libm(math.atan2, dy, dx)
