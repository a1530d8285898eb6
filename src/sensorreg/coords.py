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


def wrap_angle(angle: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    wrapped = math.remainder(angle, 2.0 * math.pi)
    if wrapped <= -math.pi:
        wrapped = math.pi
    return wrapped


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

    ``C`` maps the bias vector into polar perturbations, ``B`` maps polar
    perturbations into Cartesian ones, and ``K = B @ C`` is the combined
    bias-to-Cartesian Jacobian.
    """

    B: np.ndarray
    C: np.ndarray
    K: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.B = np.asarray(self.B, dtype=float).reshape(2, 2)
        self.C = np.asarray(self.C, dtype=float).reshape(2, 4)
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


def jacobians_at(r: float, theta: float) -> BiasJacobians:
    """Bias Jacobians evaluated at a (measured) range/azimuth pair."""
    c, s = math.cos(theta), math.sin(theta)
    B = np.array([[c, -r * s], [s, r * c]])
    C = np.array([[1.0, 0.0, r, 0.0], [0.0, 1.0, 0.0, theta]])
    return BiasJacobians(B=B, C=C)


def bias_jacobians(m: PolarMeasurement) -> BiasJacobians:
    """Bias Jacobians at the measurement's own range/azimuth."""
    return jacobians_at(m.r, m.theta)


def conversion_gain(sigma_theta: float) -> float:
    """Multiplicative compensation factor exp(-sigma_theta^2 / 2) applied to
    the range during polar-to-Cartesian conversion."""
    return math.exp(-0.5 * sigma_theta * sigma_theta)


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


def cart_to_polar(z: np.ndarray, origin=(0.0, 0.0)) -> tuple[float, float]:
    """Range and azimuth of a Cartesian point relative to ``origin``."""
    dx = float(z[0]) - origin[0]
    dy = float(z[1]) - origin[1]
    return math.hypot(dx, dy), math.atan2(dy, dx)
