"""Polar range/azimuth measurement model with offset and scale biases.

A radar reports range and azimuth relative to its own position.  Systematic
errors are modeled as a per-sensor bias vector (range offset, azimuth offset,
range scale, azimuth scale) applied to the true polar coordinates before the
additive measurement noise.  This module generates biased measurements,
converts them to Cartesian coordinates with the range scaled by
:func:`conversion_gain`, and provides the Jacobians that map bias
parameters into Cartesian measurement space.  Every function takes arrays whose leading axes
index a batch of measurements; scalars are the batch-free case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError

__all__ = [
    "BiasVector",
    "CartesianMeasurement",
    "BiasJacobians",
    "wrap_angle",
    "apply_bias",
    "jacobians_at",
    "conversion_gain",
    "polar_to_cart",
    "converted_covariance",
    "converted_measurement",
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


@dataclass
class BiasVector:
    """Per-sensor systematic errors: offsets (m, rad) and unitless scales.

    Fields may be arrays, one element per sensor of a batch, that broadcast
    against the measurements they bias.
    """

    b_r: float | np.ndarray = 0.0
    b_theta: float | np.ndarray = 0.0
    eps_r: float | np.ndarray = 0.0
    eps_theta: float | np.ndarray = 0.0

    def __post_init__(self) -> None:
        if np.any(1.0 + np.asarray(self.eps_r) <= 0.0) or np.any(
            1.0 + np.asarray(self.eps_theta) <= 0.0
        ):
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

    ``B`` (..., 2, 2) maps polar perturbations into Cartesian ones, and
    ``K = B @ [I | diag(r, theta)]`` (..., 2, 4) maps the bias vector into
    them; leading axes index a batch of measurements.  ``B`` is a view of
    the first two columns of ``K``.
    """

    B: np.ndarray
    K: np.ndarray


def apply_bias(r, theta, bias: BiasVector, w_r=0.0, w_theta=0.0):
    """Corrupt true ranges and azimuths with scale/offset biases and noise.

    ``r``, ``theta`` and the noise samples ``w_r``, ``w_theta`` broadcast
    against each other; the caller draws the noise, so the function stays a
    deterministic map of its inputs.  Returns the measured ``(r, theta)``
    arrays, with the azimuths left unwrapped.

    Raises :class:`NumericalError` marking every non-positive measured
    range.
    """
    r_m = (1.0 + bias.eps_r) * np.asarray(r) + bias.b_r + np.asarray(w_r)
    t_m = (1.0 + bias.eps_theta) * np.asarray(theta) + bias.b_theta + np.asarray(w_theta)
    bad = r_m <= 0.0
    if bad.any():
        raise NumericalError("bias and noise drove the range non-positive", bad)
    return r_m, t_m


def jacobians_at(r, theta) -> BiasJacobians:
    """Bias Jacobians evaluated at (measured) range/azimuth pairs; array
    arguments give a batch with their broadcast shape."""
    r, theta = np.broadcast_arrays(np.asarray(r, dtype=float), np.asarray(theta, dtype=float))
    return _jacobians(r, theta, np.cos(theta), np.sin(theta), 4)


def _jacobians(r, theta, c, s, d: int) -> BiasJacobians:
    """:func:`jacobians_at` from the cosines ``c`` and sines ``s`` of the
    azimuths, with the first ``d`` (2 or 4) columns of ``K``."""
    K = np.empty(r.shape + (2, d))
    K[..., 0, 0], K[..., 0, 1] = c, -r * s
    K[..., 1, 0], K[..., 1, 1] = s, r * c
    if d == 4:
        # Each scale's column is its coordinate times the matching offset
        # column.
        K[..., 2] = r[..., None] * K[..., 0]
        K[..., 3] = theta[..., None] * K[..., 1]
    return BiasJacobians(B=K[..., :2], K=K)


def conversion_gain(sigma_theta):
    """The factor lam = exp(-sigma_theta^2 / 2) by which polar-to-Cartesian
    conversion multiplies the range (elementwise for arrays).  Azimuth noise
    already shrinks the plain conversion's mean by lam, so this doubles its
    error, to about -sigma_theta^2 * r in range, where dividing by lam
    would remove it."""
    return np.exp(-0.5 * sigma_theta * sigma_theta)


def polar_to_cart(r, theta, sigma_theta, origin=(0.0, 0.0)) -> np.ndarray:
    """Cartesian positions (..., 2) of ranges and azimuths measured from
    ``origin`` (..., 2): ``origin + lam * r * (cos, sin)`` with ``lam =
    conversion_gain(sigma_theta)`` (not a compensation; see there).
    Arguments broadcast.

    The conversion is trustworthy while ``r * sigma_theta**2 / sigma_r``
    stays below ``CONVERSION_VALIDITY_LIMIT``; callers check their geometry.
    """
    return _cart(r, np.cos(theta), np.sin(theta), sigma_theta, origin)


def _cart(r, c, s, sigma_theta, origin) -> np.ndarray:
    lam_r = conversion_gain(sigma_theta) * np.asarray(r)
    origin = np.asarray(origin, dtype=float)
    return np.stack([origin[..., 0] + lam_r * c, origin[..., 1] + lam_r * s], axis=-1)


def converted_covariance(r, theta, sigma_r, sigma_theta) -> np.ndarray:
    """Covariance (..., 2, 2) of converted Cartesian measurements
    (linearized form); the arguments broadcast."""
    r = np.asarray(r, dtype=float)
    theta = np.asarray(theta, dtype=float)
    return _covariance(r, np.cos(theta), np.sin(theta), sigma_r, sigma_theta)


def _covariance(r, c, s, sigma_r, sigma_theta) -> np.ndarray:
    # Products, not ``**2``: numpy scalars square through pow(), which can
    # round differently from an array's x*x, and a batch must give the same
    # bits as its batch-free elements.
    vr = sigma_r * sigma_r
    vt = (r * r) * (sigma_theta * sigma_theta)
    off = (vr - vt) * s * c
    out = np.empty(np.broadcast(r, c).shape + (2, 2))
    out[..., 0, 0] = vt * (s * s) + vr * (c * c)
    out[..., 0, 1] = off
    out[..., 1, 0] = off
    out[..., 1, 1] = vt * (c * c) + vr * (s * s)
    return out


def converted_measurement(r, theta, sigma_r, sigma_theta, origin, d: int):
    """The converted positions (:func:`polar_to_cart`), their covariances
    (:func:`converted_covariance`) and the first ``d`` (2 or 4) columns of
    the bias Jacobian ``K`` (:func:`jacobians_at`) of ranges and azimuths
    measured from ``origin``, from one cos/sin evaluation: ``(z (..., 2),
    R (..., 2, 2), K (..., 2, d))``.  The arguments broadcast.
    """
    r, theta = np.broadcast_arrays(np.asarray(r, dtype=float), np.asarray(theta, dtype=float))
    c, s = np.cos(theta), np.sin(theta)
    return (
        _cart(r, c, s, sigma_theta, origin),
        _covariance(r, c, s, sigma_r, sigma_theta),
        _jacobians(r, theta, c, s, d).K,
    )


def cart_to_polar(z: np.ndarray, origin=(0.0, 0.0)):
    """Range and azimuth of Cartesian points (..., 2) relative to ``origin``
    (broadcast against them); floats for a single point."""
    z = np.asarray(z, dtype=float)
    dx = z[..., 0] - np.asarray(origin, dtype=float)[..., 0]
    dy = z[..., 1] - np.asarray(origin, dtype=float)[..., 1]
    return np.hypot(dx, dy), np.arctan2(dy, dx)
