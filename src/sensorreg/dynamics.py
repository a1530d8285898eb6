"""Planar motion models and multi-step prediction matrices.

State layout is [x, xdot, y, ydot] for the constant-velocity and coordinated
turn models; the constant-acceleration model carries accelerations internally
as [x, xdot, xddot, y, ydot, yddot] and is marginalized back to four states
at the tracker interface.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MotionModel",
    "MultiStepModel",
    "ncv_model",
    "nca_model",
    "turn_model",
    "compose_steps",
    "compose_lags",
]


@dataclass
class MotionModel:
    """Single-step transition ``F`` and process covariance ``Q``."""

    kind: str
    T: float
    F: np.ndarray
    Q: np.ndarray
    q_x: float = 0.0
    q_y: float = 0.0
    omega: float = 0.0

    @property
    def dim(self) -> int:
        return self.F.shape[0]


@dataclass
class MultiStepModel:
    """Transition and accumulated process covariance over several steps.

    ``F`` and ``Q`` are (n, n) for a model shared by a batch, or
    (..., n, n) for one model per element (e.g. per lag, with ``steps`` an
    array, or per IMM mode).
    """

    F: np.ndarray
    Q: np.ndarray
    steps: int | np.ndarray

    def __getitem__(self, index) -> MultiStepModel:
        """The models at ``index`` of the batch axes; a shared model is
        returned as is."""
        if self.F.ndim == 2:
            return self
        steps = np.broadcast_to(self.steps, self.F.shape[:-2])[index]
        return MultiStepModel(F=self.F[index], Q=self.Q[index], steps=steps)


def _ncv_blocks(T: float, q: float) -> tuple[np.ndarray, np.ndarray]:
    F = np.array([[1.0, T], [0.0, 1.0]])
    Q = q * np.array([[T**3 / 3.0, T**2 / 2.0], [T**2 / 2.0, T]])
    return F, Q


def ncv_model(T: float, q_x: float, q_y: float | None = None) -> MotionModel:
    """Nearly-constant-velocity model (discretized continuous white noise
    acceleration) with per-axis noise intensities in m^2/s^3."""
    if T < 0.0:
        raise ValueError("sampling interval must be non-negative")
    if q_y is None:
        q_y = q_x
    if q_x < 0.0 or q_y < 0.0:
        raise ValueError("noise intensities must be non-negative")
    Fx, Qx = _ncv_blocks(T, q_x)
    _, Qy = _ncv_blocks(T, q_y)
    F = np.zeros((4, 4))
    Q = np.zeros((4, 4))
    F[:2, :2] = Fx
    F[2:, 2:] = Fx
    Q[:2, :2] = Qx
    Q[2:, 2:] = Qy
    return MotionModel(kind="ncv", T=T, F=F, Q=Q, q_x=q_x, q_y=q_y)


def _nca_blocks(T: float, q: float) -> tuple[np.ndarray, np.ndarray]:
    F = np.array([[1.0, T, T**2 / 2.0], [0.0, 1.0, T], [0.0, 0.0, 1.0]])
    Q = q * np.array(
        [
            [T**5 / 20.0, T**4 / 8.0, T**3 / 6.0],
            [T**4 / 8.0, T**3 / 3.0, T**2 / 2.0],
            [T**3 / 6.0, T**2 / 2.0, T],
        ]
    )
    return F, Q


def nca_model(T: float, q_x: float, q_y: float | None = None) -> MotionModel:
    """Nearly-constant-acceleration model (continuous Wiener process
    acceleration); six internal states."""
    if T < 0.0:
        raise ValueError("sampling interval must be non-negative")
    if q_y is None:
        q_y = q_x
    if q_x < 0.0 or q_y < 0.0:
        raise ValueError("noise intensities must be non-negative")
    Fx, Qx = _nca_blocks(T, q_x)
    _, Qy = _nca_blocks(T, q_y)
    F = np.zeros((6, 6))
    Q = np.zeros((6, 6))
    F[:3, :3] = Fx
    F[3:, 3:] = Fx
    Q[:3, :3] = Qx
    Q[3:, 3:] = Qy
    return MotionModel(kind="nca", T=T, F=F, Q=Q, q_x=q_x, q_y=q_y)


def turn_model(T: float, omega: float, q_x: float = 0.0, q_y: float | None = None) -> MotionModel:
    """Coordinated turn at a known rate ``omega`` (rad/s).

    Degenerates to the constant-velocity transition as omega -> 0.  Process
    noise uses the same white-noise-acceleration blocks as the NCV model.
    """
    if T < 0.0:
        raise ValueError("sampling interval must be non-negative")
    if q_y is None:
        q_y = q_x
    wt = omega * T
    if abs(wt) < 1e-12:
        base = ncv_model(T, q_x, q_y)
        return MotionModel(kind="turn", T=T, F=base.F, Q=base.Q, q_x=q_x, q_y=q_y, omega=omega)
    s, c = np.sin(wt), np.cos(wt)
    F = np.array(
        [
            [1.0, s / omega, 0.0, -(1.0 - c) / omega],
            [0.0, c, 0.0, -s],
            [0.0, (1.0 - c) / omega, 1.0, s / omega],
            [0.0, s, 0.0, c],
        ]
    )
    base = ncv_model(T, q_x, q_y)
    return MotionModel(kind="turn", T=T, F=F, Q=base.Q, q_x=q_x, q_y=q_y, omega=omega)


def compose_steps(model: MotionModel, steps: int) -> MultiStepModel:
    """Transition/noise pair spanning ``steps`` prediction steps.

    F_L = F^L and Q_L accumulates the single-step noise through each
    intermediate transition (explicit summation keeps the result exactly
    reproducible).
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    F_step = model.F
    F = np.eye(model.dim)
    Q = np.zeros_like(model.Q)
    for _ in range(steps):
        Q = F_step @ Q @ F_step.T + model.Q
        F = F_step @ F
    return MultiStepModel(F=F, Q=0.5 * (Q + Q.T), steps=steps)


def compose_lags(steps: Callable[[int], MultiStepModel], lags) -> MultiStepModel:
    """One multi-step model per element of the integer array ``lags``.

    ``steps(L)`` composes the model of lag L (e.g. a cached
    :func:`compose_steps`) and is called once per distinct lag; ``F`` and
    ``Q`` get the shape ``lags.shape + (n, n)``.
    """
    lags = np.asarray(lags)
    distinct, inverse = np.unique(lags, return_inverse=True)
    models = [steps(int(L)) for L in distinct]
    inverse = inverse.reshape(lags.shape)
    return MultiStepModel(
        F=np.stack([m.F for m in models])[inverse],
        Q=np.stack([m.Q for m in models])[inverse],
        steps=lags,
    )
