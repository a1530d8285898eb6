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
    "ncv_model",
    "nca_model",
    "turn_model",
    "compose_steps",
    "compose_lags",
]


@dataclass
class MotionModel:
    """Transition ``F`` and accumulated process covariance ``Q`` over
    ``steps`` prediction steps.

    ``F`` and ``Q`` are (n, n) for a model shared by a batch, or
    (..., n, n) for one model per element (e.g. per lag, with ``steps`` an
    array, or per IMM mode).
    """

    F: np.ndarray
    Q: np.ndarray
    steps: int | np.ndarray = 1

    @property
    def dim(self) -> int:
        return self.F.shape[-1]

    def __getitem__(self, index) -> MotionModel:
        """The models at ``index`` of the batch axes; a shared model is
        returned as is."""
        if self.F.ndim == 2:
            return self
        steps = np.broadcast_to(self.steps, self.F.shape[:-2])[index]
        return MotionModel(F=self.F[index], Q=self.Q[index], steps=steps)


def _ncv_blocks(T: float, q: float) -> tuple[np.ndarray, np.ndarray]:
    F = np.array([[1.0, T], [0.0, 1.0]])
    Q = q * np.array([[T**3 / 3.0, T**2 / 2.0], [T**2 / 2.0, T]])
    return F, Q


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


def _two_axis(T: float, q: float, blocks) -> MotionModel:
    """Model with the per-axis blocks ``blocks(T, q)`` on both the x and
    the y half of the state."""
    if T < 0.0:
        raise ValueError("sampling interval must be non-negative")
    if q < 0.0:
        raise ValueError("noise intensities must be non-negative")
    Fa, Qa = blocks(T, q)
    m = Fa.shape[0]
    F = np.zeros((2 * m, 2 * m))
    Q = np.zeros((2 * m, 2 * m))
    F[:m, :m] = F[m:, m:] = Fa
    Q[:m, :m] = Q[m:, m:] = Qa
    return MotionModel(F=F, Q=Q)


def ncv_model(T: float, q: float) -> MotionModel:
    """Nearly-constant-velocity model (discretized continuous white noise
    acceleration) with noise intensity ``q`` in m^2/s^3 on each axis."""
    return _two_axis(T, q, _ncv_blocks)


def nca_model(T: float, q: float) -> MotionModel:
    """Nearly-constant-acceleration model (continuous Wiener process
    acceleration); six internal states."""
    return _two_axis(T, q, _nca_blocks)


def turn_model(T: float, omega: float, q: float = 0.0) -> MotionModel:
    """Coordinated turn at a known rate ``omega`` (rad/s).

    Degenerates to the constant-velocity transition as omega -> 0.  Process
    noise uses the same white-noise-acceleration blocks as the NCV model.
    """
    if T < 0.0:
        raise ValueError("sampling interval must be non-negative")
    wt = omega * T
    if abs(wt) < 1e-12:
        return ncv_model(T, q)
    s, c = np.sin(wt), np.cos(wt)
    F = np.array(
        [
            [1.0, s / omega, 0.0, -(1.0 - c) / omega],
            [0.0, c, 0.0, -s],
            [0.0, (1.0 - c) / omega, 1.0, s / omega],
            [0.0, s, 0.0, c],
        ]
    )
    return MotionModel(F=F, Q=ncv_model(T, q).Q)


def compose_steps(model: MotionModel, steps: int) -> MotionModel:
    """Transition/noise pair spanning ``steps`` applications of ``model``.

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
    return MotionModel(F=F, Q=0.5 * (Q + Q.T), steps=model.steps * steps)


def compose_lags(steps: Callable[[int], MotionModel], lags) -> MotionModel:
    """One multi-step model per element of the integer array ``lags``.

    ``steps(L)`` composes the model of lag L (e.g. a cached
    :func:`compose_steps`) and is called once per distinct lag; ``F`` and
    ``Q`` get the shape ``lags.shape + (n, n)``.
    """
    lags = np.asarray(lags)
    distinct, inverse = np.unique(lags, return_inverse=True)
    models = [steps(int(L)) for L in distinct]
    inverse = inverse.reshape(lags.shape)
    return MotionModel(
        F=np.stack([m.F for m in models])[inverse],
        Q=np.stack([m.Q for m in models])[inverse],
        steps=lags,
    )
