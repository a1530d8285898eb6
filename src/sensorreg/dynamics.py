"""Planar motion models and multi-step prediction matrices.

State layout is [x, xdot, y, ydot] for the constant-velocity and coordinated
turn models; the constant-acceleration model carries accelerations internally
as [x, xdot, xddot, y, ydot, yddot] and is marginalized back to four states
at the tracker interface.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "MotionModel",
    "ncv_model",
    "nca_model",
    "turn_model",
    "compose_steps",
    "LagModels",
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

    @cached_property
    def Ft(self) -> np.ndarray:
        """``F`` transposed, as a contiguous array formed on first use (``F``
        is not to change after it).  Matmul takes its BLAS path only for
        contiguous operands: on small stacks a transposed view costs about
        three times as much."""
        return np.ascontiguousarray(self.F.swapaxes(-1, -2))


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


class LagModels:
    """The multi-step models of one single-step ``model``, composed once per
    lag.

    Called with an integer array of lags, it returns the model of each
    element, with ``steps`` the lags in every case.  When every lag is
    equal, that is the one composed model of that lag, ``F`` and ``Q`` of
    shape (n, n), which :func:`~sensorreg.trackers.kf_predict` applies in
    2-D BLAS products; otherwise ``F`` and ``Q`` have shape
    ``lags.shape + (n, n)``, gathered from the models of the distinct lags.
    :func:`compose_steps` runs on the first use of each lag and its model is
    kept by lag, so an owner that keeps one instance (a Monte Carlo run)
    composes each of its lags once.
    """

    def __init__(self, model: MotionModel) -> None:
        self.model = model
        self._composed: dict[int, MotionModel] = {}

    def __call__(self, lags) -> MotionModel:
        lags = np.asarray(lags)
        if lags.size and (lags == lags.flat[0]).all():
            shared = self._lag(int(lags.flat[0]))
            return MotionModel(F=shared.F, Q=shared.Q, steps=lags)
        distinct, index = np.unique(lags, return_inverse=True)
        models = [self._lag(L) for L in distinct.tolist()]
        shape = (-1,) + self.model.F.shape
        index = index.reshape(lags.shape)
        F = np.reshape([m.F for m in models], shape)[index]
        Q = np.reshape([m.Q for m in models], shape)[index]
        return MotionModel(F=F, Q=Q, steps=lags)

    def _lag(self, L: int) -> MotionModel:
        # compose_steps rejects a lag below 1.
        if L not in self._composed:
            self._composed[L] = compose_steps(self.model, L)
        return self._composed[L]
