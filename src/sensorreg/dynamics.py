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
    equal, that is one shared model, ``F`` and ``Q`` of shape (n, n), which
    :func:`~sensorreg.trackers.kf_predict` applies in 2-D BLAS products;
    otherwise ``F`` and ``Q`` have shape ``lags.shape + (n, n)``.
    :func:`compose_steps` runs on the first use of each lag, and every use
    reads a table of the composed transitions indexed by lag, so an owner
    that keeps one instance (a Monte Carlo run) composes each of its lags
    once.
    """

    def __init__(self, model: MotionModel) -> None:
        self.model = model
        # Row L holds lag L once _known[L] is set.  Row 0 (no lag) and the
        # last row never are, so a lag clipped into the table reads False
        # until it has been composed.
        self._F = np.zeros((2,) + model.F.shape)
        self._Q = np.zeros((2,) + model.Q.shape)
        self._known = np.zeros(2, dtype=bool)

    def __call__(self, lags) -> MotionModel:
        lags = np.asarray(lags)
        if not self._known.take(lags, mode="clip").all():
            self._compose(np.unique(lags).tolist())
        if lags.size and (lags == lags.flat[0]).all():
            L = lags.flat[0]
            return MotionModel(F=self._F[L], Q=self._Q[L], steps=lags)
        return MotionModel(F=self._F[lags], Q=self._Q[lags], steps=lags)

    def _compose(self, lags: list[int]) -> None:
        grow = max(lags) + 2 - self._known.size
        if grow > 0:
            self._F = np.concatenate([self._F, np.zeros((grow,) + self._F.shape[1:])])
            self._Q = np.concatenate([self._Q, np.zeros((grow,) + self._Q.shape[1:])])
            self._known = np.concatenate([self._known, np.zeros(grow, dtype=bool)])
        for L in lags:
            # compose_steps rejects a lag below 1 before it can index the table.
            if L < 1 or not self._known[L]:
                composed = compose_steps(self.model, L)
                self._F[L], self._Q[L], self._known[L] = composed.F, composed.Q, True
