"""Fisher information and lower bounds for bias parameters.

The bias observation is linear-Gaussian, so the information matrix is the
block sum g' R^-1 g over all (target, frame) observation blocks, and the
bound on any unbiased estimator's variance is the diagonal of its inverse.
Blocks are accumulated incrementally; the full stacked system is never
materialized, which keeps memory at O(d^2) and yields bound-versus-time
curves for free.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import inv_sym, symmetrize
from .errors import NumericalError, SingularMatrixError

__all__ = [
    "FimProblem",
    "FimAccumulator",
    "build_fim",
    "crlb_diag",
    "combine_sensors",
]


@dataclass
class FimProblem:
    """Accumulated Fisher information for a d-dimensional bias vector."""

    J: np.ndarray
    n_blocks: int

    @property
    def dim(self) -> int:
        return self.J.shape[0]


class FimAccumulator:
    """Incrementally sum observation blocks into a Fisher information matrix."""

    def __init__(self, dim: int):
        self.J = np.zeros((dim, dim))
        self.n_blocks = 0

    def add(self, jac: np.ndarray, noise: np.ndarray, label=None) -> None:
        """Fold in one observation block with Jacobian ``jac`` and noise
        covariance ``noise``; ``label`` names the block in error messages."""
        jac = np.asarray(jac, dtype=float)
        try:
            JR = np.linalg.solve(noise, jac)
        except np.linalg.LinAlgError as exc:
            where = f" at block {label}" if label is not None else ""
            raise SingularMatrixError(f"singular noise covariance{where}") from exc
        self.J += jac.T @ JR
        self.n_blocks += 1

    def problem(self) -> FimProblem:
        return FimProblem(J=symmetrize(self.J.copy()), n_blocks=self.n_blocks)


def build_fim(
    jacobians: list[np.ndarray], noises: list[np.ndarray], labels=None
) -> FimProblem:
    """Fisher information J = sum g' R^-1 g over observation blocks.

    Raises :class:`SingularMatrixError` naming the offending block when a
    noise covariance cannot be inverted.
    """
    if len(jacobians) != len(noises):
        raise ValueError("jacobians and noises must pair up")
    if not jacobians:
        raise ValueError("need at least one observation block")
    dim = np.asarray(jacobians[0]).shape[1]
    acc = FimAccumulator(dim)
    for i, (g, R) in enumerate(zip(jacobians, noises)):
        label = labels[i] if labels is not None else i
        acc.add(g, R, label=label)
    return acc.problem()


def crlb_diag(p: FimProblem) -> np.ndarray:
    """Diagonal of the inverse information matrix (variance lower bounds).

    Raises :class:`NumericalError` when the information matrix is singular,
    i.e. some bias combination is unobservable from the supplied blocks.
    """
    try:
        Jinv = inv_sym(p.J, context="Fisher information")
    except SingularMatrixError as exc:
        raise NumericalError(
            "Fisher information singular: some bias component is unobservable"
        ) from exc
    diag = np.diag(Jinv).copy()
    if np.any(diag <= 0.0):
        # Negative variances mean the inversion ran past its numerical rank.
        raise NumericalError(
            "Fisher information numerically singular: some bias component is unobservable"
        )
    return diag


def combine_sensors(noises: list[np.ndarray], target_noise: np.ndarray) -> np.ndarray:
    """Noise covariance of the difference between one sensor and the
    equivalent sensor that collapses several others.

    The equivalent sensor is the information-weighted combination of the
    others, with covariance equal to the inverse of their summed
    informations; the result adds the excluded sensor's ``target_noise``.
    """
    if not noises:
        raise ValueError("need at least one noise covariance to combine")
    Lam = np.zeros(np.shape(noises[0]))
    for R in noises:
        Lam += inv_sym(np.asarray(R, dtype=float), context="sensor noise covariance")
    R_comb = inv_sym(Lam, context="combined information")
    return symmetrize(R_comb + np.asarray(target_noise, dtype=float))
