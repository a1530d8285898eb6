"""Small linear-algebra helpers used throughout the package."""

from __future__ import annotations

import numpy as np

from .errors import SingularMatrixError


def symmetrize(mat: np.ndarray) -> np.ndarray:
    """Return (M + M.T) / 2 for every matrix on the last two axes."""
    return 0.5 * (mat + mat.swapaxes(-1, -2))


def inv_sym(mat: np.ndarray, context: str = "matrix") -> np.ndarray:
    """Invert a symmetric matrix, raising :class:`SingularMatrixError` with a
    condition-number diagnostic on failure."""
    try:
        out = np.linalg.inv(mat)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"{context} is singular") from exc
    # A single reduction flags any inf/nan the factorization let through.
    if not np.isfinite(out.sum()):
        raise SingularMatrixError(f"{context} inverse is not finite")
    return out


def first_index(bad: np.ndarray) -> tuple[int, ...] | None:
    """Index of the first True entry of ``bad`` (None if there is none)."""
    hits = np.argwhere(bad)
    return tuple(int(i) for i in hits[0]) if hits.size else None


def at_index(index: tuple[int, ...] | None) -> str:
    """Message suffix naming a batch index; empty for a batch-free one."""
    return "" if not index else f" at batch index {list(index)}"


def solve_psd(mat: np.ndarray, rhs: np.ndarray, context: str = "matrix") -> np.ndarray:
    """Solve ``mat @ x = rhs`` for every matrix on the leading batch axes.

    A singular ``mat`` raises :class:`SingularMatrixError` carrying the
    first failing batch index and a condition diagnostic.
    """
    try:
        return np.linalg.solve(mat, rhs)
    except np.linalg.LinAlgError as exc:
        # Error path only: find which matrix of the batch failed.
        index = None
        for idx in np.ndindex(mat.shape[:-2]):
            try:
                np.linalg.solve(mat[idx], np.eye(mat.shape[-1]))
            except np.linalg.LinAlgError:
                index = idx or None
                break
        cond = sym_cond(mat if index is None else mat[index])
        raise SingularMatrixError(
            f"{context} is singular{at_index(index)} (cond ~ {cond:.3e})", index=index
        ) from exc


def sym_cond(mat: np.ndarray) -> float:
    """Spectral condition number of a symmetric matrix (inf when singular)."""
    w = np.abs(np.linalg.eigvalsh(symmetrize(mat)))
    if w.size == 0 or w.min() == 0.0:
        return np.inf
    return float(w.max() / w.min())

