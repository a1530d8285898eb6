"""Small linear-algebra helpers used throughout the package."""

from __future__ import annotations

import numpy as np

from .errors import SingularMatrixError, quoted, raise_first

_ADJUGATE_SIGNS = np.array([[1.0, -1.0], [-1.0, 1.0]])


def mt(mat: np.ndarray) -> np.ndarray:
    """Transpose of every matrix on the last two axes."""
    return mat.swapaxes(-1, -2)


def mv(mat: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """Stack of matrix-vector products over the leading batch axes.

    A matmul on a trailing unit axis, not ``vec @ mat.T``: each element then
    sums in the same order as a batch-free ``mat @ vec``, bit for bit, while
    the operands of both have the same memory layout.  Matmul rounds
    contiguous and strided operands differently.  The note does not cover
    the Kalman steps: ``kf_update`` forms its gain times the innovation
    with ``np.einsum``, and ``kf_predict`` its means as rows of a matrix
    product.
    """
    return (mat @ vec[..., None])[..., 0]


def symmetrize(mat: np.ndarray) -> np.ndarray:
    """Return (M + M.T) / 2 for every matrix on the last two axes."""
    out = mat + mat.swapaxes(-1, -2)
    out *= 0.5
    return out


def cholesky(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cholesky factors of symmetric positive definite matrices on the last
    two axes (any size), and the mask of the factored ones.

    An element that is not positive definite, or whose factor is not
    finite (LAPACK lets NaN entries through), is off the mask and factored
    as the identity: a batch with failures in place of an error.
    """
    try:
        L = np.linalg.cholesky(mat)
        if np.isfinite(L.sum()):
            return L, np.ones(mat.shape[:-2], dtype=bool)
    except np.linalg.LinAlgError:
        pass
    # Error path only: factor each matrix of the batch alone.
    ok = ~fails_alone(np.linalg.cholesky, mat, finite=True)
    return np.linalg.cholesky(np.where(ok[..., None, None], mat, np.eye(mat.shape[-1]))), ok


def fails_alone(factor, mat: np.ndarray, finite: bool = False) -> np.ndarray:
    """Mask of the matrices on the leading batch axes of ``mat`` whose
    ``factor``, applied to each alone, raises a LAPACK error (or, with
    ``finite``, has a non-finite entry)."""

    def fails(m):
        try:
            out = factor(m)
        except np.linalg.LinAlgError:
            return True
        return finite and not np.isfinite(out).all()

    return np.vectorize(fails, signature="(n,n)->()", otypes=[bool])(mat)


def singular(context: str, mat: np.ndarray, bad: np.ndarray) -> tuple:
    """The fault ``(reasons, bad)`` of the singular elements ``bad`` of
    ``mat``, each reason quoting that element's condition number."""
    return quoted(f"{context} is singular (cond ~ %.3e)", bad, lambda: sym_cond(mat[bad])), bad


def det_spd2(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Determinants of the 2x2 matrices on the last two axes, and the mask
    of those that pass the positive definiteness test of
    :func:`inv_spd2_masked`: determinant finite and positive, leading entry
    positive (False for any NaN entry)."""
    det = mat[..., 0, 0] * mat[..., 1, 1] - mat[..., 0, 1] * mat[..., 1, 0]
    return det, (det > 0.0) & (mat[..., 0, 0] > 0.0) & (det < np.inf)


def inv_spd2_masked(mat: np.ndarray, keep=True) -> tuple[np.ndarray, np.ndarray]:
    """Cofactor inverses of the 2x2 SPD matrices that ``keep`` marks (it
    broadcasts against the batch axes) and that pass :func:`det_spd2`, the
    identity for every other, and the mask of the inverted ones: failures in
    place of an error, which a caller that must stop raises via
    :func:`singular`."""
    det, ok = det_spd2(mat)
    ok = ok & keep
    if not ok.all():
        mat = np.where(ok[..., None, None], mat, np.eye(2))
        det = np.where(ok, det, 1.0)
    return cofactor_inverse(mat, det), ok


def cofactor_inverse(mat: np.ndarray, det: np.ndarray) -> np.ndarray:
    """Inverses of 2x2 matrices from their tested determinants ``det``."""
    # The adjugate [[d, -b], [-c, a]] is the transpose with both axes
    # reversed and the off-diagonal entries negated.
    adj = mt(mat)[..., ::-1, ::-1] * _ADJUGATE_SIGNS
    return adj / det[..., None, None]


def solve_psd(mat: np.ndarray, rhs: np.ndarray, context: str = "matrix") -> np.ndarray:
    """Solve ``mat @ x = rhs`` for every matrix on the leading batch axes
    (any size; :func:`inv_spd2_masked` serves the 2x2 case).

    A singular ``mat`` fails with :class:`SingularMatrixError` quoting the
    first singular element's condition number.
    """
    try:
        return np.linalg.solve(mat, rhs)
    except np.linalg.LinAlgError:
        # Error path only: factor each matrix of the batch alone.
        raise_first([singular(context, mat, fails_alone(np.linalg.inv, mat))], SingularMatrixError)


def sym_cond(mat: np.ndarray) -> np.ndarray:
    """Spectral condition numbers of the symmetric matrices on the last two
    axes (inf for one that is singular or not finite)."""
    finite = np.isfinite(mat).all(axis=(-2, -1))
    w = np.abs(np.linalg.eigvalsh(symmetrize(np.where(finite[..., None, None], mat, 1.0))))
    lo, hi = w.min(axis=-1), w.max(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(finite & (lo > 0.0), hi / lo, np.inf)
