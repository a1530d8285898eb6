"""Small linear-algebra helpers used throughout the package."""

from __future__ import annotations

import numpy as np

from .errors import SingularMatrixError

_ADJUGATE_SIGNS = np.array([[1.0, -1.0], [-1.0, 1.0]])


def mt(mat: np.ndarray) -> np.ndarray:
    """Transpose of every matrix on the last two axes."""
    return mat.swapaxes(-1, -2)


def mv(mat: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """Stack of matrix-vector products over the leading batch axes.

    A matmul on a trailing unit axis, not ``vec @ mat.T``: each element then
    sums in the same order as a batch-free ``mat @ vec``, bit for bit, while
    the operands of both have the same memory layout.  Matmul rounds
    contiguous and strided operands differently.
    """
    return (mat @ vec[..., None])[..., 0]


def symmetrize(mat: np.ndarray) -> np.ndarray:
    """Return (M + M.T) / 2 for every matrix on the last two axes."""
    return 0.5 * (mat + mat.swapaxes(-1, -2))


def inv_sym(mat: np.ndarray, context: str = "matrix") -> np.ndarray:
    """Invert symmetric matrices on the last two axes, raising
    :class:`SingularMatrixError` naming the first failing batch index."""
    try:
        out = np.linalg.inv(mat)
    except np.linalg.LinAlgError:
        # Error path only: solve_psd raises naming the failing batch index.
        out = solve_psd(mat, np.eye(mat.shape[-1]), context=context)
    # A single reduction flags any inf/nan the factorization let through.
    if not np.isfinite(out.sum()):
        bad = ~np.isfinite(out).all(axis=(-2, -1))
        raise SingularMatrixError(f"{context} inverse is not finite", index=first_index(bad))
    return out


def inv_spd(mat: np.ndarray, context: str = "matrix") -> np.ndarray:
    """Invert symmetric positive definite matrices on the last two axes
    through their Cholesky factors: ``inv(L L') = inv(L)' inv(L)``.

    With the matrix axes moved in front, each column of the factor and each
    row of its inverse is one numpy operation over the whole batch, so the
    number of numpy calls grows with n, not with the batch size; for the
    4x4 track covariances this costs about a third of a batched LAPACK
    inverse, with residuals of the same order.  An element with a pivot
    that is not finite and positive (NaN entries included) raises
    :class:`SingularMatrixError` naming the first such batch index.
    """
    n = mat.shape[-1]
    A = np.ascontiguousarray(np.moveaxis(mat, (-2, -1), (0, 1)))
    L = np.zeros_like(A)
    # A failed pivot leaves NaN in its element, caught on the diagonal below.
    with np.errstate(invalid="ignore", divide="ignore"):
        for j in range(n):
            L[j, j] = np.sqrt(A[j, j] - (L[j, :j] ** 2).sum(axis=0))
            L[j + 1 :, j] = (A[j + 1 :, j] - (L[j + 1 :, :j] * L[j, :j]).sum(axis=1)) / L[j, j]
    diag = L[np.arange(n), np.arange(n)]
    ok = ((diag > 0.0) & (diag < np.inf)).all(axis=0)
    if not ok.all():
        raise SingularMatrixError(
            f"{context} is not positive definite", index=first_index(~ok)
        )
    # Row i of inv(L) by forward substitution over the rows above it.
    X = np.zeros_like(L)
    for i in range(n):
        X[i, i] = 1.0 / L[i, i]
        X[i, :i] = -(L[i, :i, None] * X[:i, :i]).sum(axis=0) * X[i, i]
    X = np.moveaxis(X, (0, 1), (-2, -1))
    return mt(X) @ X


def cholesky(mat: np.ndarray, context: str = "matrix") -> np.ndarray:
    """Cholesky factors of symmetric positive definite matrices on the last
    two axes (any size; :func:`inv_spd` inverts small ones).

    An element that is not positive definite, or whose factor is not finite
    (LAPACK lets NaN entries through), raises :class:`SingularMatrixError`
    naming the first such batch index.
    """
    try:
        L = np.linalg.cholesky(mat)
        if np.isfinite(L.sum()):
            return L
    except np.linalg.LinAlgError:
        pass
    # Error path only: find which matrix of the batch failed.
    for index in np.ndindex(mat.shape[:-2]):
        try:
            if not np.isfinite(np.linalg.cholesky(mat[index])).all():
                break
        except np.linalg.LinAlgError:
            break
    raise SingularMatrixError(f"{context} is not positive definite", index=index)


def first_index(bad: np.ndarray) -> tuple[int, ...] | None:
    """Index of the first True entry of ``bad`` (None if there is none)."""
    hits = np.argwhere(bad)
    return tuple(int(i) for i in hits[0]) if hits.size else None


def det_spd2(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Determinants of the 2x2 matrices on the last two axes, and the mask
    of those that pass the positive definiteness test of :func:`inv_spd2`:
    determinant finite and positive, leading entry positive (False for any
    NaN entry)."""
    det = mat[..., 0, 0] * mat[..., 1, 1] - mat[..., 0, 1] * mat[..., 1, 0]
    return det, (det > 0.0) & (mat[..., 0, 0] > 0.0) & (det < np.inf)


def inv_spd2(mat: np.ndarray, context: str = "matrix") -> tuple[np.ndarray, np.ndarray]:
    """Inverse and log-determinant of 2x2 symmetric positive definite
    matrices on the last two axes, in closed (cofactor) form.

    Every innovation, gain Gram and pseudo-measurement covariance of the
    package is 2x2, where the cofactor form costs a fraction of a batched
    LAPACK call per element.  An element whose determinant is not finite
    and positive, or whose leading entry is not positive, raises
    :class:`SingularMatrixError` naming the first such batch index and its
    condition number.
    """
    det, ok = det_spd2(mat)
    if not ok.all():
        index = first_index(~ok)
        raise SingularMatrixError(
            f"{context} is singular (cond ~ {sym_cond(mat[index]):.3e})", index=index
        )
    # The adjugate [[d, -b], [-c, a]] is the transpose with both axes
    # reversed and the off-diagonal entries negated.
    adj = mt(mat)[..., ::-1, ::-1] * _ADJUGATE_SIGNS
    return adj / det[..., None, None], np.log(det)


def solve_psd(mat: np.ndarray, rhs: np.ndarray, context: str = "matrix") -> np.ndarray:
    """Solve ``mat @ x = rhs`` for every matrix on the leading batch axes
    (any size; :func:`inv_spd2` serves the 2x2 case).

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
                index = idx
                break
        cond = sym_cond(mat if not index else mat[index])
        raise SingularMatrixError(
            f"{context} is singular (cond ~ {cond:.3e})", index=index
        ) from exc


def sym_cond(mat: np.ndarray) -> float:
    """Spectral condition number of a symmetric matrix (inf when singular
    or not finite)."""
    if not np.isfinite(mat).all():
        return np.inf
    w = np.abs(np.linalg.eigvalsh(symmetrize(mat)))
    if w.size == 0 or w.min() == 0.0:
        return np.inf
    return float(w.max() / w.min())
