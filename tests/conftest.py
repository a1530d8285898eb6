"""Shared test references."""

import numpy as np
import pytest

from sensorreg._linalg import mt, mv, symmetrize
from sensorreg.bias import BiasEstimate, PseudoMeasurement
from sensorreg.errors import raise_first


def checked(out):
    """The result of a call that returns ``(result, faults)``, its first
    fault raised as an error (what a caller that must stop does)."""
    result, faults = out
    raise_first(faults)
    return result


def former_rlsb_update(est: BiasEstimate, pm: PseudoMeasurement) -> BiasEstimate:
    """The stacked fold in its former measurement-space form: the m
    observations of an element as one 2m-vector with noise covariance
    ``blockdiag(R)``, the 2m x 2m innovation covariance ``S = H Sigma H' +
    blockdiag(R)``, the d x 2m gain ``G = Sigma H' S^-1`` and the Joseph form
    ``M Sigma M' + G blockdiag(R) G'`` with ``M = I - G H``.  No screen: it
    serves as a reference on well-posed inputs only."""
    m = pm.H.shape[-3]
    rows = pm.H.shape[:-3] + (2 * m,)
    H = pm.H.reshape(rows + (est.dim,))
    z = pm.z.reshape(rows)
    # blockdiag(R): R[..., j, a, c] lands at row 2j + a, column 2j + c.
    R = (pm.R[..., :, :, None, :] * np.eye(m)[:, None, :, None]).reshape(rows + (2 * m,))
    HSigma = H @ est.Sigma
    G = mt(np.linalg.solve(HSigma @ mt(H) + R, HSigma))
    b = est.b + mv(G, z - mv(H, est.b))
    M = np.eye(est.dim) - G @ H
    return BiasEstimate(b=b, Sigma=symmetrize(M @ est.Sigma @ mt(M) + G @ R @ mt(G)))


@pytest.fixture
def former_fold():
    """:func:`former_rlsb_update`, for the tests that hold the information
    form of ``rlsb_update`` to it."""
    return former_rlsb_update
