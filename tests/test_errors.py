"""Failure records: the mask of every failed element on a numerical error,
the one helper that names where a batched failure happened, and a guard
that keeps location formatting in that helper."""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from conftest import checked
from hypothesis import strategies as st

import sensorreg
from sensorreg._linalg import cholesky, inv_spd2_masked, singular, solve_psd
from sensorreg.bias import BiasEstimate
from sensorreg.coords import BiasVector, CartesianMeasurement, apply_bias
from sensorreg.dynamics import ncv_model
from sensorreg.errors import NumericalError, SingularMatrixError, located, raise_first
from sensorreg.fusion import bias_correct, reconstruct_local_gain
from sensorreg.trackers import GaussianEstimate, kf_predict, kf_update
from sensorreg.tracklets import Tracklet, compute_tracklet, tracklet_decorrelated

_SPD3 = np.array([[4.0, 1.0, 0.5], [1.0, 3.0, 0.2], [0.5, 0.2, 2.0]])
_POS = (0, 2)


def _spd(rng, n):
    a = rng.standard_normal((n, n))
    return a @ a.T + n * np.eye(n)


def _embed_pos(block):
    """A 4x4 matrix holding ``block`` on the position axes, identity elsewhere."""
    out = np.eye(4)
    out[np.ix_(_POS, _POS)] = block
    return out


# Per site: a good element from a generator, a bad element per kind, and the
# call on a batch given as a tuple of stacked arguments.  Kinds whose
# message quotes a value come in pairs that read the same and one that reads
# differently, so a batch may hold several elements with one reason.
_INDEF2 = np.array([[1.0, 2.0], [2.0, 1.0]])      # cond ~ 3.000e+00
_INDEF2B = np.array([[1.0, 3.0], [3.0, 1.0]])     # cond ~ 2.000e+00
_NAN2 = np.full((2, 2), np.nan)


def _shear(a):
    out = np.diag([0.0, 0.0, 1.0])
    out[0, 1] = a
    return out


_MODEL = ncv_model(1.0, 0.5)


def _snapshots(rng, kind="pos"):
    """Means and covariances of a report pair one step of ``_MODEL`` apart:
    a position-only Kalman update ("pos", the position-marginal form), a
    full-state update ("full", the inverse-filter form), or a track
    covariance ``kind(P)`` of its predicted covariance P."""
    prev = GaussianEstimate(mean=100.0 * rng.standard_normal(4), cov=10.0 * _spd(rng, 4))
    pred = kf_predict(prev, _MODEL)
    if kind == "pos":
        z = CartesianMeasurement(100.0 * rng.standard_normal(2), _spd(rng, 2))
        C = kf_update(pred, z)[0].cov
    elif kind == "full":
        C = np.linalg.inv(np.linalg.inv(pred.cov) + np.linalg.inv(_spd(rng, 4)))
    else:
        C = kind(pred.cov)
    return prev.mean, prev.cov, 100.0 * rng.standard_normal(4), 0.5 * (C + C.T)


def _snapshot_good(rng):
    return _snapshots(rng, "pos" if rng.random() < 0.5 else "full")


def _with_pos(P, block):
    """``P`` with ``block`` in place of its position block."""
    out = P.copy()
    out[np.ix_(_POS, _POS)] = block
    return out


# Track covariances whose difference from the prediction is singular, so
# that both sites take the position-marginal form, where they fail:
# information lost over the interval, none gained, and position blocks that
# are not positive definite, two of which quote the same condition number.
_SNAPSHOT_KINDS = {
    "loss": lambda P: 2.0 * P,
    "no_info": lambda P: P,
    "indefinite": lambda P: _with_pos(P, _INDEF2),
    "indefinite_same": lambda P: _with_pos(P, 2.0 * _INDEF2),
    "indefinite_other": lambda P: _with_pos(P, _INDEF2B),
}


def _tracklet_site(form):
    def call(prev_mean, prev_cov, curr_mean, curr_cov):
        pred = kf_predict(GaussianEstimate(mean=prev_mean, cov=prev_cov), _MODEL)
        return checked(form(pred, GaussianEstimate(mean=curr_mean, cov=curr_cov, frame=1)))

    kinds = {
        kind: _snapshots(np.random.default_rng(i), make)
        for i, (kind, make) in enumerate(_SNAPSHOT_KINDS.items())
    }
    return _snapshot_good, kinds, call


def _track(rng, pos=(3000.0, 4000.0), b=(0.0, 0.0, 0.0, 0.0)):
    """Tracklet and bias arguments of :func:`_bias_correct`, sensor at the origin."""
    u = np.array(pos, dtype=float)
    return u, _spd(rng, 2), np.asarray(b, dtype=float), 1e-4 * np.eye(4)


def _bias_correct(u, U, b, Sigma):
    t = Tracklet(u=u, U=U)
    return checked(
        bias_correct(t, BiasEstimate(b=b, Sigma=Sigma), (10.0, 1e-3), origin=(0.0, 0.0))
    )


SITES = {
    "inv_spd2_masked": (
        lambda rng: (_spd(rng, 2),),
        {
            "indefinite": (_INDEF2,),
            "indefinite_same": (np.array([[2.0, 4.0], [4.0, 2.0]]),),
            "indefinite_other": (_INDEF2B,),
            "nan": (_NAN2,),
            "zero": (np.zeros((2, 2)),),
        },
        lambda mat: raise_first(
            [singular("S", mat, ~inv_spd2_masked(mat)[1])], SingularMatrixError
        ),
    ),
    "cholesky": (
        lambda rng: (_spd(rng, 3),),
        {
            "indefinite": (np.diag([1.0, -1.0, 1.0]),),
            "nan": (np.full((3, 3), np.nan),),
            "near": (_SPD3 - 2.5 * np.eye(3),),
        },
        lambda mat: raise_first(
            [("P is not positive definite", ~cholesky(mat)[1])], SingularMatrixError
        ),
    ),
    "solve_psd": (
        lambda rng: (_spd(rng, 3), rng.standard_normal((3, 2))),
        {
            "zero": (np.zeros((3, 3)), np.ones((3, 2))),
            # Singular, but not their symmetric parts: cond ~ 2, 2 and 1.
            "shear": (_shear(1.0), np.ones((3, 2))),
            "shear_same": (_shear(-1.0), np.ones((3, 2))),
            "shear_other": (_shear(2.0), np.ones((3, 2))),
        },
        lambda mat, rhs: solve_psd(mat, rhs, context="S"),
    ),
    "tracklet_decorrelated": _tracklet_site(tracklet_decorrelated),
    "compute_tracklet": _tracklet_site(compute_tracklet),
    "apply_bias": (
        lambda rng: (rng.uniform(1e3, 1e4), rng.uniform(-3.0, 3.0)),
        {
            "negative": (-5.0, 0.0),
            "just": (-1.0, 1.0),
        },
        lambda r, theta: apply_bias(r, theta, BiasVector(b_r=1.0, eps_r=1e-3)),
    ),
    "bias_correct": (
        lambda rng: _track(rng),
        {
            "at_sensor": _track(np.random.default_rng(1), pos=(0.0, 0.0)),
            "scale": _track(np.random.default_rng(2), b=(0.0, 0.0, -1.5, 0.0)),
            "range": _track(np.random.default_rng(3), b=(5005.0, 0.0, 0.0, 0.0)),
            "range_same": _track(np.random.default_rng(4), pos=(0.0, 3000.0), b=(3005.0, 0, 0, 0)),
            "range_other": _track(np.random.default_rng(5), b=(5007.0, 0.0, 0.0, 0.0)),
        },
        _bias_correct,
    ),
    "reconstruct_local_gain": (
        lambda rng: (_spd(rng, 2), 10.0 * _spd(rng, 4)),
        {
            "indefinite_R": (np.diag([1.0, -1.0]), np.eye(4)),
            "singular_S": (np.eye(2), _embed_pos(-np.eye(2))),
            "indefinite_S": (np.eye(2), _embed_pos(_INDEF2 - np.eye(2))),
        },
        lambda R, pred_cov: checked(reconstruct_local_gain(R, pred_cov)),
    ),
}


def _check(reason):
    """The check behind a reason: the reason without its quoted value."""
    return reason.split(" (")[0]


def _outcome(call, args):
    """``(type, reason)`` of the error of one call, or None."""
    try:
        call(*args)
    except NumericalError as exc:
        return type(exc), exc.reason
    return None


@pytest.mark.parametrize("site", SITES)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_good=st.integers(0, 4),
    bad=st.data(),
    column=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_error_marks_every_element_that_fails_alike(site, seed, n_good, bad, column):
    # A batch with 0-3 bad elements fails, if at all, with the first check
    # that any element fails.  ``failed`` marks every element that fails
    # that check alone, whatever value its message quotes, ``index`` is the
    # first of them, and the reason is that element's own: no message
    # quotes one element's value for another.
    good, kinds, call = SITES[site]
    rng = np.random.default_rng(seed)
    chosen = bad.draw(st.lists(st.sampled_from(sorted(kinds)), max_size=3))
    elements = [good(rng) for _ in range(n_good)] + [kinds[k] for k in chosen]
    elements = [elements[i] for i in bad.draw(st.permutations(range(len(elements))))]
    if not elements:
        return
    alone = [_outcome(call, el) for el in elements]
    shape = (len(elements), 1) if column else (len(elements),)
    batch = tuple(
        np.stack([np.asarray(a, dtype=float) for a in arg]).reshape(shape + np.shape(arg[0]))
        for arg in zip(*elements)
    )
    try:
        call(*batch)
    except NumericalError as exc:
        same = [a is not None and a[0] is type(exc) and _check(a[1]) == _check(exc.reason)
                for a in alone]
        expected = np.array(same)
        assert expected.any()
        np.testing.assert_array_equal(exc.failed, expected.reshape(shape))
        assert exc.index == tuple(int(i) for i in np.argwhere(expected.reshape(shape))[0])
        assert alone[int(np.argmax(expected))] == (type(exc), exc.reason)
        assert str(exc) == f"{exc.reason} at batch index {list(exc.index)}"
    else:
        assert alone == [None] * len(elements)


def test_error_records_failed_and_first_index():
    exc = SingularMatrixError("S is singular", [[False, True], [True, False]])
    assert exc.index == (0, 1)
    assert str(exc) == "S is singular at batch index [0, 1]"
    assert exc.reason == "S is singular"
    bare = NumericalError("no batch")
    assert bare.index is None and bare.failed.shape == () and bare.failed
    assert str(bare) == "no batch"


def test_located_keeps_type_and_mask():
    failed = np.array([[False, False], [False, True]])
    with pytest.raises(SingularMatrixError) as info:
        with located(lambda s, t: f"sensor {s}, target {t}"):
            raise SingularMatrixError("S is singular", failed)
    assert str(info.value) == "sensor 1, target 1: S is singular"
    assert info.value.reason == "sensor 1, target 1: S is singular"
    assert info.value.index == (1, 1)
    np.testing.assert_array_equal(info.value.failed, failed)
    assert isinstance(info.value.__cause__, SingularMatrixError)

    # A string names any error, a batch-free one included, and nests.
    with pytest.raises(NumericalError, match=r"^run 3: frame 2: no batch$") as info:
        with located("run 3"):
            with located(lambda: "frame 2"):
                raise NumericalError("no batch")
    assert info.value.index is None

    # A fixed text keeps the batch index of an error not yet located, and
    # adds none to one that is.
    with pytest.raises(NumericalError, match=r"^run 3: bad at batch index \[1\]$"):
        with located("run 3"):
            raise NumericalError("bad", [False, True])
    with pytest.raises(NumericalError, match=r"^run 3: element 1: bad$") as info:
        with located("run 3"):
            with located(lambda i: f"element {i}"):
                raise NumericalError("bad", [False, True])
    assert info.value.index == (1,)

    # A function of the index cannot name a batch-free error, which passes
    # unchanged; one that takes any index names every error.
    bare = NumericalError("no batch")
    with pytest.raises(NumericalError) as info:
        with located(lambda s, t: f"sensor {s}, target {t}"):
            raise bare
    assert info.value is bare and str(bare) == "no batch"
    for error in (NumericalError("no batch"), NumericalError("bad", [False, True])):
        with pytest.raises(NumericalError, match=r"^frame 4: ") as info:
            with located(lambda *_: "frame 4"):
                raise error
        assert info.value.index == error.index

    # Other exceptions pass through untouched.
    with pytest.raises(ValueError, match="^other$"):
        with located("run 0"):
            raise ValueError("other")


def _reason_fstrings(source: str) -> list[int]:
    """Lines of the f-strings in ``source`` that interpolate a ``.reason``."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.JoinedStr)
        and any(
            isinstance(sub, ast.Attribute) and sub.attr == "reason"
            for value in node.values
            if isinstance(value, ast.FormattedValue)
            for sub in ast.walk(value.value)
        )
    ]


def test_only_errors_module_formats_a_location_around_a_reason():
    # New located errors go through errors.located, not a hand-written
    # f"{where}: {exc.reason}".
    assert _reason_fstrings('f"frame {k}: {exc.reason}"') == [1]
    package = Path(sensorreg.__file__).parent
    found = {
        str(path.relative_to(package)): lines
        for path in sorted(package.rglob("*.py"))
        if path.name != "errors.py"
        and (lines := _reason_fstrings(path.read_text()))
    }
    assert found == {}
    assert _reason_fstrings((package / "errors.py").read_text())


def _swallowing_handlers(source: str, caught: set) -> list[int]:
    """Lines of the ``except`` clauses in ``source`` that can catch a class
    named in ``caught`` (a bare ``except`` included) and do not end by
    raising."""

    def names(node):
        if node is None:
            return {"BaseException"}
        if isinstance(node, ast.Tuple):
            return set().union(*map(names, node.elts))
        return {node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")}

    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ExceptHandler)
        and names(node.type) & caught
        and not isinstance(node.body[-1], ast.Raise)
    ]


def test_every_numerical_error_handler_reraises():
    # Failures are masks, not retries: a handler that catches a
    # NumericalError (or a class above it) and goes on, as a retry loop
    # does, fails this test.  The one exception ends the program:
    # cli.main's exit-2 handler.
    from sensorreg import errors

    caught = {cls.__name__ for cls in NumericalError.__mro__} | {
        name
        for name, obj in vars(errors).items()
        if isinstance(obj, type) and issubclass(obj, NumericalError)
    }
    retry = "while True:\n    try:\n        break\n    except SingularMatrixError:\n        pass\n"
    assert _swallowing_handlers(retry, caught) == [4]
    package = Path(sensorreg.__file__).parent
    found = {
        str(path.relative_to(package)): lines
        for path in sorted(package.rglob("*.py"))
        if (lines := _swallowing_handlers(path.read_text(), caught))
    }
    cli = (package / "cli.py").read_text().splitlines()
    assert found == {"cli.py": [cli.index("    except NumericalError as exc:") + 1]}
