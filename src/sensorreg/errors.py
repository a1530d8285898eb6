"""Exception types shared across the toolkit."""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np


def first_index(bad: np.ndarray) -> tuple[int, ...] | None:
    """Index of the first True entry of ``bad`` (None if there is none)."""
    hits = np.argwhere(bad)
    return tuple(int(i) for i in hits[0]) if hits.size else None


def quote_first(fmt: str, bad: np.ndarray, values: np.ndarray) -> tuple[str, np.ndarray]:
    """The first of ``values`` (one per True entry of ``bad``) as ``fmt``
    reads it, and the mask of the leading run of entries of ``bad`` whose
    value reads the same: an error quoting the value covers only those."""
    text = np.char.mod(fmt, values)
    failed = np.array(bad, dtype=bool)
    failed[bad] = np.logical_and.accumulate(text == text[0])
    return str(text[0]), failed


def at_index(index: tuple[int, ...] | None) -> str:
    """Message suffix naming a batch index; empty for a batch-free one."""
    return "" if not index else f" at batch index {[int(i) for i in index]}"


class SensorRegError(Exception):
    """Base class for all toolkit errors."""


class NumericalError(SensorRegError):
    """A computation failed for numerical reasons (singularity, loss of
    definiteness, non-finite values).

    ``failed`` marks, on the leading batch axes of a batched computation,
    the elements that failed the check with this message (0-d for a
    batch-free one): every one, or, where the message quotes a value, the
    leading run in index order of those that read the same.  ``index``
    locates the first of them (None for a batch-free one).  ``reason`` is
    the message without that location: the message appends the batch index
    unless ``named``, for a reason that already names the place.
    """

    def __init__(self, reason: str, failed=True, *, named: bool = False) -> None:
        self.failed = np.asarray(failed, dtype=bool)
        self.index = first_index(self.failed)
        super().__init__(reason if named else f"{reason}{at_index(self.index)}")
        self.reason = reason


class SingularMatrixError(NumericalError):
    """A matrix that must be inverted is singular or too ill-conditioned."""


class TrackletSingularError(SingularMatrixError):
    """The covariance difference used by the inverse-filter tracklet is
    (near-)singular; ``compute_tracklet`` gives such elements the
    position-marginal form.  ``failed`` marks every such element; the
    message quotes the first.
    """


@contextmanager
def located(where):
    """Re-raise a :class:`NumericalError` escaping the block as
    ``<where>: <reason>``, of the same type and with the same mask.

    The message names the place once: a location computed from the batch
    index replaces the ``at batch index`` suffix, while a fixed text keeps
    the suffix of an error that still carries one.

    ``where`` is the location text, or a function returning it from the
    unpacked batch index of the first failed element (no arguments for a
    batch-free error); it runs only on failure, so it may read loop
    variables.  A batch-free error passes unchanged through a function
    with index parameters.
    """
    try:
        yield
    except NumericalError as exc:
        if isinstance(where, str):
            text, named = where, str(exc) == exc.reason
        elif exc.index is None and where.__code__.co_argcount:
            raise
        else:
            text, named = where(*(exc.index or ())), True
        raise type(exc)(f"{text}: {exc.reason}", exc.failed, named=named) from exc


class ScenarioError(SensorRegError, ValueError):
    """A scenario definition violates its schema or invariants."""
