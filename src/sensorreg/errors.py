"""Exception types shared across the toolkit."""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np


def first_index(bad: np.ndarray) -> tuple[int, ...] | None:
    """Index of the first True entry of ``bad`` (None if there is none)."""
    hits = np.argwhere(bad)
    return tuple(int(i) for i in hits[0]) if hits.size else None


def at_index(index: tuple[int, ...] | None) -> str:
    """Message suffix naming a batch index; empty for a batch-free one."""
    return "" if not index else f" at batch index {[int(i) for i in index]}"


class SensorRegError(Exception):
    """Base class for all toolkit errors."""


class NumericalError(SensorRegError):
    """A computation failed for numerical reasons (singularity, loss of
    definiteness, non-finite values).

    A stage whose failures a caller may skip returns its checks as
    ``(reason, failed)`` pairs in place of raising: a caller that skips what
    fails (:func:`sensorreg.fusion.fbe_step`) reads them, and one that must
    stop raises the first through :func:`raise_first`.  ``failed`` marks,
    on the leading batch axes of a batched computation, every element that
    failed the check (0-d for a batch-free one).  ``index`` locates the
    first of them (None for a batch-free one), and a message that quotes a
    value quotes that element's.  ``reason`` is the message without that
    location: the message appends the batch index unless ``named``, for a
    reason that already names the place.
    """

    def __init__(self, reason: str, failed=True, *, named: bool = False) -> None:
        self.failed = np.asarray(failed, dtype=bool)
        self.index = first_index(self.failed)
        super().__init__(reason if named else f"{reason}{at_index(self.index)}")
        self.reason = reason


class SingularMatrixError(NumericalError):
    """A matrix that must be inverted is singular or too ill-conditioned."""


def quoted(template: str, failed: np.ndarray, values) -> str | np.ndarray:
    """The reasons of a check whose message quotes each element's value:
    ``template % value`` at each element ``failed`` marks, ``values()``
    giving their values in index order (called only when one fails), and
    None elsewhere; ``template`` itself when none fails."""
    if not failed.any():
        return template
    out = np.full(failed.shape, None, dtype=object)
    out[failed] = [template % value for value in values()]
    return out


def _reason(reason, index) -> str:
    return reason if isinstance(reason, str) else reason[index or ()]


def raise_first(faults, error: type = NumericalError) -> None:
    """Raise the first of ``faults`` that any element fails.

    Each fault is a ``(reason, failed)`` pair, in check order: ``failed``
    marks the elements that fail the check, and ``reason`` is its message,
    or an array of one message per element (:func:`quoted`).  The
    ``error`` (a :class:`NumericalError` or a subclass) marks every element
    that fails the check and quotes the reason of the first.
    """
    for reason, failed in faults:
        failed = np.asarray(failed, dtype=bool)
        if failed.any():
            raise error(_reason(reason, first_index(failed)), failed)


def faults_at(faults, index) -> list:
    """The ``(reason, failed)`` pairs of ``faults`` (as for
    :func:`raise_first`) at ``index`` of their leading batch axes."""
    return [(r if isinstance(r, str) else r[index], failed[index]) for r, failed in faults]


def first_faults(faults, keep) -> tuple[list, np.ndarray]:
    """The first of ``faults`` (as for :func:`raise_first`) that each
    element ``keep`` marks fails: a list of ``(index, reason)`` in (check,
    index) order, and the mask of the kept elements that fail none."""
    found = []
    for reason, failed in faults:
        if failed.any():
            failed = failed & keep
            found += [(i, _reason(reason, i)) for i in map(tuple, np.argwhere(failed))]
            keep = keep & ~failed
    return found, keep


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
