"""Exception types shared across the toolkit."""


def at_index(index: tuple[int, ...] | None) -> str:
    """Message suffix naming a batch index; empty for a batch-free one."""
    return "" if not index else f" at batch index {[int(i) for i in index]}"


class SensorRegError(Exception):
    """Base class for all toolkit errors."""


class NumericalError(SensorRegError):
    """A computation failed for numerical reasons (singularity, loss of
    definiteness, non-finite values).

    ``index`` locates the failing element on the leading batch axes of a
    batched computation; it is None for a batch-free one.  ``reason`` is the
    message without that location.
    """

    def __init__(self, reason: str, index: tuple[int, ...] | None = None) -> None:
        index = tuple(int(i) for i in index) if index else None
        super().__init__(f"{reason}{at_index(index)}")
        self.reason = reason
        self.index = index


class SingularMatrixError(NumericalError):
    """A matrix that must be inverted is singular or too ill-conditioned."""


class TrackletSingularError(SingularMatrixError):
    """The covariance difference used by the inverse-filter tracklet is
    (near-)singular; callers should fall back to the decorrelated form.

    ``failed`` marks every element of the batch that failed the check (a
    0-d array for a batch-free call).
    """

    def __init__(self, reason: str, index=None, failed=None) -> None:
        super().__init__(reason, index=index)
        self.failed = failed


class ScenarioError(SensorRegError, ValueError):
    """A scenario definition violates its schema or invariants."""
