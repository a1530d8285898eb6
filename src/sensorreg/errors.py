"""Exception types shared across the toolkit."""


class SensorRegError(Exception):
    """Base class for all toolkit errors."""


class NumericalError(SensorRegError):
    """A computation failed for numerical reasons (singularity, loss of
    definiteness, non-finite values)."""


class SingularMatrixError(NumericalError):
    """A matrix that must be inverted is singular or too ill-conditioned.

    ``index`` locates the failing matrix on the leading batch axes of a
    batched computation; it is None for a batch-free one.
    """

    def __init__(self, message: str, index: tuple[int, ...] | None = None) -> None:
        super().__init__(message)
        self.index = index


class TrackletSingularError(SingularMatrixError):
    """The covariance difference used by the inverse-filter tracklet is
    (near-)singular; callers should fall back to the decorrelated form."""


class ScenarioError(SensorRegError, ValueError):
    """A scenario definition violates its schema or invariants."""
