"""Exception types shared across the package, and how a broken input rule is raised."""


def refuse(broken: list[str]):
    """Raise the messages of the broken rules, if any, as one ValueError."""
    if broken:
        raise ValueError("; ".join(broken))


class FolflowError(Exception):
    """Base class for all computational failures raised by this package."""


class NonFiniteValue(FolflowError, ValueError):
    """A field or a recorded value is NaN or infinite."""


class NonPositiveField(FolflowError):
    """A field that must stay strictly positive reached zero or below."""


class SolverSingular(FolflowError):
    """A linear solve required by an implicit step is singular."""


class NotConservative(FolflowError):
    """A velocity field has nonzero circulation and admits no potential."""


class ConvergenceFailure(FolflowError):
    """An iterative eigenvalue solve did not reach its tolerance."""


class InconsistentData(FolflowError):
    """Redundant extrinsic data disagree beyond numerical tolerance."""


class GapTooSmall(FolflowError):
    """The spectral gap is too small to set convergence time scales."""


class ProfileDegenerate(FolflowError):
    """A revolution profile pinched off or its slope left [-1, 1]."""


class NotConverged(FolflowError):
    """A flow was asked for its limit before reaching it."""


class ParseError(FolflowError):
    """A run configuration could not be parsed."""


class ValidationError(FolflowError):
    """A run configuration parsed but violates value constraints."""
