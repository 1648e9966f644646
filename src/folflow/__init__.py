"""folflow: leafwise geometric-flow simulations on discrete fibers."""

from .errors import (
    ConvergenceFailure,
    FolflowError,
    GapTooSmall,
    InconsistentData,
    NonFiniteValue,
    NonPositiveField,
    NotConservative,
    NotConverged,
    ParseError,
    ProfileDegenerate,
    SolverSingular,
    ValidationError,
)
from .fiber import (
    FiberGrid,
    ScalarField,
    Topology,
    VectorAlongFiber,
    build_grid,
    derivative,
    divergence,
    grad_log,
    integrate,
    laplacian,
)

__version__ = "0.1.0"

__all__ = [
    "ConvergenceFailure",
    "FolflowError",
    "GapTooSmall",
    "InconsistentData",
    "NonFiniteValue",
    "NonPositiveField",
    "NotConservative",
    "NotConverged",
    "ParseError",
    "ProfileDegenerate",
    "SolverSingular",
    "ValidationError",
    "FiberGrid",
    "ScalarField",
    "Topology",
    "VectorAlongFiber",
    "build_grid",
    "derivative",
    "divergence",
    "grad_log",
    "integrate",
    "laplacian",
    "__version__",
]
