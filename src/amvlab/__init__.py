"""amvlab: finite-scale mean value calculus on metric measure spaces.

Averaging operators and their exact identities on finite spaces, step-2
Carnot group calculus, continuum model spaces (Euclidean, half-space, flat
cones, gauge balls), ball quadrature and seeded Monte Carlo, radius-sweep
experiments with extrapolated limits, and a discrete Dirichlet solver.
"""

__version__ = "0.1.0"

from .carnot import CarnotStep2, Gauge, heisenberg
from .experiments import ExperimentReport
from .integrate import Estimate, GridScheme, MCScheme, SeedSpec
from .mmspace import FiniteMMSpace, InputError
from .models import (
    CarnotSpace,
    Euclidean,
    FlatCone,
    HalfSpace,
    NumericError,
    Region,
    parse_space,
)

__all__ = [
    "CarnotSpace",
    "CarnotStep2",
    "Estimate",
    "Euclidean",
    "ExperimentReport",
    "FiniteMMSpace",
    "FlatCone",
    "Gauge",
    "GridScheme",
    "HalfSpace",
    "InputError",
    "MCScheme",
    "NumericError",
    "Region",
    "SeedSpec",
    "heisenberg",
    "parse_space",
    "__version__",
]
