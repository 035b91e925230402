"""Pseudospectral solvers for convolution-type nonlocal wave equations.

Public surface: kernels (Fourier symbols), the periodic spectral toolbox,
first-order system dynamics with RK4, a direct particle-chain model, and
convergence sweeps with log-log rate fits.
"""

from .convergence import (
    ConvergenceReport,
    RateFit,
    SweepConfig,
    fit_rate,
    lattice_sweep,
    operator_error,
    zero_dispersion_sweep,
)
from .dynamics import (
    ModelConfig,
    State,
    integrate,
    make_initial,
)
from .errors import (
    AlignmentError,
    BreakdownError,
    ConfigError,
    DegenerateDataError,
    DegenerateFitError,
    HyperbolicityError,
    InvalidSpecError,
    NlwavesError,
    NonFiniteError,
)
from .kernels import Kernel
from .lattice import (
    Chain,
    initial_velocity,
    integrate_chain,
    make_chain,
)
from .spectral import Grid

__version__ = "0.1.0"

__all__ = [
    "AlignmentError",
    "BreakdownError",
    "Chain",
    "ConfigError",
    "ConvergenceReport",
    "DegenerateDataError",
    "DegenerateFitError",
    "Grid",
    "HyperbolicityError",
    "InvalidSpecError",
    "Kernel",
    "ModelConfig",
    "NlwavesError",
    "NonFiniteError",
    "RateFit",
    "State",
    "SweepConfig",
    "fit_rate",
    "initial_velocity",
    "integrate",
    "integrate_chain",
    "lattice_sweep",
    "make_chain",
    "make_initial",
    "operator_error",
    "zero_dispersion_sweep",
]
