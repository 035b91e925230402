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
    breakdown_monitor,
    cfl_dt,
    energy,
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
    InvalidKernelError,
    InvalidSpecError,
    NlwavesError,
    NonFiniteError,
)
from .kernels import Kernel, ValidationReport
from .lattice import (
    Chain,
    initial_velocity,
    integrate_chain,
    make_chain,
)
from .spectral import (
    Field,
    Grid,
    derivative,
    sobolev_norm,
    sobolev_scale,
)

__version__ = "0.1.0"

__all__ = [
    "AlignmentError",
    "BreakdownError",
    "Chain",
    "ConfigError",
    "ConvergenceReport",
    "DegenerateDataError",
    "DegenerateFitError",
    "Field",
    "Grid",
    "HyperbolicityError",
    "InvalidKernelError",
    "InvalidSpecError",
    "Kernel",
    "ModelConfig",
    "NlwavesError",
    "NonFiniteError",
    "RateFit",
    "State",
    "SweepConfig",
    "ValidationReport",
    "breakdown_monitor",
    "cfl_dt",
    "derivative",
    "energy",
    "fit_rate",
    "initial_velocity",
    "integrate",
    "integrate_chain",
    "lattice_sweep",
    "make_chain",
    "make_initial",
    "operator_error",
    "sobolev_norm",
    "sobolev_scale",
    "zero_dispersion_sweep",
]
